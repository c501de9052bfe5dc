"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments [NAME ...]`` — regenerate evaluation tables/figures
  through the registry + parallel engine (default: all, in paper order;
  ``--only fig9,fig10`` selects, ``--parallel N`` fans out,
  ``--cache-dir``/``--no-cache``/``--refresh`` control the result cache,
  ``--save DIR`` writes text artifacts plus ``manifest.json``);
* ``check`` — fuzz generated device scenarios against the conformance
  oracles (``--fuzz N --seed S --jobs J``; ``--corpus DIR`` shrinks
  failures into a replayable corpus, ``--replay FILE`` re-runs one
  corpus entry, ``--save DIR`` writes ``manifest.json`` +
  ``BENCH_fuzz.json``);
* ``bench [NAME ...]`` — run named performance benchmarks through the
  registry + engine, write schema-versioned ``BENCH.json``
  (``--out FILE``), and optionally gate against a committed baseline
  (``--compare BASELINE --max-regress 1.25`` exits 1 on regression;
  ``--write-baseline FILE`` records a new baseline, ``--list`` shows
  the registry);
* ``attack NAME`` — run one attack scenario and print the Android vs
  E-Android views plus the detector's verdict (``--trace-out FILE``
  additionally writes a Chrome trace-event JSON of the run,
  ``--telemetry`` prints the event-bus metrics summary);
* ``census [--seed N]`` — the Fig. 2 corpus census;
* ``drain`` — the Fig. 3 battery study;
* ``dumpsys`` — boot a demo device, run scene #1, dump all services;
* ``trace NAME --out FILE`` — run an attack, capture the device trace to
  JSON, and verify the offline analyzer reproduces the live report
  (``--trace-out FILE`` writes the Chrome trace-event view,
  ``--telemetry`` prints bus metrics);
* ``serve`` — the long-lived energy query service: ``--batch PATH``
  ingests traces (file / JSONL stream / directory / check corpus),
  ``--queries FILE`` answers a JSONL query stream in one shot,
  ``--daemon`` serves JSONL queries from stdin to stdout (the TCP
  front-end's line path, answered synchronously),
  ``--queue``/``--burst`` control admission, ``--save DIR`` writes
  ``manifest.json`` + ``responses.jsonl``; ``--store DIR`` runs the
  service against an artifact store (digest-memoized corpus replay,
  persisted sessions), ``--spill`` releases ingested traces to the
  store, ``--restore`` re-registers previously persisted sessions;
* ``store`` — inspect/gc/migrate/add/verify a content-addressed
  artifact store (``python -m repro store inspect --store DIR``; see
  ``docs/STORAGE.md``);
* ``chains NAME`` — run an attack and print the attack-graph analysis.

Observability flags are uniform: every run-producing subcommand takes
``--telemetry`` (print/collect event-bus metrics) and ``--trace-out
FILE`` (write a Chrome trace-event JSON).  The pre-normalization
spellings ``--bus-stats`` and ``--chrome-trace`` remain as hidden
aliases.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .exec import EngineConfig, ExperimentEngine, write_manifest
    from .experiments.registry import (
        UnknownExperimentError,
        available_names,
        load_registry,
        resolve_selection,
    )
    from .experiments.runner import save_outcomes

    load_registry()
    names = list(args.names)
    if args.only:
        names += [n.strip() for n in args.only.split(",") if n.strip()]
    try:
        specs = resolve_selection(names)
    except UnknownExperimentError as exc:
        print(str(exc), file=sys.stderr)
        print(f"available: {', '.join(available_names())}", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            print(f"{spec.name:<12} {spec.description}")
        return 0

    engine = ExperimentEngine(
        EngineConfig(
            parallel=args.parallel,
            cache_dir=args.cache_dir or None,
            use_cache=not args.no_cache,
            refresh=args.refresh,
            telemetry=args.telemetry,
            verbose=args.verbose,
        )
    )
    recorder = None
    trace_out = _trace_out_if_serial(args, args.parallel)
    if trace_out:
        from .telemetry import capture

        with capture() as recorder:
            run = engine.run([spec.name for spec in specs])
    else:
        run = engine.run([spec.name for spec in specs])
    for result in run.results:
        print(f"\n=== {result.name} ===")
        print(result.outcome.text)

    if args.telemetry:
        for result in run.results:
            stats = result.telemetry or {}
            print(
                f"[telemetry] {result.name}: "
                f"{stats.get('total_events', 0)} event(s) "
                f"across {stats.get('buses', 0)} bus(es)"
            )

    outcomes = run.outcomes()
    failed = [o.name for o in outcomes if not o.claim_holds]
    stats = run.cache_stats
    print(
        f"\n{len(outcomes) - len(failed)}/{len(outcomes)} claims hold; "
        f"cache: {stats.hits} hit(s), {stats.misses} miss(es); "
        f"wall time {run.total_wall_time_s:.2f}s"
    )
    if failed:
        print("deviations:", ", ".join(failed))
    if args.save:
        written = save_outcomes(outcomes, args.save)
        written.append(str(write_manifest(run, args.save)))
        print(f"wrote {len(written)} artifact files to {args.save}")
    _write_recorded_trace(trace_out, recorder)
    return 0


def _trace_out_if_serial(args: argparse.Namespace, workers: int) -> str:
    """``--trace-out`` only works when events stay in this process."""
    if not args.trace_out:
        return ""
    if workers > 1:
        print(
            "note: --trace-out needs a serial run (worker processes keep "
            "their events); skipping trace capture",
            file=sys.stderr,
        )
        return ""
    return args.trace_out


def _write_recorded_trace(trace_out: str, recorder) -> None:
    """Write a capture()'d run's events as a Chrome trace, if asked."""
    if not trace_out or recorder is None:
        return
    from .telemetry import write_chrome_trace

    path = write_chrome_trace(trace_out, recorder.events)
    print(f"chrome trace written to {path} ({len(recorder.events)} event(s))")


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import CampaignConfig, load_corpus_entry, run_campaign, run_scenario
    from .check.scenario import Scenario

    if args.replay:
        document = load_corpus_entry(args.replay)
        scenario = Scenario.from_dict(document["scenario"])
        report = run_scenario(scenario, stride=args.stride, metamorphic=not args.no_metamorphic)
        print(
            f"replayed {args.replay}: seed {scenario.seed}, "
            f"{len(scenario.ops)} op(s), "
            f"{'PASS' if report.passed else 'FAIL'}"
        )
        for violation in report.violations:
            print(f"  {violation}")
        chaos_ok = True
        if isinstance(document.get("chaos"), dict):
            from .faults import replay_chaos_entry

            soak = replay_chaos_entry(args.replay)
            chaos_ok = soak.passed
            print(
                f"chaos replay (seed {soak.seed}): "
                f"{sum(soak.injected.values())} fault(s) injected, "
                f"{soak.ok_identical}/{soak.queries} quer(ies) "
                f"byte-identical, {soak.typed_errors} typed error(s), "
                f"{'PASS' if soak.passed else 'FAIL'}"
            )
            for problem in soak.problems:
                print(f"  {problem}")
        return 0 if report.passed and chaos_ok else 1

    config = CampaignConfig(
        fuzz=args.fuzz,
        seed=args.seed,
        jobs=args.jobs,
        ops=args.ops,
        stride=args.stride,
        metamorphic=not args.no_metamorphic,
        corpus_dir=args.corpus or None,
        save_dir=args.save or None,
        cache_dir=args.cache_dir or None,
        use_cache=not args.no_cache,
        refresh=args.refresh,
        telemetry=args.telemetry,
        verbose=args.verbose,
        chaos=args.chaos,
        faults_path=args.faults or None,
    )
    recorder = None
    trace_out = _trace_out_if_serial(args, args.jobs)
    if trace_out:
        from .telemetry import capture

        with capture() as recorder:
            report = run_campaign(config)
    else:
        report = run_campaign(config)
    print(report.render_text())
    stats = report.cache_stats
    print(
        f"cache: {stats.get('hits', 0)} hit(s), "
        f"{stats.get('misses', 0)} miss(es)"
    )
    _write_recorded_trace(trace_out, recorder)
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        SuiteConfig,
        UnknownBenchError,
        available_bench_names,
        compare_benchmarks,
        load_bench_json,
        resolve_bench_selection,
        run_suite,
        write_bench_json,
    )

    try:
        specs = resolve_bench_selection(list(args.names) or None)
    except UnknownBenchError as exc:
        print(str(exc), file=sys.stderr)
        print(f"available: {', '.join(available_bench_names())}", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            print(f"{spec.name:<22} [{spec.kind}] {spec.description}")
        return 0

    report = run_suite(
        SuiteConfig(
            names=[spec.name for spec in specs],
            repeats=args.repeats,
            parallel=args.parallel,
        )
    )
    print(report.render_text())
    if not report.passed:
        failed = [r.name for r in report.results if not r.ok]
        print(f"benchmark failure(s): {', '.join(failed)}", file=sys.stderr)
        return 1

    if args.out:
        print(f"wrote {write_bench_json(report, args.out)}")
    if args.write_baseline:
        print(f"baseline written to {write_bench_json(report, args.write_baseline)}")

    if args.compare:
        try:
            baseline = load_bench_json(args.compare)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline: {exc}", file=sys.stderr)
            return 2
        gate = compare_benchmarks(
            report.to_dict(), baseline, max_regress=args.max_regress
        )
        print()
        print(gate.render_text())
        return 0 if gate.passed else 1
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .core import CollateralEnergyDetector

    runners = _attack_runners()
    if args.name not in runners:
        print(f"unknown attack {args.name!r}; available: {', '.join(runners)}",
              file=sys.stderr)
        return 2
    run, recorder = _run_with_telemetry(runners[args.name], args)
    print(f"--- stock Android view ({run.name}) ---")
    print(run.android_report().render_text())
    print("\n--- E-Android view ---")
    print(run.eandroid_report().render_text())
    print("\n--- detector ---")
    detector = CollateralEnergyDetector(run.system, run.eandroid.accounting)
    print(detector.render_text(run.start, run.end))
    _finish_telemetry(run, recorder, args)
    return 0


def _run_with_telemetry(runner, args):
    """Run a scenario, recording bus events when the flags ask for it."""
    from .telemetry import capture

    if getattr(args, "trace_out", "") or getattr(args, "telemetry", False):
        with capture() as recorder:
            run = runner(args.duration)
        return run, recorder
    return runner(args.duration), None


def _finish_telemetry(run, recorder, args) -> None:
    """Write ``--trace-out`` / print ``--telemetry`` for a recorded run."""
    from .telemetry import render_metrics_text, write_chrome_trace

    if recorder is None:
        return
    if getattr(args, "trace_out", ""):
        path = write_chrome_trace(
            args.trace_out,
            recorder.events,
            labels=_uid_labels(run.system),
            end_time=run.system.now,
        )
        print(f"\nchrome trace written to {path} "
              f"({len(recorder.events)} event(s))")
    if getattr(args, "telemetry", False):
        print()
        print(render_metrics_text(recorder.stats()))


def _uid_labels(system) -> dict:
    """uid -> display label for trace track names."""
    return {
        app.uid: app.label
        for app in system.package_manager.installed_apps()
        if app.uid is not None
    }


def _attack_runners():
    from .workloads import ALL_ATTACKS, run_hybrid_attack, run_multi_attack

    runners = dict(ALL_ATTACKS)
    runners["multi"] = run_multi_attack
    runners["hybrid"] = run_hybrid_attack
    return runners


def _cmd_trace(args: argparse.Namespace) -> int:
    from .offline import OfflineAnalyzer, DeviceTrace, capture_trace

    runners = _attack_runners()
    if args.name not in runners:
        print(f"unknown attack {args.name!r}; available: {', '.join(runners)}",
              file=sys.stderr)
        return 2
    run, recorder = _run_with_telemetry(runners[args.name], args)
    trace = capture_trace(run.system, run.eandroid)
    if args.out:
        from pathlib import Path

        binary = args.binary or Path(args.out).suffix.lower() in (".bin", ".rtb")
        if binary:
            path = trace.save(args.out, binary=True)
        else:
            path = Path(args.out)
            path.write_text(trace.to_json(indent=2), encoding="utf-8")
        print(
            f"trace written to {path} ({path.stat().st_size} bytes, "
            f"{'binary' if binary else 'json'})"
        )
        restored = DeviceTrace.load(path)
    else:
        restored = DeviceTrace.from_json(trace.to_json(indent=2))
    analyzer = OfflineAnalyzer(restored)
    print("\n--- offline E-Android reconstruction ---")
    print(analyzer.eandroid_report(run.start, run.end).render_text())
    _finish_telemetry(run, recorder, args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    recorder = None
    if args.trace_out or args.telemetry:
        from .telemetry import capture

        with capture() as recorder:
            code = _serve_run(args)
    else:
        code = _serve_run(args)
    if recorder is not None:
        _write_recorded_trace(args.trace_out, recorder)
        if args.telemetry:
            from .telemetry import render_metrics_text

            print()
            print(render_metrics_text(recorder.stats()))
    return code


def _serve_run(args: argparse.Namespace) -> int:
    """The serve command body (telemetry capture wraps this)."""
    import json
    from pathlib import Path

    from .offline import TraceFormatError
    from .serve import (
        STATUS_ERROR,
        STATUS_SHED,
        ProfilingService,
        ProtocolError,
        ServiceClient,
        ServiceConfig,
        parse_queries_jsonl,
        responses_to_jsonl,
    )

    service = ProfilingService(
        ServiceConfig(
            max_queue=args.queue,
            cache_entries=args.cache_entries,
            telemetry=True,
            store_dir=args.store or None,
            spill=args.spill,
        )
    )
    if args.restore:
        if not args.store:
            print("--restore needs --store DIR", file=sys.stderr)
            return 2
        restored = service.restore_sessions()
        print(
            f"restored {len(restored)} session(s) from {args.store}",
            file=sys.stderr if args.daemon else sys.stdout,
        )
    if args.batch:
        try:
            names = service.ingest(args.batch)
        except (TraceFormatError, FileNotFoundError) as exc:
            print(f"cannot ingest {args.batch}: {exc}", file=sys.stderr)
            return 2
        # In daemon mode stdout carries the JSONL responses, nothing else.
        print(
            f"ingested {len(names)} session(s) from {args.batch}",
            file=sys.stderr if args.daemon else sys.stdout,
        )

    responses = []
    exit_code = 0
    if args.queries:
        try:
            lines = Path(args.queries).read_text(encoding="utf-8").splitlines()
            queries = parse_queries_jsonl(lines)
        except (OSError, ProtocolError) as exc:
            print(f"cannot load queries: {exc}", file=sys.stderr)
            return 2
        expanded = ServiceClient(service).expand(queries)
        responses = service.serve_batch(expanded, burst=args.burst)
        answered = sum(r.ok for r in responses)
        shed = sum(r.status == STATUS_SHED for r in responses)
        errors = sum(r.status == STATUS_ERROR for r in responses)
        hit_rate = service.cache.hit_rate
        print(
            f"served {len(responses)} quer(ies): {answered} answered, "
            f"{shed} shed, {errors} error(s); "
            f"cache hit-rate {hit_rate:.1%}"
        )
        if errors:
            exit_code = 1
    elif args.listen:
        code = _serve_listen(service, args)
        if code != 0:
            return code
    elif args.daemon:
        _serve_daemon(service)

    manifest = service.manifest()
    if args.save:
        outdir = Path(args.save)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        written = ["manifest.json"]
        if responses:
            (outdir / "responses.jsonl").write_text(
                responses_to_jsonl(responses), encoding="utf-8"
            )
            written.append("responses.jsonl")
        print(
            f"wrote {' + '.join(written)} to {outdir}",
            file=sys.stderr if args.daemon else sys.stdout,
        )
    if args.fail_on_shed and manifest["stats"]["shed"] > 0:
        print(
            f"--fail-on-shed: {manifest['stats']['shed']} quer(ies) shed",
            file=sys.stderr,
        )
        return 1
    return exit_code


def _serve_daemon(service) -> None:
    """JSONL request/response loop on stdin/stdout (until EOF).

    Every line takes the TCP front-end's line path
    (:func:`repro.serve.net.route_line`): the same size guard, comment
    skip, typed error lines, ``"*"`` expansion echoing the line's ``id``
    and aggregate routing.  The work is answered synchronously, in line
    order, straight through the service.
    """
    from .serve import NetStats, encode_response_line
    from .serve.net import route_line

    stats = NetStats()
    seq = 0
    for raw in sys.stdin:
        seq, error, work = route_line(
            service, raw.rstrip("\n").encode("utf-8"), seq, stats
        )
        if error is not None:
            sys.stdout.write(error)
        for decoded, query in work:
            if query is None:
                response = service.aggregate(decoded.aggregate)
                sys.stdout.write(encode_response_line(response, line_id=decoded.id))
            else:
                sys.stdout.write(encode_response_line(service.submit(query)))
        sys.stdout.flush()


def _serve_listen(service, args: argparse.Namespace) -> int:
    """Run the asyncio TCP front-end until SIGINT/SIGTERM."""
    import asyncio
    import json
    import signal

    from .serve import MAX_LINE_BYTES, NetConfig, NetServer

    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 <= port <= 65535:
        print(f"--listen needs HOST:PORT, got {args.listen!r}", file=sys.stderr)
        return 2

    config = NetConfig(
        host=host,
        port=port,
        max_line_bytes=(
            args.max_line if args.max_line is not None else MAX_LINE_BYTES
        ),
        max_connections=args.max_connections,
        max_pending=args.queue,
        inflight_per_connection=args.inflight,
        deadline_s=args.deadline,
    )

    async def run() -> None:
        server = NetServer(service, config)
        await server.start()
        bound_host, bound_port = server.address
        # stderr: stdout may be piped, and the port matters for port 0.
        print(f"listening on {bound_host}:{bound_port}", file=sys.stderr, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop.wait()
        print(
            "shutting down: flushing in-flight responses", file=sys.stderr, flush=True
        )
        await server.shutdown()
        print(
            "net stats: " + json.dumps(server.stats.as_dict(), sort_keys=True),
            file=sys.stderr,
            flush=True,
        )

    asyncio.run(run())
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    """One fleet aggregate over ingested/restored sessions."""
    import json
    from pathlib import Path

    from .aggregate import AggregateRequest, AggregateRequestError
    from .offline import TraceFormatError
    from .reports import UnknownBackendError
    from .serve import ProfilingService, ServiceConfig

    service = ProfilingService(
        ServiceConfig(telemetry=False, store_dir=args.store or None)
    )
    if args.restore:
        if not args.store:
            print("--restore needs --store DIR", file=sys.stderr)
            return 2
        restored = service.restore_sessions()
        print(f"restored {len(restored)} session(s)", file=sys.stderr)
    if args.batch:
        try:
            names = service.ingest(args.batch)
        except (TraceFormatError, FileNotFoundError) as exc:
            print(f"cannot ingest {args.batch}: {exc}", file=sys.stderr)
            return 2
        print(f"ingested {len(names)} session(s)", file=sys.stderr)
    if not service.sessions:
        print("no sessions: pass --batch and/or --store --restore", file=sys.stderr)
        return 2

    try:
        request = AggregateRequest(
            backend=args.backend,
            op=args.op,
            group_by=args.group_by,
            sessions=tuple(args.sessions) if args.sessions else ("*",),
            start=args.start,
            end=args.end,
            k=args.k,
            bins=args.bins,
            bin_width=args.bin_width,
        )
    except (AggregateRequestError, UnknownBackendError) as exc:
        print(f"bad aggregate request: {exc}", file=sys.stderr)
        return 2

    if args.chaos or args.faults:
        from .faults import FaultPlan, activate

        plan = FaultPlan.load(args.faults) if args.faults else FaultPlan.mixed()
        with activate(plan, args.fault_seed):
            response = service.aggregate(request)
    else:
        response = service.aggregate(request)

    payload = response.payload or {}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    missing = payload.get("missing_sessions", [])
    print(
        f"aggregated {len(payload.get('sessions', []))} session(s) "
        f"({response.memoized} memoized, {response.computed} computed)"
        + (f"; partial — missing: {', '.join(missing)}" if missing else ""),
        file=sys.stderr,
    )
    if missing and args.fail_on_partial:
        return 1
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from .store import (
        ArtifactStore,
        CodecError,
        StoreError,
        UnknownCodecError,
        add_file,
        gc_store,
        inspect_store,
        migrate_store,
    )

    store = ArtifactStore(args.store or None)
    try:
        if args.action == "inspect":
            print(json.dumps(inspect_store(store), indent=2, sort_keys=True))
            return 0
        if args.action == "gc":
            report = gc_store(store, dry_run=args.dry_run)
            verb = "would remove" if args.dry_run else "removed"
            print(
                f"scanned {report.scanned} object(s): {report.live} live, "
                f"{verb} {report.removed} ({report.freed_bytes} bytes)"
            )
            return 0
        if args.action == "migrate":
            result = migrate_store(
                store, args.to_codec, kinds=args.kind or None
            )
            print(
                f"migrated {len(result['migrated'])} artifact(s) to "
                f"{result['to_codec']!r} ({result['skipped']} already current, "
                f"{result['refs_repointed']} ref(s) repointed)"
            )
            for row in result["migrated"]:
                print(f"  {row['from'][:12]} -> {row['to'][:12]}")
            return 0
        if args.action == "add":
            result = add_file(
                store,
                args.file,
                args.codec,
                ref=args.ref or None,
                namespace=args.namespace,
            )
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        if args.action == "verify":
            problems = store.verify()
            stats = store.stats()
            if problems:
                for problem in problems:
                    print(problem, file=sys.stderr)
                print(f"{len(problems)} problem(s) found", file=sys.stderr)
                return 1
            print(
                f"ok: {stats['objects']} object(s), {stats['refs']} ref(s), "
                f"{stats['bytes']} bytes"
            )
            return 0
    except (StoreError, CodecError, UnknownCodecError, OSError, ValueError) as exc:
        print(f"store {args.action} failed: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled store action {args.action!r}")


def _cmd_chains(args: argparse.Namespace) -> int:
    from .core import AttackGraphAnalyzer

    runners = _attack_runners()
    if args.name not in runners:
        print(f"unknown attack {args.name!r}; available: {', '.join(runners)}",
              file=sys.stderr)
        return 2
    run = runners[args.name](args.duration)
    analyzer = AttackGraphAnalyzer(run.eandroid.accounting)
    print(analyzer.render_text(system=run.system))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .apps import generate_corpus, run_census

    print(run_census(generate_corpus(seed=args.seed)).render_text())
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from .experiments import run_fig3

    print(run_fig3().render_text())
    return 0


def _cmd_dumpsys(args: argparse.Namespace) -> int:
    from .android import dumpsys
    from .workloads import run_scene1

    run = run_scene1()
    print(dumpsys(run.system))
    return 0


def _add_observability_flags(
    sub: argparse.ArgumentParser, telemetry_help: str, trace_out_help: str
) -> None:
    """The uniform ``--telemetry`` / ``--trace-out`` pair.

    Every run-producing subcommand spells these two the same way; the
    pre-normalization spellings (``--bus-stats``, ``--chrome-trace``)
    stay accepted as hidden aliases so existing scripts keep working.
    """
    sub.add_argument("--telemetry", action="store_true", help=telemetry_help)
    sub.add_argument(
        "--bus-stats",
        dest="telemetry",
        action="store_true",
        help=argparse.SUPPRESS,
    )
    sub.add_argument("--trace-out", default="", help=trace_out_help)
    sub.add_argument(
        "--chrome-trace", dest="trace_out", default="", help=argparse.SUPPRESS
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="E-Android reproduction: run experiments, attacks, and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiments = sub.add_parser(
        "experiments", help="regenerate evaluation tables/figures"
    )
    experiments.add_argument("names", nargs="*", help="fig1..fig11, efficiency")
    experiments.add_argument(
        "--only",
        default="",
        help="comma-separated selection, e.g. --only fig9,fig10",
    )
    experiments.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="run up to N experiments in worker processes (default: serial)",
    )
    experiments.add_argument(
        "--cache-dir",
        default="",
        help="result cache directory (default: ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    experiments.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    experiments.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every experiment and overwrite its cache entry",
    )
    experiments.add_argument(
        "--save", default="", help="write text artifacts + manifest.json here"
    )
    _add_observability_flags(
        experiments,
        telemetry_help="collect per-experiment event-bus stats into the manifest",
        trace_out_help="write a Chrome trace-event JSON (serial runs only)",
    )
    experiments.add_argument(
        "--verbose",
        action="store_true",
        help="print warnings (e.g. corrupt cache entries) to stderr",
    )
    experiments.add_argument(
        "--list", action="store_true", help="list the selection and exit"
    )
    experiments.set_defaults(func=_cmd_experiments)

    check = sub.add_parser(
        "check", help="fuzz the device against the conformance oracles"
    )
    check.add_argument(
        "--fuzz", type=int, default=50, help="number of scenarios (default 50)"
    )
    check.add_argument(
        "--seed", type=int, default=7, help="campaign base seed (default 7)"
    )
    check.add_argument(
        "--jobs", type=int, default=1, help="engine worker processes"
    )
    check.add_argument(
        "--ops", type=int, default=40, help="body ops per scenario (default 40)"
    )
    check.add_argument(
        "--stride",
        type=int,
        default=1,
        help="run step oracles every Nth op (default: every op)",
    )
    check.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the replay-based metamorphic oracles (3x faster)",
    )
    check.add_argument(
        "--corpus",
        default="",
        help="write shrunk failing scripts into this corpus directory",
    )
    check.add_argument(
        "--replay",
        default="",
        help="replay one corpus entry instead of fuzzing",
    )
    check.add_argument(
        "--save", default="", help="write manifest.json + BENCH_fuzz.json here"
    )
    check.add_argument(
        "--cache-dir",
        default="",
        help="result cache directory (default: ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    check.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    check.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every batch and overwrite its cache entry",
    )
    _add_observability_flags(
        check,
        telemetry_help="collect per-batch event-bus stats into the manifest",
        trace_out_help="write a Chrome trace-event JSON (serial runs only)",
    )
    check.add_argument(
        "--verbose",
        action="store_true",
        help="print warnings (e.g. corrupt cache entries) to stderr",
    )
    check.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "run the campaign twice — fault-free, then under a "
            "deterministic fault plan — and require byte-identical "
            "verdicts from every run that completes"
        ),
    )
    check.add_argument(
        "--faults",
        default="",
        help="fault plan JSON for --chaos (default: the stock 5%% mixed plan)",
    )
    check.set_defaults(func=_cmd_check)

    bench = sub.add_parser(
        "bench", help="run performance benchmarks / gate against a baseline"
    )
    bench.add_argument(
        "names", nargs="*", help="benchmark names (default: the full registry)"
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override every benchmark's repeat count",
    )
    bench.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="run up to N benchmarks in worker processes (default: serial)",
    )
    bench.add_argument(
        "--out", default="", help="write the BENCH.json document here"
    )
    bench.add_argument(
        "--compare",
        default="",
        help="baseline BENCH.json to gate against (exit 1 on regression)",
    )
    bench.add_argument(
        "--max-regress",
        type=float,
        default=1.25,
        help="max allowed calibration-normalized slowdown (default 1.25)",
    )
    bench.add_argument(
        "--write-baseline",
        default="",
        help="record this run as the new baseline BENCH.json",
    )
    bench.add_argument(
        "--list", action="store_true", help="list the selection and exit"
    )
    bench.set_defaults(func=_cmd_bench)

    attack = sub.add_parser("attack", help="run one attack scenario")
    attack.add_argument(
        "name", help="attack1..attack6, multi, hybrid"
    )
    attack.add_argument(
        "--duration", type=float, default=60.0, help="attack window (virtual s)"
    )
    _add_observability_flags(
        attack,
        telemetry_help="print event-bus metrics",
        trace_out_help="write a Chrome trace-event JSON here",
    )
    attack.set_defaults(func=_cmd_attack)

    census = sub.add_parser("census", help="the Fig. 2 corpus census")
    census.add_argument("--seed", type=int, default=7)
    census.set_defaults(func=_cmd_census)

    drain = sub.add_parser("drain", help="the Fig. 3 battery study")
    drain.set_defaults(func=_cmd_drain)

    dump = sub.add_parser("dumpsys", help="dump a demo device's state")
    dump.set_defaults(func=_cmd_dumpsys)

    trace = sub.add_parser("trace", help="capture a device trace to a file")
    trace.add_argument("name", help="attack1..attack6, multi, hybrid")
    trace.add_argument("--duration", type=float, default=60.0)
    trace.add_argument(
        "--out",
        default="",
        help="write the trace here (.bin/.rtb suffixes pick the binary format)",
    )
    trace.add_argument(
        "--binary",
        action="store_true",
        help="force the columnar binary format regardless of suffix",
    )
    _add_observability_flags(
        trace,
        telemetry_help="print event-bus metrics",
        trace_out_help="write a Chrome trace-event JSON here",
    )
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve", help="long-lived energy query service over ingested traces"
    )
    serve.add_argument(
        "--batch",
        default="",
        help="ingest traces from this file / JSONL stream / directory",
    )
    serve.add_argument(
        "--queries",
        default="",
        help="answer this JSONL query stream in one shot and exit",
    )
    serve.add_argument(
        "--daemon",
        action="store_true",
        help="serve JSONL queries from stdin to stdout until EOF",
    )
    serve.add_argument(
        "--listen",
        default="",
        metavar="HOST:PORT",
        help="serve the JSONL protocol over TCP (port 0: ephemeral)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=30.0,
        help="per-query deadline in seconds for --listen (default 30)",
    )
    serve.add_argument(
        "--max-line",
        type=int,
        default=None,
        help="largest accepted request line in bytes (default 1 MiB)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        help="concurrent TCP connection cap for --listen (default 64)",
    )
    serve.add_argument(
        "--inflight",
        type=int,
        default=32,
        help="per-connection in-flight query cap for --listen (default 32)",
    )
    serve.add_argument(
        "--queue",
        type=int,
        default=256,
        help="admission-control queue depth (default 256)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=None,
        help="arrival burst size (default: the queue depth; larger bursts shed)",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=512,
        help="result-LRU capacity (default 512)",
    )
    serve.add_argument(
        "--save", default="", help="write manifest.json + responses.jsonl here"
    )
    serve.add_argument(
        "--fail-on-shed",
        action="store_true",
        help="exit 1 if any query was shed (CI smoke gate)",
    )
    serve.add_argument(
        "--store",
        default="",
        help="artifact-store directory: memoize corpus replay + persist sessions",
    )
    serve.add_argument(
        "--spill",
        action="store_true",
        help="release ingested traces to the store; fault in lazily on query",
    )
    serve.add_argument(
        "--restore",
        action="store_true",
        help="re-register sessions persisted in --store before ingesting",
    )
    _add_observability_flags(
        serve,
        telemetry_help="print event-bus metrics for the serving run",
        trace_out_help="write a Chrome trace-event JSON of the serving run",
    )
    serve.set_defaults(func=_cmd_serve)

    aggregate = sub.add_parser(
        "aggregate",
        help="one fleet aggregate (scatter-gather) across ingested sessions",
    )
    aggregate.add_argument(
        "--batch",
        default="",
        help="ingest traces from this file / JSONL stream / directory",
    )
    aggregate.add_argument(
        "--store",
        default="",
        help="artifact-store directory: memoize per-session partials",
    )
    aggregate.add_argument(
        "--restore",
        action="store_true",
        help="re-register sessions persisted in --store before aggregating",
    )
    aggregate.add_argument(
        "--backend",
        default="eandroid",
        help="report backend valuing the rows (default eandroid)",
    )
    aggregate.add_argument(
        "--op",
        default="sum",
        choices=["sum", "mean", "topk", "histogram"],
        help="reduction operator (default sum)",
    )
    aggregate.add_argument(
        "--group-by",
        default="owner",
        choices=["owner", "category", "mechanism"],
        help="grouping dimension (default owner)",
    )
    aggregate.add_argument(
        "--sessions",
        nargs="*",
        default=None,
        metavar="PATTERN",
        help="fnmatch session selector(s) (default: '*', the whole fleet)",
    )
    aggregate.add_argument(
        "--start", type=float, default=0.0, help="window start (seconds)"
    )
    aggregate.add_argument(
        "--end", type=float, default=None, help="window end (default: trace end)"
    )
    aggregate.add_argument(
        "--k", type=int, default=10, help="groups to keep for --op topk"
    )
    aggregate.add_argument(
        "--bins", type=int, default=16, help="bin count for --op histogram"
    )
    aggregate.add_argument(
        "--bin-width",
        type=float,
        default=1.0,
        help="bin width in joules for --op histogram",
    )
    aggregate.add_argument(
        "--out", default="", help="write the repro.aggregate/1 payload here"
    )
    aggregate.add_argument(
        "--chaos",
        action="store_true",
        help="arm the stock mixed fault plan around the aggregate",
    )
    aggregate.add_argument(
        "--faults",
        default="",
        help="fault plan JSON to arm instead of the stock mixed plan",
    )
    aggregate.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="rng seed for the armed fault plan (default 0)",
    )
    aggregate.add_argument(
        "--fail-on-partial",
        action="store_true",
        help="exit 1 if any selected session is missing (CI smoke gate)",
    )
    aggregate.set_defaults(func=_cmd_aggregate)

    store = sub.add_parser(
        "store", help="inspect/gc/migrate a content-addressed artifact store"
    )
    store_sub = store.add_subparsers(dest="action", required=True)
    for action_name, action_help in (
        ("inspect", "print the store's artifacts, refs, and stats as JSON"),
        ("gc", "delete every object no ref reaches"),
        ("migrate", "transcode stored artifacts to another codec"),
        ("add", "validate a file through a codec and add it to the store"),
        ("verify", "re-hash every object and cross-check refs"),
    ):
        action = store_sub.add_parser(action_name, help=action_help)
        action.add_argument(
            "--store",
            default="",
            help="store directory (default: $REPRO_STORE_DIR or "
            "~/.local/share/repro/store)",
        )
        action.set_defaults(func=_cmd_store)
        if action_name == "gc":
            action.add_argument(
                "--dry-run",
                action="store_true",
                help="report what would be removed without deleting",
            )
        elif action_name == "migrate":
            action.add_argument(
                "--to-codec",
                required=True,
                help="target codec name (e.g. trace-bin)",
            )
            action.add_argument(
                "--kind",
                action="append",
                default=[],
                help="restrict to artifact kind(s) (default: the codec's kind)",
            )
        elif action_name == "add":
            action.add_argument("file", help="file to add")
            action.add_argument(
                "--codec",
                required=True,
                help="codec to validate/encode with (json, trace-json, "
                "trace-bin, corpus-json)",
            )
            action.add_argument(
                "--ref", default="", help="also create refs/<namespace>/<REF>"
            )
            action.add_argument(
                "--namespace", default="manual", help="ref namespace (default: manual)"
            )

    chains = sub.add_parser("chains", help="attack-graph analysis of a run")
    chains.add_argument("name", help="attack1..attack6, multi, hybrid")
    chains.add_argument("--duration", type=float, default=60.0)
    chains.set_defaults(func=_cmd_chains)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
