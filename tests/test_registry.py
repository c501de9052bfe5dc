"""Tests for the experiment registry and the uniform result protocol."""

import pytest

from repro.experiments import (
    REGISTRY,
    ExperimentOutcome,
    ExperimentSpec,
    RestoredResult,
    UnknownExperimentError,
    available_names,
    get_spec,
    ordered_specs,
    resolve_selection,
    run_fig1,
)
from repro.experiments.registry import outcome_from_result

PAPER_ORDER = [
    "fig1",
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "efficiency",
]

# Auxiliary specs ride on the engine (cache, fan-out) but are not part
# of the paper's evaluation; default selections skip them.
AUXILIARY = ["fuzz", "bench"]


class TestRegistryContents:
    def test_all_experiments_registered(self):
        assert set(REGISTRY) == set(PAPER_ORDER) | set(AUXILIARY)

    def test_paper_order(self):
        assert available_names() == PAPER_ORDER + AUXILIARY
        assert [s.name for s in ordered_specs()] == PAPER_ORDER + AUXILIARY

    def test_auxiliary_flagged(self):
        assert REGISTRY["fuzz"].auxiliary is True
        assert all(not REGISTRY[name].auxiliary for name in PAPER_ORDER)

    def test_aliases_resolve(self):
        assert get_spec("fig10_table1").name == "fig10"
        assert get_spec("table1").name == "fig10"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownExperimentError):
            get_spec("fig99")

    def test_default_params_recorded(self):
        assert REGISTRY["fig10"].default_params == {"iterations": 50}
        assert REGISTRY["fig11"].default_params == {"rounds": 40, "inner": 4000}


class TestSelection:
    def test_empty_selection_is_every_paper_experiment(self):
        assert [s.name for s in resolve_selection(None)] == PAPER_ORDER
        assert [s.name for s in resolve_selection([])] == PAPER_ORDER

    def test_auxiliary_selectable_by_name(self):
        assert [s.name for s in resolve_selection(["fuzz"])] == ["fuzz"]

    def test_selection_keeps_user_order_and_dedups(self):
        specs = resolve_selection(["fig9", "fig1", "fig9"])
        assert [s.name for s in specs] == ["fig9", "fig1"]

    def test_selection_accepts_aliases(self):
        specs = resolve_selection(["fig10_table1"])
        assert [s.name for s in specs] == ["fig10"]

    def test_selection_reports_every_unknown(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            resolve_selection(["fig1", "bogus", "nope"])
        assert excinfo.value.unknown == ["bogus", "nope"]


class TestResultProtocol:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig1()

    def test_uniform_fields(self, result):
        assert result.name == "fig1"
        assert result.params == {}
        assert result.claim_holds is True
        assert "Camera" in result.render_text()
        assert isinstance(result.metrics(), dict)

    def test_to_dict_is_json_ready(self, result):
        import json

        data = result.to_dict()
        json.dumps(data)  # must not raise
        assert data["name"] == "fig1"
        assert data["claim_holds"] is True
        assert data["text"] == result.render_text()

    def test_round_trip(self, result):
        data = result.to_dict()
        restored = type(result).from_dict(data)
        assert isinstance(restored, RestoredResult)
        assert restored.name == result.name
        assert restored.claim_holds == result.claim_holds
        assert restored.render_text() == result.render_text()
        assert restored.to_dict() == data
        # restored results round-trip again
        assert RestoredResult.from_dict(restored.to_dict()).to_dict() == data

    def test_spec_run_merges_params(self):
        spec = REGISTRY["fig10"]
        result = spec.run(iterations=3)
        assert result.params == {"iterations": 3}
        data = result.to_dict()
        assert data["params"] == {"iterations": 3}

    def test_spec_outcome_flattens(self, result):
        outcome = REGISTRY["fig1"].outcome(result)
        assert isinstance(outcome, ExperimentOutcome)
        assert outcome.name == "fig1"
        assert outcome.claim_holds is True
        assert outcome.text == result.render_text()
        assert outcome.status == "REPRODUCED"


class TestExperimentOutcome:
    def test_positional_compat(self):
        outcome = ExperimentOutcome("x", False, "body")
        assert outcome.name == "x"
        assert outcome.status == "DEVIATION"
        assert outcome.render_text() == "body"

    def test_round_trip(self):
        outcome = ExperimentOutcome(
            "x", True, "body", params={"a": 1}, metrics={"m": 2.0}, wall_time_s=0.5
        )
        again = ExperimentOutcome.from_dict(outcome.to_dict())
        assert again == outcome

    def test_outcome_from_result_uses_protocol(self):
        spec_result = run_fig1()
        outcome = outcome_from_result(spec_result)
        assert outcome.metrics == spec_result.metrics()


class TestRegisterReplaces:
    def test_reregistration_is_idempotent(self):
        from repro.experiments.registry import register

        original = REGISTRY["fig1"]
        try:
            replacement = ExperimentSpec(
                name="fig1", runner=run_fig1, description="replaced", order=1
            )
            register(replacement)
            assert REGISTRY["fig1"].description == "replaced"
            assert len([n for n in REGISTRY if n == "fig1"]) == 1
        finally:
            register(original)
