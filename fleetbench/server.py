"""Start, measure and stop the deployed server as a child process."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
LISTEN_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server did not start, stop or account as promised."""


class Server:
    """One ``repro serve --listen`` process started through ``launch.py``.

    ``setup_s`` is the time from process launch to its ``listening on``
    line.  A thread drains stderr for the process's lifetime so the
    server never blocks on a full pipe.
    """

    def __init__(self, serve_args: List[str], spans: Optional[Path] = None) -> None:
        command = [sys.executable, str(HERE / "launch.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["serve", "--listen", "127.0.0.1:0", *serve_args]
        self.stderr: List[str] = []
        self.port: Optional[int] = None
        self.listening_at = 0.0
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._listening = threading.Event()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        if not self._listening.wait(LISTEN_TIMEOUT_S) or self.port is None:
            self.kill()
            raise ServerError(
                "server never reported its listening address; stderr tail:\n"
                + "".join(self.stderr[-20:])
            )
        self.setup_s = self.listening_at - self.launched

    def _read_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            if line.startswith("listening on ") and self.port is None:
                self.listening_at = time.perf_counter()
                self.port = int(line.rsplit(":", 1)[1])
                self._listening.set()
            self.stderr.append(line)
        self._listening.set()  # exited before listening: wake the waiter

    def peak_rss_mb(self) -> float:
        """Peak resident set size so far (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM line in /proc status")

    def cpu_s(self) -> float:
        """CPU seconds the server has used so far (user + system, all threads)."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text(encoding="utf-8")
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Dict[str, int]:
        """SIGTERM, wait for exit, return the final ``net stats`` counters.

        Raises :class:`ServerError` on a non-zero exit, a missing stats
        line, or a broken ``received == answered + errors + shed``.
        """
        self._await_sigterm_handler()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ServerError("server did not exit after SIGTERM")
        self._drain.join(timeout=STOP_TIMEOUT_S)
        if code != 0:
            raise ServerError(
                f"server exited {code}; stderr tail:\n" + "".join(self.stderr[-20:])
            )
        return parse_net_stats(self.stderr)

    def _await_sigterm_handler(self) -> None:
        """Wait until the server catches SIGTERM (``SigCgt`` in /proc status).

        The server prints ``listening on`` just before it installs its
        shutdown handler; a SIGTERM in between would kill it with no
        final stats line.
        """
        bit = 1 << (signal.SIGTERM - 1)
        deadline = time.perf_counter() + LISTEN_TIMEOUT_S
        while time.perf_counter() < deadline and self.proc.poll() is None:
            status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="utf-8")
            for line in status.splitlines():
                if line.startswith("SigCgt:") and int(line.split()[1], 16) & bit:
                    return
            time.sleep(0.001)

    def kill(self) -> None:
        """Hard stop (error paths); waits until the process has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._drain.join(timeout=STOP_TIMEOUT_S)


def parse_net_stats(stderr_lines: List[str]) -> Dict[str, int]:
    """The server's final ``net stats:`` counters, identity-checked."""
    lines = [l for l in stderr_lines if l.startswith("net stats: ")]
    if not lines:
        raise ServerError("server printed no final 'net stats:' line")
    stats = json.loads(lines[-1][len("net stats: "):])
    if stats["received"] != stats["answered"] + stats["errors"] + stats["shed"]:
        raise ServerError(
            "accounting identity broken: received "
            f"{stats['received']} != answered {stats['answered']} + errors "
            f"{stats['errors']} + shed {stats['shed']}"
        )
    return stats
