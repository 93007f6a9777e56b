"""Timed ops, the phase clock, CLI processes and referee verdicts.

An op is one library call or one CLI process. An op fails when it raises,
when its CLI process exits with the wrong status or payload, or when an
input it needs came from a failed op. Referees run with the phase clock
paused and tracing off; their verdicts decide `correct`, never `failed`.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _Failed:
    def __repr__(self):
        return "FAILED"


FAILED = _Failed()


class Recorder:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.cli_seconds: list[float] = []
        self.failures: list[str] = []
        self.rejections: list[str] = []
        self._paused = 0.0
        self._start = None

    # -- the phase clock ----------------------------------------------------

    def start(self) -> None:
        self._start = time.perf_counter()

    def phase_seconds(self) -> float:
        return time.perf_counter() - self._start - self._paused

    @contextmanager
    def paused(self):
        """Benchmark-side work: off the phase clock and out of the trace."""
        t0 = time.perf_counter()
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if traced:
                self.tracer.enabled = True
            self._paused += time.perf_counter() - t0

    # -- ops ----------------------------------------------------------------

    def _record(self, kind: str, label: str, seconds: float, cause: str | None) -> None:
        self.latencies.append(seconds)
        self.ok.append(cause is None)
        if cause is not None:
            self.failures.append(f"{kind} [{label}]: {cause}")

    def op(self, kind: str, label: str, fn, *args):
        """Run fn(*args) as one op; FAILED when it raises or an input failed."""
        if any(a is FAILED for a in args):
            self._record(kind, label, 0.0, "input from a failed step")
            return FAILED
        sid = self.tracer.op_open(kind) if self.tracer is not None and self.tracer.enabled else None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
            cause = None
        except (RecursionError, MemoryError) as exc:
            result, cause = FAILED, type(exc).__name__
        except Exception as exc:  # any other crash is an op failure, recorded with its cause
            result, cause = FAILED, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if sid is not None:
            self.tracer.close(sid)
        self._record(kind, label, seconds, cause)
        return result

    def expect(self, kind: str, label: str, fn, *args):
        """An op whose raised exception is the expected answer (returned, not failed)."""
        def call(*a):
            try:
                fn(*a)
            except Exception as exc:
                return exc
            raise AssertionError("expected an exception, got a result")
        return self.op(kind, label, call, *args)

    def cli(self, label: str, argv: list[str], want_status: int, needs=()):
        """One `python -m cographpart.cli` process; returns its JSON payload lines."""
        if any(a is FAILED for a in needs):
            self._record("cli", label, 0.0, "input from a failed step")
            return FAILED
        sid = self.tracer.op_open("cli") if self.tracer is not None and self.tracer.enabled else None
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "cographpart.cli", *argv],
                              cwd=ROOT, env=cli_env(), capture_output=True, text=True)
        seconds = time.perf_counter() - t0
        if sid is not None:
            self.tracer.close(sid)
        self.cli_seconds.append(seconds)
        cause = None
        payload = FAILED
        if proc.returncode != want_status:
            last = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            cause = f"exit {proc.returncode}, expected {want_status} ({last[0][:120]})"
        else:
            try:
                payload = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
            except json.JSONDecodeError:
                cause = "stdout is not JSON lines"
        self._record("cli", label, seconds, cause)
        return FAILED if cause else payload

    # -- referee verdicts ---------------------------------------------------

    def judge(self, what: str, error: str | None) -> None:
        if error is not None:
            self.rejections.append(f"{what}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def median_process_ms(argv: list[str], runs: int) -> float:
    """Median wall time of a short process, in ms."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=cli_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]
