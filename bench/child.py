"""One workload run in a fresh interpreter; started by run.py.

    python3 bench/child.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set up, report the time set-up ended, exit), `measure`
(set up, then timed passes until S seconds of phase time have run, whole
passes only), `once` (exactly one pass), or `traced` (one pass with every
public library function wrapped in a span). The last line of stdout is
one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time

from harness import ROOT, Recorder, median_process_ms

WALL_LIMIT = 110.0   # seconds after start: begin no further pass


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "once", "traced"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import cographpart
    if not cographpart.__file__.startswith(str(ROOT / "src")):
        print(f"imported cographpart from {cographpart.__file__}, not from src/", file=sys.stderr)
        return 2
    import referees
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    inputs = workload.make_inputs(0)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer() if args.mode == "traced" else None
    rec = Recorder(tracer)
    if tracer is not None:
        tracer.install()
    rec.start()
    passes = 0
    while True:
        workload.run_pass(inputs, rec)
        passes += 1
        if (args.mode != "measure" or rec.phase_seconds() >= args.seconds
                or time.monotonic() - started > WALL_LIMIT):
            break
        with rec.paused():
            inputs = workload.make_inputs(passes)
    phase = rec.phase_seconds()
    if tracer is not None:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probe = Recorder()
    workload.probes(probe)
    shutil.rmtree(workload.work, ignore_errors=True)
    failed_self_tests = referees.self_test()
    census = workload.census(inputs)

    result = {
        "ready": ready, "passes": passes, "phase_s": phase, "peak_rss_kb": peak_kb,
        "latencies": rec.latencies, "ok": rec.ok, "cli": rec.cli_seconds,
        "failures": rec.failures, "rejections": rec.rejections + probe.rejections,
        "probe_attempted": probe.attempted, "probe_failures": probe.failures,
        "self_test_failures": failed_self_tests, "census": census,
    }
    if tracer is not None:
        layers = tracer.metrics()
        python = sys.executable
        interpreter = median_process_ms([python, "-c", "pass"], 5)
        imported = median_process_ms([python, "-c", "import cographpart.cli"], 5)
        layers["cli.interpreter_ms"] = interpreter
        layers["cli.import_ms"] = imported - interpreter
        layers["cli.work_ms"] = 1e3 * statistics.median(rec.cli_seconds) - imported
        spans = ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans))
        result["layers"] = layers
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
