"""glbounds benchmark: one workload run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload membership|identity|edge --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics: ``ops_per_s``,
``latency_p50_ms``, ``latency_tail_ms`` (the latency with ten samples beyond
it; its percentile and sample count are printed above the result),
``success_ratio`` (1 - failed/attempted), ``peak_rss_mb`` of the process that
ran the workload, and ``setup_s``, the median time a fresh interpreter takes
to import ``glbounds.cli`` and give its first answer (parser built).
Times are scaled to the reference speed of ``bench/hostspeed.py``, timed in
bursts throughout the worker's run and in each set-up probe; the unscaled
figures are printed above the result.
With ``--trace 1`` it reports the per-layer metrics of ``bench/tracer.py``.

Each run starts a fresh worker process (``bench/worker.py``), so no cached
state crosses runs and peak memory is that run's own. The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``. ``correct`` is false when
the run could not vouch for its own measurement (traced and untraced outputs
differ); wrong program outputs are counted in ``failed``. Spans of traced
runs go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("membership", "identity", "edge")
RUN_LIMIT_S = 175.0
SETUP_PROBES = 11

# Runs in a fresh interpreter: reference bursts, then the timed import and
# first answer, then more bursts. It imports nothing before glbounds that
# glbounds might import itself, apart from the builtins time and math.
_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
bursts = [hostspeed.burst() for _ in range(5)]
start = time.perf_counter()
import contextlib, io
from glbounds.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["coeffs", "--lambda", "0.5"])
took = time.perf_counter() - start
bursts += [hostspeed.burst() for _ in range(5)]
print(took, *bursts)
"""


def setup_seconds() -> tuple[float, float]:
    """Median over fresh interpreters of the time to import ``glbounds.cli`` and
    answer one request, each scaled by the reference bursts around it in the
    same interpreter; and the unscaled median."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, SRC, HERE],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        took, *bursts = map(float, done.stdout.split())
        if i:  # the first probe also writes bytecode caches
            raw.append(took)
            scaled.append(took * hostspeed.REFERENCE_S / statistics.median(bursts))
    return statistics.median(scaled), statistics.median(raw)


def main() -> int:
    ap = argparse.ArgumentParser(description="glbounds benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "glbounds", "cli.py")):
        print(f"error: no glbounds sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    setup, setup_raw = setup_seconds() if not args.trace else (None, None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=OUT, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: worker exceeded the run time limit", file=sys.stderr)
        return 3
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited {done.returncode}", file=sys.stderr)
        return 3
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        result["info"]["unscaled setup_s"] = setup_raw
    for key, value in result["info"].items():
        print(f"{key}: {value}")
    for reason, count in sorted(result["failures"].items()):
        print(f"failed {count}x {reason}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
