"""Check that the benchmark itself is deterministic.

For each workload: two traced runs with the same seed must produce identical
argv lists, identical outputs and identical work counters, and inside each run
the traced pass must reproduce the untraced pass byte for byte. A second,
held-out seed must also run clean (correct, and its counters well formed).
Untraced runs of the two seeds must attempt the same number of requests and
fail the same number, so that sets of runs with different seeds agree.

Usage (from the repository root):

    python3 bench/selfcheck.py

Exits 0 when every check holds, 1 otherwise. Takes about ten minutes: each
traced run executes its workload's first cycle twice, and each untraced run
three cycles.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("membership", "identity", "edge")
SEED = 1
HELD_OUT = 7919
# counters that must repeat exactly; times and the overhead ratio may not
DETERMINISTIC = [name for name, (unit, _) in LAYER_METRICS.items()
                 if unit == "count" or name.endswith("distinct_ratio")]


def bench_run(workload: str, seed: int, trace: int = 1) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    info = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    return info, json.loads(lines[-1])


def check(workload: str) -> list[str]:
    problems = []
    info_a, res_a = bench_run(workload, SEED)
    info_b, res_b = bench_run(workload, SEED)
    for key in ("argv_sha256", "output_sha256"):
        if info_a[key] != info_b[key]:
            problems.append(f"{key} differs between two runs of seed {SEED}")
    for name in DETERMINISTIC:
        a, b = res_a["metrics"][name]["value"], res_b["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} != {b} for seed {SEED}")
    if (res_a["attempted"], res_a["failed"]) != (res_b["attempted"], res_b["failed"]):
        problems.append("attempted/failed differ between two runs of the same seed")
    info_h, res_h = bench_run(workload, HELD_OUT)
    for label, info, res in (("seed", info_a, res_a), ("held-out seed", info_h, res_h)):
        if not res["correct"] or info.get("traced_equals_untraced") != "True":
            problems.append(f"{label}: traced pass differs from untraced pass")
    if info_h["argv_sha256"] == info_a["argv_sha256"]:
        problems.append("held-out seed produced the same requests")
    counts = []
    for seed in (SEED, HELD_OUT):
        _, res = bench_run(workload, seed, trace=0)
        counts.append((res["attempted"], res["failed"]))
    if counts[0] != counts[1]:
        problems.append(f"untraced attempted/failed depend on the seed: {counts}")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check(workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
