"""Run one workload in this (fresh) process and print one JSON result line.

Closed loop, one client, no threads: each request calls
``glbounds.cli.main(argv)`` with stdout and stderr captured and is timed from
call to return. Scoring happens between requests, outside the timed region.

Untraced (``--trace 0``): the fixed requests, then a number of whole cycles
fixed by the workload and ``--seconds`` (about ``--seconds`` of requests on
the reference host), so a seed always runs the same requests and the same
failures. Throughout the run a timer signal runs the reference of
``hostspeed.py`` in bursts, also inside requests, and each request's time is
scaled by the host's speed while it ran (see ``Scaler``); unscaled figures
are printed above the result.
Traced (``--trace 1``): the fixed requests and the first cycle, once
untraced and once traced, so counters repeat exactly for a given seed and the
two passes can be compared request by request.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Traced runs write their spans to ``bench/out/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import glbounds.cli as cli  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

# seconds of requests in one cycle on the reference host, scaled
CYCLE_S = {"membership": 17.0, "identity": 0.68, "edge": 1.2}
# at least three cycles give membership, with 20 requests of 0.15 to 3 s per
# cycle, a tail (10 requests beyond it) that does not hinge on one request kind
MIN_CYCLES = 3
BURST_EVERY_S = 0.1  # wall-clock period of the reference bursts
MIN_INSIDE = 5  # a request with this many bursts inside it is scaled by them
WINDOW_S = 1.0  # otherwise the bursts this close to it set its speed


def call(argv: list[str]) -> tuple[tuple[float, float], int | None, str, str, str | None]:
    """Run one request; returns ((start, end), exit code or None on crash, out, err, file)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed request, not a harness error
            rc = None
            traceback.print_exc()
        end = time.perf_counter()
    out_text = None
    if argv[0] == "sweep":
        path = argv[argv.index("--out") + 1]
        with contextlib.suppress(FileNotFoundError):
            with open(path, encoding="utf-8", newline="") as fh:
                out_text = fh.read()
            os.remove(path)
    return (start, end), rc, out.getvalue(), err.getvalue(), out_text


class Pass:
    """Latencies, failures and an output digest for one sequence of requests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failures: dict[str, int] = {}
        self.digest = hashlib.sha256()
        self.argv_digest = hashlib.sha256()

    def run(self, argv: list[str], tracer: Tracer | None = None) -> tuple:
        """Time one request; returns its (exit code, out, err, file) for ``score``."""
        if tracer is not None:
            tracer.begin_request(len(self.latencies))
        span, *output = call(argv)
        if tracer is not None:
            tracer.end_request()
        self.spans.append(span)
        self.latencies.append(span[1] - span[0])
        self.argv_digest.update(json.dumps(argv).encode())
        self.digest.update(json.dumps(output).encode())
        return tuple(output)

    def score(self, argv: list[str], output: tuple) -> None:
        reason = checks.score(argv, *output)
        if reason is not None:
            key = f"{argv[0]}: {reason}"
            self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class Scaler:
    """Reference bursts on a timer throughout the run, and request times scaled
    by them.

    Every ``BURST_EVERY_S`` of wall time a SIGALRM handler times one burst of
    the reference, inside a request or between requests. A request's own time
    is its span less the bursts inside it. It is multiplied by
    ``REFERENCE_S`` over the median of the bursts inside it, if there are
    ``MIN_INSIDE`` of them, or else of those within ``WINDOW_S`` of it: its
    time on the reference host at the reference speed.
    """

    def __init__(self) -> None:
        self.bursts: list[tuple[float, float]] = []  # (start, seconds)

    def _burst(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        self.bursts.append((start, hostspeed.burst()))

    def __enter__(self) -> Scaler:
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, BURST_EVERY_S, BURST_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Each request's own seconds, unscaled and scaled."""
        starts = [start for start, _ in self.bursts]
        own, scaled = [], []
        for start, end in spans:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            inside = [took for _, took in self.bursts[lo:hi]]
            if len(inside) < MIN_INSIDE:
                lo = bisect.bisect_left(starts, start - WINDOW_S)
                hi = bisect.bisect_right(starts, end + WINDOW_S)
                near = [took for _, took in self.bursts[lo:hi]]
            else:
                near = inside
            own.append(end - start - sum(inside))
            scaled.append(own[-1] * hostspeed.REFERENCE_S / statistics.median(near))
        return own, scaled

    def speed(self) -> float:
        """Reference time over the median burst of the run."""
        return hostspeed.REFERENCE_S / statistics.median(t for _, t in self.bursts)


UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with exactly 10 samples beyond it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    tail_s, _ = tail(latencies)  # every run has more than ten requests
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_s}


def untraced(workload: str, seed: int, seconds: float) -> dict:
    fixed, cycles = workloads.requests(workload, seed)
    cycle_count = max(MIN_CYCLES, round(seconds / CYCLE_S[workload]))
    argvs = fixed + [argv for _ in range(cycle_count) for argv in next(cycles)]
    p = Pass()
    with Scaler() as scaler:
        for argv in argvs:
            p.score(argv, p.run(argv))
    own, scaled = scaler.scale(p.spans)
    n = len(argvs)
    metrics = {k: (v, UNITS[k]) for k, v in latency_metrics(scaled).items()}
    metrics["success_ratio"] = ((n - p.failed) / n, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    _, tail_pct = tail(scaled)
    info = {"requests": n, "cycles": cycle_count, "busy_s": sum(own),
            "latency_tail": f"p{tail_pct:.2f} of {n} requests",
            "host_speed": f"{scaler.speed():.4f} of the reference ({len(scaler.bursts)} bursts)"}
    for k, v in latency_metrics(own).items():
        info[f"unscaled {k}"] = v
    return {"correct": True, "attempted": n, "failed": p.failed, "metrics": metrics,
            "info": info, "failures": p.failures}


def traced(workload: str, seed: int) -> dict:
    fixed, cycles = workloads.requests(workload, seed)
    argvs = fixed + next(cycles)
    plain = Pass()
    for argv in argvs:
        plain.run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = Pass()
        outputs = [with_trace.run(argv, tracer) for argv in argvs]
    finally:
        tracer.uninstall()
    # scored only now: the checks call library functions the tracer would count
    for argv, output in zip(argvs, outputs):
        with_trace.score(argv, output)
    tracer.write_spans(os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.json"))
    same = (plain.argv_digest.digest() == with_trace.argv_digest.digest()
            and plain.digest.digest() == with_trace.digest.digest())
    overhead = sum(plain.latencies) / sum(with_trace.latencies)
    metrics = {k: (v, LAYER_METRICS[k][0]) for k, v in tracer.metrics(overhead).items()}
    n = len(argvs)
    return {
        "correct": same,
        "attempted": n,
        "failed": with_trace.failed,
        "metrics": metrics,
        "info": {
            "requests": n,
            "argv_sha256": with_trace.argv_digest.hexdigest(),
            "output_sha256": with_trace.digest.hexdigest(),
            "traced_equals_untraced": same,
            "spans": len(tracer.spans),
        },
        "failures": with_trace.failures,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="run-", dir=os.getcwd()) as scratch:
        os.chdir(scratch)  # sweep --out files land here
        call(["coeffs", "--lambda", "0.5"])  # warm-up: lazy imports and caches
        # a CLI process starts with a small heap; keep the harness's own objects
        # out of the collections that run inside timed requests
        gc.collect()
        gc.freeze()
        if args.trace:
            result = traced(args.workload, args.seed)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
        os.chdir(os.path.dirname(scratch))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
