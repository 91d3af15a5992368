"""In-process tracing of the glbounds layers, done from the benchmark only.

``Tracer.install()`` replaces each traced public function with a wrapper in
every ``glbounds`` module namespace that holds it, so calls made through the
callers' imports (and through intra-module globals such as
``verify_identity -> lhs_functional``) are seen. ``glbounds.expressions`` is
left alone: its evaluators recurse through their own module globals, and
wrapping those would count tree nodes instead of calls. The program source is
never modified; ``uninstall()`` puts the originals back.

Every wrapped call pushes a frame and, on return, adds its duration to its
parent's frame, so self time is span time minus the time of traced children.
Calls of the hot leaves (``evaluate``, ``evaluate_jet2``) are folded into
counters and self time; every other call is kept in memory as a span
(name, start, end, parent, request) and written out when the run ends.

Distinct ratios count distinct keys within one request, summed over requests,
divided by calls: they measure work a single CLI invocation repeats.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "bounds": ("evaluate_bound_report", "theorem_bound"),
    "kernel": ("lhs_functional", "rhs_identity", "verify_identity"),
    "coefficients": ("coefficient_set",),
    "qclass": ("check_godunova_levin", "membership_for_bound"),
    "quadrature": ("integrate", "integrate_piecewise"),
    "expressions": ("parse", "evaluate", "evaluate_jet2"),
}
FOLDED = {"expressions.evaluate", "expressions.evaluate_jet2"}
UNPATCHED_MODULES = {"glbounds.expressions"}

# metric name -> (unit, better), in report order
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _mod, _fns in TRACED.items():
    for _fn in _fns:
        if (_mod, _fn) != ("cli", "main"):
            LAYER_METRICS[f"{_mod}.{_fn}.calls"] = ("count", "lower")
        LAYER_METRICS[f"{_mod}.{_fn}.self_s"] = ("s", "lower")
for _name in (
    "qclass.check_godunova_levin.triples",
    "qclass.check_godunova_levin.g_evals",
    "quadrature.integrate.samples",
    "quadrature.integrate.max_samples",
    "quadrature.integrate.errors",
):
    LAYER_METRICS[_name] = ("count", "lower")
for _name in (
    "qclass.scan_distinct_ratio",
    "expressions.evaluate_jet2.distinct_ratio",
    "kernel.lhs_functional.distinct_ratio",
    "trace.overhead_ratio",
):
    LAYER_METRICS[_name] = ("ratio", "higher")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._frames: list[list] = []  # [time of traced children, span index]
        self._request = -1
        self._scan_q: float | None = None
        self._seen: dict[str, set] = defaultdict(set)  # keys in this request
        self._distinct: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def begin_request(self, index: int) -> None:
        self._request = index

    def end_request(self) -> None:
        for name, keys in self._seen.items():
            self._distinct[name] += len(keys)
            keys.clear()

    def _wrap(self, name: str, fn, before, after):
        """``before(args) -> (args, state)`` runs first; ``after(state, result)``
        runs last, with result None when the call raised."""
        frames, spans = self._frames, self.spans
        calls, self_s = self.calls, self.self_s
        keep_span = name not in FOLDED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = None
            if before is not None:
                args, state = before(args)
            parent = frames[-1] if frames else None
            frame = [0.0, len(spans) if keep_span else -1]
            if keep_span:
                spans.append(None)  # reserve the slot so parents precede children
            frames.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                frames.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if keep_span:
                    spans[frame[1]] = (
                        name, start, end, parent[1] if parent else -1, self._request
                    )
                if after is not None:
                    after(state, result)

        return wrapper

    def _hooks(self, name: str):
        counts, seen = self.counts, self._seen

        if name == "quadrature.integrate":
            def before(args):
                f, samples = args[0], [0]

                def counted(x):
                    samples[0] += 1
                    return f(x)

                return (counted, *args[1:]), samples

            def after(samples, result):
                n = samples[0]
                counts["quadrature.integrate.samples"] += n
                if n > counts["quadrature.integrate.max_samples"]:
                    counts["quadrature.integrate.max_samples"] = n
                if result is None:
                    counts["quadrature.integrate.errors"] += 1

            return before, after
        if name == "qclass.check_godunova_levin":
            def before(args):
                g = args[0]

                def counted(x):
                    counts["qclass.check_godunova_levin.g_evals"] += 1
                    return g(x)

                grid_n = args[2] if len(args) > 2 else None
                seen["qclass.scan"].add((args[1], grid_n, self._scan_q))
                counts["qclass.scan"] += 1
                return (counted, *args[1:]), None

            def after(_state, report):
                if report is not None:
                    counts["qclass.check_godunova_levin.triples"] += report.samples_checked

            return before, after
        if name == "qclass.membership_for_bound":
            def before(args):
                self._scan_q = args[2]
                return args, None

            def after(_state, _report):
                self._scan_q = None

            return before, after
        if name == "expressions.evaluate_jet2":
            jets = seen[name]

            def before(args):
                jets.add((id(args[0]), args[1]))
                return args, None

            return before, None
        if name == "kernel.lhs_functional":
            def before(args):
                iv = args[1]
                seen[name].add((id(args[0]), iv.a, iv.b))
                return args, None

            return before, None
        return None, None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("glbounds.") and n not in UNPATCHED_MODULES]
        for mod_name, fn_names in TRACED.items():
            home = importlib.import_module(f"glbounds.{mod_name}")
            for fn_name in fn_names:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    # a dropped or renamed layer must change the benchmark, not
                    # read as a layer that costs nothing
                    raise LookupError(f"traced function glbounds.{mod_name}.{fn_name} is missing")
                name = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(name, orig, *self._hooks(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                name = f"{mod_name}.{fn_name}"
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)

        def ratio(distinct: int, total: int) -> float:
            return distinct / total if total else 1.0  # no calls, nothing repeated

        out["qclass.scan_distinct_ratio"] = ratio(
            self._distinct["qclass.scan"], self.counts.get("qclass.scan", 0)
        )
        for name in ("expressions.evaluate_jet2", "kernel.lhs_functional"):
            out[f"{name}.distinct_ratio"] = ratio(self._distinct[name], self.calls.get(name, 0))
        out["trace.overhead_ratio"] = overhead_ratio
        return {key: out.get(key, 0) for key in LAYER_METRICS}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                    "folded": {n: [self.calls[n], self.self_s[n]] for n in sorted(FOLDED)},
                },
                fh,
            )
