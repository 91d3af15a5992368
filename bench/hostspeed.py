"""A fixed reference computation that measures how fast the host runs now.

Shared hosts drift: the same pure-Python loop takes up to twice as long for
seconds to minutes at a time, and CPU time tracks wall time, so the slowdown
is contention on the hardware, not waiting. A run therefore times this
reference in short bursts throughout, also inside requests, and scales each
request's time by ``REFERENCE_S / burst time`` of the bursts that ran while
it did (or, for a short request, close to it).

The reference does what the program does, in the benchmark's own code so that
no change to the program can move it: it walks a small expression tree with
second-order jets (function calls, tuples, float math and ``math`` calls)
inside an adaptive Simpson rule.

Usage: python3 bench/hostspeed.py   (prints burst times in ms)
"""

from __future__ import annotations

import math
import time

# a nominal burst time, within the 3 to 6 ms that medians take on a 2-vCPU
# Xeon VM with Python 3.11; scaled times read as on a host whose burst takes
# exactly this long
REFERENCE_S = 0.004

# exp(x)*sin(x) + 1/(x+2) as nested tuples: (op, left, right) or ("x",)
_TREE = ("+", ("*", ("exp", ("x",)), ("sin", ("x",))), ("/", ("c", 1.0), ("+", ("x",), ("c", 2.0))))


def _jet(node: tuple, x: float) -> tuple[float, float, float]:
    op = node[0]
    if op == "x":
        return x, 1.0, 0.0
    if op == "c":
        return node[1], 0.0, 0.0
    if op == "exp":
        u, du, d2u = _jet(node[1], x)
        e = math.exp(u)
        return e, e * du, e * (d2u + du * du)
    if op == "sin":
        u, du, d2u = _jet(node[1], x)
        s, c = math.sin(u), math.cos(u)
        return s, c * du, c * d2u - s * du * du
    a, da, d2a = _jet(node[1], x)
    b, db, d2b = _jet(node[2], x)
    if op == "+":
        return a + b, da + db, d2a + d2b
    if op == "*":
        return a * b, da * b + a * db, d2a * b + 2.0 * da * db + a * d2b
    q = a / b  # "/"
    dq = (da - q * db) / b
    return q, dq, (d2a - 2.0 * dq * db - q * d2b) / b


def _f(x: float) -> float:
    return abs(_jet(_TREE, x)[2])


def _simpson(a: float, b: float, fa: float, fm: float, fb: float, whole: float, depth: int) -> float:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = _f(lm), _f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth == 0 or abs(left + right - whole) < 1e-12:
        return left + right
    return (_simpson(a, m, fa, flm, fm, left, depth - 1)
            + _simpson(m, b, fm, frm, fb, right, depth - 1))


def _reference() -> float:
    a, b = 0.0, 3.0
    fa, fm, fb = _f(a), _f(1.5), _f(b)
    return _simpson(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), 9)


def burst() -> float:
    """Seconds one run of the reference takes now."""
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


if __name__ == "__main__":
    times = sorted(burst() for _ in range(200))
    print(f"min {1e3 * times[0]:.3f} ms, median {1e3 * times[100]:.3f} ms, "
          f"max {1e3 * times[-1]:.3f} ms")
