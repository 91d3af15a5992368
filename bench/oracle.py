"""Reference answers that do not depend on the program under test.

E(lambda, f) is computed from closed-form antiderivatives in 80-digit decimal
arithmetic, so cancellation at large offsets or tiny widths cannot hide in
the reference. Coefficients are coded here from their defining integrals,
independently of ``glbounds.coefficients``. Membership expectations come from
the catalogue labels and from short proofs recorded next to each family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable

from glbounds.corpus import ExpectedMembership, corpus_entries

PREC = 80
_WORK = PREC + 40  # extra digits for argument reduction at offsets up to 1e8

Dec = Decimal
DecFn = Callable[[Decimal], Decimal]


def _pi() -> Decimal:
    # Machin: pi = 16 atan(1/5) - 4 atan(1/239)
    def atan_inv(n: int) -> Decimal:
        x = Dec(1) / n
        x2 = x * x
        term, total, k = x, x, 1
        eps = Dec(10) ** -(_WORK + 5)
        while abs(term) > eps:
            term *= -x2
            k += 2
            total += term / k
        return total

    with localcontext() as ctx:
        ctx.prec = _WORK + 10
        return 16 * atan_inv(5) - 4 * atan_inv(239)


_PI = _pi()


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    with localcontext() as ctx:
        ctx.prec = _WORK
        two_pi = 2 * _PI
        r = x - (x / two_pi).to_integral_value() * two_pi
        eps = Dec(10) ** -(_WORK + 2)
        r2 = r * r
        s_term, c_term = r, Dec(1)
        s, c = s_term, c_term
        k = 1
        while abs(s_term) > eps or abs(c_term) > eps:
            c_term = -c_term * r2 / (k * (k + 1))
            s_term = -s_term * r2 / ((k + 1) * (k + 2))
            c += c_term
            s += s_term
            k += 2
    return +s, +c


def dsin(x: Decimal) -> Decimal:
    return _sin_cos(x)[0]


def dcos(x: Decimal) -> Decimal:
    return _sin_cos(x)[1]


Rule = Callable[..., bool | None]


@dataclass(frozen=True)
class ClosedForm:
    """f, an antiderivative F and f'' of one expression, with membership proofs.

    ``fn_rule(a, b, q)`` and ``g_rule(a, b)`` answer whether |f''|^q, and f
    itself, belong to the Godunova-Levin class on [a, b]; they return None where
    no short proof is recorded. ``g_rule`` None means |f| = |f''|, so f is a
    member exactly where |f''| is at q = 1.
    """

    f: DecFn
    antiderivative: DecFn
    d2: DecFn
    fn_rule: Rule
    g_rule: Rule | None


@dataclass(frozen=True)
class Family:
    """One test function: its catalogue data and its closed forms.

    ``label`` is the catalogue's membership label for |f''| on ``interval``
    (None for the composite, which is not in the catalogue).
    """

    name: str
    expression: str
    interval: tuple[float, float]
    label: bool | None
    form: ClosedForm

    def fn_member(self, a: float, b: float, q: float) -> bool | None:
        # On a window of width <= 1e-6, the |f''| of every family here is
        # monotone, V-shaped around a simple zero or x^2-shaped around a double
        # one (quasiconvex), or within a factor 1 + 1e-9 of an interior extremum
        # (max/min <= 4). Every nonnegative quasiconvex g, and every positive g
        # with max/min <= 4, is a member, because 1/t + 1/(1-t) >= 4.
        if b - a <= 1e-6:
            return True
        if (a, b) == self.interval and self.label is not None:
            return self.label
        return self.form.fn_rule(a, b, q)

    def g_member(self, a: float, b: float) -> bool | None:
        if self.form.g_rule is None:
            return self.fn_member(a, b, 1.0)
        return self.form.g_rule(a, b)


# The catalogue labels are stated for q = 1; each holds for every q >= 1 too.
# Certified: |f''| is nonnegative and convex, and so is its q-th power.
# Expect-Pass: 2/(x+2)^3 is positive and monotone, and so is its q-th power.
# Expect-Fail: |sin| vanishes near both ends of [1e-6, 3.141592], so a near-end
# pair and an interior point break the inequality for |sin|^q as well.
_LABELS = {
    ExpectedMembership.CERTIFIED: True,
    ExpectedMembership.EXPECT_PASS: True,
    ExpectedMembership.EXPECT_FAIL: False,
}


def _always(*_args: float) -> bool:
    return True


def _unknown(*_args: float) -> None:
    return None


def _in_unit(a: float, b: float) -> bool:
    return 0.0 <= a < b <= 1.0


def _composite_member_fn(a: float, b: float, q: float) -> bool | None:
    # f'' = 2 e^x cos x + 2/(x+2)^3 lies in [2.25, 3.2] on [0, 1]: max/min <= 1.43,
    # and 1.43^3 < 4, so |f''|^q is a member there for 1 <= q <= 3.
    return True if _in_unit(a, b) and q <= 3.0 else None


def _composite_member_g(a: float, b: float) -> bool | None:
    # f' = e^x (sin x + cos x) - 1/(x+2)^2 >= 1 - 1/4 on [0, 1]: positive increasing.
    return True if _in_unit(a, b) else None


def _positive_shift(a: float, b: float, *_q: float) -> bool | None:
    # 2/(x+2)^3 and 1/(x+2) are positive and monotone for x > -2.
    return True if a > -2.0 else None


# keyed by catalogue expression; the proofs cover intervals outside the catalogue
CLOSED_FORMS: dict[str, ClosedForm] = {
    "x^2": ClosedForm(
        lambda x: x * x, lambda x: x * x * x / 3, lambda x: Dec(2),
        _always, _always,  # constant 2, and x^2 is nonnegative and convex
    ),
    "x^4": ClosedForm(
        lambda x: x**4, lambda x: x**5 / 5, lambda x: 12 * x * x,
        _always, _always,  # (12 x^2)^q and x^4 are nonnegative and convex
    ),
    "exp(x)": ClosedForm(
        lambda x: x.exp(), lambda x: x.exp(), lambda x: x.exp(),
        _always, _always,  # e^(q x) is positive and convex
    ),
    "(exp(x)+exp(-x))/2": ClosedForm(
        lambda x: (x.exp() + (-x).exp()) / 2,
        lambda x: (x.exp() - (-x).exp()) / 2,
        lambda x: (x.exp() + (-x).exp()) / 2,
        _always, _always,  # cosh^q is positive and convex
    ),
    "1/(x+2)": ClosedForm(
        lambda x: 1 / (x + 2), lambda x: (x + 2).ln(), lambda x: 2 / (x + 2) ** 3,
        _positive_shift, _positive_shift,
    ),
    "sin(x)": ClosedForm(
        dsin, lambda x: -dcos(x), lambda x: -dsin(x),
        _unknown, None,  # no proof away from the catalogue interval
    ),
}

COMPOSITE = Family(
    "composite", "exp(x)*sin(x)+1/(x+2)", (0.0, 1.0), None,
    ClosedForm(
        lambda x: x.exp() * dsin(x) + 1 / (x + 2),
        lambda x: x.exp() * (dsin(x) - dcos(x)) / 2 + (x + 2).ln(),
        lambda x: 2 * x.exp() * dcos(x) + 2 / (x + 2) ** 3,
        _composite_member_fn, _composite_member_g,
    ),
)


def _catalogue_family(entry) -> Family:
    if entry.expression not in CLOSED_FORMS:
        raise LookupError(f"no closed form for catalogue entry {entry.name!r}")
    return Family(
        entry.name, entry.expression, (entry.interval.a, entry.interval.b),
        _LABELS[entry.membership], CLOSED_FORMS[entry.expression],
    )


FAMILIES: tuple[Family, ...] = (
    *(_catalogue_family(entry) for entry in corpus_entries()),
    COMPOSITE,
)

BY_EXPRESSION = {fam.expression: fam for fam in FAMILIES}


@functools.lru_cache(maxsize=512)
def _error_parts(expression: str, a: float, b: float) -> tuple[Decimal, Decimal, Decimal]:
    fam = BY_EXPRESSION[expression]
    with localcontext() as ctx:
        ctx.prec = PREC
        da, db = Dec(a), Dec(b)
        f, F = fam.form.f, fam.form.antiderivative
        return (
            f((da + db) / 2),
            (f(da) + f(db)) / 2,
            (F(db) - F(da)) / (db - da),
        )


def error_functional(fam: Family, lam: float, a: float, b: float) -> float:
    """E(lam, f) = (lam-1) f(m) - lam (f(a)+f(b))/2 + (F(b)-F(a))/(b-a), exactly.

    The float arguments are the values the program parses, converted to decimal
    without rounding; m is the exact midpoint. E is affine in lam, so the parts
    are cached per (f, a, b) and a sweep pays for them once.
    """
    f_mid, f_ends, mean = _error_parts(fam.expression, a, b)
    with localcontext() as ctx:
        ctx.prec = PREC
        dl = Dec(lam)
        return float((dl - 1) * f_mid - dl * f_ends + mean)


def abs_second_derivative(fam: Family, x: float) -> float:
    with localcontext() as ctx:
        ctx.prec = PREC
        return float(abs(fam.form.d2(Dec(x))))


@dataclass(frozen=True)
class Coefficients:
    m: float
    a: float
    b: float
    c_q1: float
    regime: str


@functools.lru_cache(maxsize=1024)
def coefficients(lam: float) -> Coefficients:
    """M, A, B and C_q1 from their defining integrals over t in [0, 1/2]:

    M = int |t (t - lam)|, A = int |t - lam|, B = int |t (t - lam)| / (1 - t),
    C_q1 = A + B. With G(t) an antiderivative of t (t - lam) / (1 - t), B is
    G(0) + G(1/2) - 2 G(lam) when lam <= 1/2 and G(0) - G(1/2) otherwise.
    """
    with localcontext() as ctx:
        ctx.prec = PREC
        L = Dec(lam)
        half = Dec(1) / 2

        def g(t: Decimal) -> Decimal:
            u = 1 - t
            return -(1 - L) * u.ln() + (2 - L) * u - u * u / 2

        if lam <= 0.5:
            m = L**3 / 6 + (half**3 / 3 - L * half**2 / 2) - (L**3 / 3 - L**3 / 2)
            a = L * L / 2 + (half - L) ** 2 / 2
            b = g(Dec(0)) + g(half) - 2 * g(L)
        else:
            m = L / 8 - Dec(1) / 24
            a = L / 2 - Dec(1) / 8
            b = g(Dec(0)) - g(half)
        return Coefficients(
            float(m), float(a), float(b), float(a + b), "Low" if lam <= 0.5 else "High"
        )


def theorem_bound(lam: float, q: float, a: float, b: float, g_a: float, g_b: float) -> float:
    """(w^2/2) M^(1-1/q) [(A ga^q + B gb^q)^(1/q) + (B ga^q + A gb^q)^(1/q)], coded
    from the paper's statement with the coefficients above."""
    c = coefficients(lam)
    inv_q = 1.0 / q
    ga_q, gb_q = g_a**q, g_b**q
    w = b - a
    bracket = (c.a * ga_q + c.b * gb_q) ** inv_q + (c.b * ga_q + c.a * gb_q) ** inv_q
    return 0.5 * w * w * c.m ** (1.0 - inv_q) * bracket


def close(printed: float, exact: float, rel: float, abs_tol: float) -> bool:
    return math.isfinite(printed) and abs(printed - exact) <= rel * abs(exact) + abs_tol
