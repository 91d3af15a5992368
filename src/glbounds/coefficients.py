"""Closed-form coefficients of the lambda-parameterized error bound.

All four quantities are absolute-kernel integrals over a half period and
have two algebraic branches meeting continuously at lambda = 1/2 (the Low
branch covers lambda <= 1/2). The test suite verifies every branch against
the adaptive-quadrature oracle, so an algebra slip here cannot survive.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

__all__ = ["Regime", "CoefficientSet", "coefficient_set"]


class Regime(Enum):
    LOW = "Low"
    HIGH = "High"


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam!r}")


def _check_q(q: float) -> None:
    if not (q >= 1.0 and math.isfinite(q)):
        raise ValueError(f"q must be finite and >= 1, got {q!r}")


class CoefficientSet(NamedTuple):
    m: float  # integral of |t (t - lam)| over [0, 1/2]: the power-mean prefactor base
    a_coef: float  # integral of |t (t - lam)| / t: the weight of |f''(a)|^q in the first radical
    b_coef: float  # integral of |t (t - lam)| / (1 - t): the weight of |f''(b)|^q there
    c_q1: float  # the collapsed q = 1 coefficient, a_coef + b_coef
    regime: Regime


def _low(lam: float) -> tuple[float, float, float, float]:
    """(M, A, B, C_q1) for lam <= 1/2.

    A is (lam - 1/4)^2 + 1/16 in disguise, so positive. Here 1 - lam >= 1/2,
    so the log argument 2 (1 - lam)^2 >= 1/2 is safe.
    """
    one_m = 1.0 - lam
    log_term = one_m * math.log(2.0 * one_m * one_m)
    return (
        lam**3 / 3.0 + (1.0 - 3.0 * lam) / 24.0,
        lam * lam - (4.0 * lam - 1.0) / 8.0,
        log_term + (20.0 * lam - 8.0 * lam * lam - 5.0) / 8.0,
        log_term + (16.0 * lam - 4.0) / 8.0,
    )


def _high(lam: float) -> tuple[float, float, float, float]:
    """(M, A, B, C_q1) for lam > 1/2."""
    return (
        (3.0 * lam - 1.0) / 24.0,
        (4.0 * lam - 1.0) / 8.0,
        (5.0 - 4.0 * lam) / 8.0 - (lam - 1.0) * math.log(0.5),
        (lam - 1.0) * math.log(2.0) + 0.5,
    )


def coefficient_set(lam: float) -> CoefficientSet:
    """All four coefficients plus the regime tag, with a consistency check."""
    _check_lambda(lam)
    regime = Regime.LOW if lam <= 0.5 else Regime.HIGH
    m, a, b, c = _low(lam) if regime is Regime.LOW else _high(lam)
    if abs(c - (a + b)) > 1e-12:
        raise RuntimeError(
            f"coefficient inconsistency at lambda={lam!r}: total {c!r} vs a+b {a + b!r}"
        )
    return CoefficientSet(m, a, b, c, regime)
