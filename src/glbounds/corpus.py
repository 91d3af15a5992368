"""Built-in catalogue of test functions shared by the suites and the CLI."""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .quadrature import Interval

__all__ = ["ExpectedMembership", "CorpusEntry", "corpus_entries"]


class ExpectedMembership(Enum):
    CERTIFIED = "Certified"  # proof-backed: constant or nonnegative-convex |f''|
    EXPECT_PASS = "Expect-Pass"  # grid scan expected to find no violation
    EXPECT_FAIL = "Expect-Fail"  # grid scan expected to find a violation at q = 1


class CorpusEntry(NamedTuple):
    name: str
    expression: str
    interval: Interval
    membership: ExpectedMembership
    note: str


_ENTRIES = (
    CorpusEntry(
        "quadratic",
        "x^2",
        Interval(0.0, 1.0),
        ExpectedMembership.CERTIFIED,
        "constant second derivative; exact-bound algebra case",
    ),
    CorpusEntry(
        "quartic",
        "x^4",
        Interval(0.0, 1.0),
        ExpectedMembership.CERTIFIED,
        "nonnegative convex second derivative 12 x^2",
    ),
    CorpusEntry(
        "exponential",
        "exp(x)",
        Interval(0.0, 1.0),
        ExpectedMembership.CERTIFIED,
        "monotone convex second derivative; generic case",
    ),
    CorpusEntry(
        "cosh",
        "(exp(x)+exp(-x))/2",
        Interval(-1.0, 1.0),
        ExpectedMembership.CERTIFIED,
        "even function on a symmetric interval; exercises symmetry invariants",
    ),
    CorpusEntry(
        "reciprocal",
        "1/(x+2)",
        Interval(0.0, 1.0),
        ExpectedMembership.EXPECT_PASS,
        "positive decreasing second derivative 2/(x+2)^3; passes the grid scan",
    ),
    CorpusEntry(
        "sine",
        "sin(x)",
        Interval(0.000001, 3.141592),
        ExpectedMembership.EXPECT_FAIL,
        "|f''| = sin vanishes at both ends, so combining near-endpoint points "
        "with an interior one violates the defining inequality; interval starts "
        "at 1e-6 to keep the open-interval reading unambiguous",
    ),
)


def corpus_entries() -> tuple[CorpusEntry, ...]:
    """Immutable catalogue covering constant, convex, symmetric and failing cases."""
    return _ENTRIES
