"""Clamped intervals.

A closed interval [a,b] is clamped when everything above a is comparable to b
and everything below b is comparable to a.  Clamped intervals are where the
representation theory of the subinterval embeds transparently into that of
the ambient poset, so detecting them drives most of this package.
"""

from __future__ import annotations

from .errors import NotComparable
from .poset import Interval, Poset


class ClampedWitness:
    __slots__ = ("interval", "violations")

    def __init__(self, interval: Interval, violations: tuple[tuple[int, str], ...]) -> None:
        self.interval = interval
        self.violations = violations

    @property
    def clamped(self) -> bool:
        return not self.violations


def is_clamped(P: Poset, a: int, b: int) -> ClampedWitness:
    """Check the two clamping implications, reporting offenders."""
    if not P.leq(a, b):
        raise NotComparable(f"{P.names[a]!r} is not below {P.names[b]!r}")
    violations: list[tuple[int, str]] = []
    for x in P.sorted_ids(P.elements()):
        if P.leq(a, x) and not (P.leq(x, b) or P.leq(b, x)):
            violations.append((x, "above-low-incomparable-to-high"))
        elif P.leq(x, b) and not (P.leq(a, x) or P.leq(x, a)):
            violations.append((x, "below-high-incomparable-to-low"))
    return ClampedWitness(Interval(a, b), tuple(violations))


def enumerate_clamped(P: Poset) -> list[Interval]:
    """All clamped closed intervals, in linear-extension order."""
    order = P.linear_extension()
    out = []
    for a in order:
        for b in order:
            if P.leq(a, b) and is_clamped(P, a, b).clamped:
                out.append(Interval(a, b))
    return out
