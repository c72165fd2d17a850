"""Clamped intervals.

A closed interval [a,b] is clamped when everything above a is comparable to b
and everything below b is comparable to a.  Clamped intervals are where the
representation theory of the subinterval embeds transparently into that of
the ambient poset, so detecting them drives most of this package.
"""

from __future__ import annotations

from .errors import NotComparable
from .poset import Interval, Poset, _bits


class ClampedWitness:
    __slots__ = ("interval", "violations")

    def __init__(self, interval: Interval, violations: tuple[tuple[int, str], ...]) -> None:
        self.interval = interval
        self.violations = violations

    @property
    def clamped(self) -> bool:
        return not self.violations


def is_clamped(P: Poset, a: int, b: int) -> ClampedWitness:
    """Check the two clamping implications, reporting offenders in linear-extension order."""
    if not P.leq(a, b):
        raise NotComparable(f"{P.names[a]!r} is not below {P.names[b]!r}")
    above = P.up[a] & ~(P.up[b] | P.down[b])
    below = P.down[b] & ~(P.up[a] | P.down[a])
    violations = tuple(
        (x, "above-low-incomparable-to-high" if above >> x & 1
         else "below-high-incomparable-to-low")
        for x in P.sorted_ids(_bits(above | below))
    )
    return ClampedWitness(Interval(a, b), violations)


def enumerate_clamped(P: Poset) -> list[Interval]:
    """All clamped closed intervals, in linear-extension order."""
    order = P.linear_extension()
    out = []
    for a in order:
        for b in order:
            if P.leq(a, b) and is_clamped(P, a, b).clamped:
                out.append(Interval(a, b))
    return out
