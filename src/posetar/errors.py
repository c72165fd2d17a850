"""Error hierarchy shared by all posetar modules."""

from __future__ import annotations


class PosetarError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class DuplicateElement(PosetarError):
    code = "duplicate-element"


class UnknownElement(PosetarError):
    code = "unknown-element"


class CycleDetected(PosetarError):
    code = "cycle-detected"


class NotComparable(PosetarError):
    code = "not-comparable"


class NotConvex(PosetarError):
    code = "not-convex"


class NotIndecomposable(PosetarError):
    code = "not-indecomposable"


class IsProjective(PosetarError):
    code = "is-projective"


class SplitFailure(PosetarError):
    code = "split-failure"


class MeshMismatch(PosetarError):
    code = "mesh-mismatch"


class NotEmbeddable(PosetarError):
    code = "not-embeddable"


class BranchTooClose(PosetarError):
    code = "branch-too-close"


class NotExtreme(PosetarError):
    code = "not-extreme"


class ParseError(PosetarError):
    code = "parse-error"
