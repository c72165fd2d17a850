"""Exact-arithmetic Auslander-Reiten theory for finite poset incidence algebras."""

from .clamped import ClampedWitness, enumerate_clamped, is_clamped
from .homalg import (
    LabeledComplex,
    coinduce,
    ext,
    induce,
    min_injective_resolution,
    min_projective_resolution,
    tau,
    tau_inverse,
    transpose_dual_tau,
)
from .ictree import (
    ICNode,
    TreeClass,
    TreeShape,
    build_tree,
    classify_tree,
    finite_type_criterion,
    ic_decompose,
    ic_plus_decompose,
    tree_to_poset,
)
from .knit import ARComponent, ar_sequence_end, embed_in_ZT, knit
from .linalg import Field, Mat, QQ
from .poset import Interval, Poset, chain, parse_poset
from .rep import (
    Morphism,
    Representation,
    constant_on,
    direct_sum,
    dualize,
    hom,
    hom_dim,
    injective,
    is_isomorphic,
    projective,
    radical,
    restrict,
    simple,
    socle,
    top,
)
from .slices import SliceData, standard_slice, verify_slice
from .split import is_indecomposable, split_indecomposables
from .witness import is_fractionally_cy, not_fcy_witness

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
