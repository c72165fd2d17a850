import ast
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import posetar
from conftest import random_ic_family, split_without_stop
from posetar.corpus import corpus_poset
from posetar.errors import SplitFailure
from posetar.knit import ar_sequence_end, knit
from posetar.linalg import QQ, Field, Mat
from posetar.poset import Poset, chain, parse_poset
from posetar.rep import (
    Representation,
    constant_on,
    direct_sum,
    hom_dim,
    is_isomorphic,
    projective,
    radical,
    simple,
)
from posetar.split import (
    _canonical_order,
    _thin_indecomposable,
    _has_root,
    _rational_roots,
    end_basis,
    is_indecomposable,
    split_indecomposables,
    split_once,
)

T = sympy.Symbol("t")
LINEAR = [T, T - 1, T + 1, T - 2, T + 3, 2 * T - 1, 3 * T - 2, 3 * T + 1, 2 * T + 3]
QUADRATIC = [T**2 + 1, T**2 - 2, T**2 + T + 1, 2 * T**2 - 3]


def test_projectives_indecomposable():
    P = corpus_poset("ex58-poset1")
    for x in P.elements():
        assert is_indecomposable(projective(P, x))
        parts = split_indecomposables(projective(P, x))
        assert len(parts) == 1 and parts[0][1] == 1


def test_diamond_three_summand_sum():
    P = corpus_poset("ex33-poset1")
    a, one, two = P.id_of("a"), P.id_of("1"), P.id_of("2")
    S = direct_sum([projective(P, a), simple(P, one), simple(P, two)])
    parts = split_indecomposables(S)
    assert sum(m for _, m in parts) == 3
    dims = sorted(tuple(r.dims) for r, _ in parts)
    assert dims == sorted([projective(P, a).dims, simple(P, one).dims, simple(P, two).dims])


def test_radical_of_largest_projective_indecomposable_ex57():
    P = corpus_poset("ex57")
    a, _ = P.unique_min_max()
    R, _ = radical(projective(P, a))
    assert is_indecomposable(R)


def test_square_multiplicity():
    P = chain(3)
    M = constant_on(P, P.closed_interval(P.id_of("1"), P.id_of("2")))
    S = direct_sum([M, M])
    parts = split_indecomposables(S)
    assert len(parts) == 1
    assert parts[0][1] == 2
    assert is_isomorphic(parts[0][0], M)


def test_split_is_deterministic():
    P = corpus_poset("ex33-poset2")
    a = P.id_of("a")
    R, _ = radical(projective(P, a))
    S = direct_sum([R, simple(P, P.id_of("4")), projective(P, P.id_of("2"))])
    first, second = split_indecomposables(S), split_indecomposables(S)
    assert [(r.to_json(), m) for r, m in first] == [(r.to_json(), m) for r, m in second]
    assert sum(m for _, m in first) == 3


def _conjugated_at_omega(P, M, rows):
    """M with the basis at the maximum omega changed by the matrix rows."""
    w = P.id_of("omega")
    T = Mat(M.field, rows, M.dims[w], M.dims[w])
    return Representation(P, M.field, M.dims, {c: T.mul(m) if c[1] == w else m for c, m in M.maps.items()})


def test_split_at_a_nonzero_root_over_gf5():
    # every End basis element of this A + B is invertible, so r = 0 alone
    # splits nothing; f - r at a GF(5) eigenvalue r does
    P, F = corpus_poset("star-2-2"), Field(5)
    A, B = (projective(P, P.id_of(x), F) for x in ("c1_2", "c2_2"))
    M = _conjugated_at_omega(P, direct_sum([A, B]), [[1, 1], [1, 2]])
    assert all(f.is_isomorphism() for f in end_basis(M))
    parts = split_indecomposables(M)
    assert [m for _, m in parts] == [1, 1]
    for X in (A, B):
        assert [is_isomorphic(part, X) for part, _ in parts if part.dims == X.dims] == [True]


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_conjugated_n_plus_n_splits_into_n_twice(field):
    P = corpus_poset("star-2-2")
    N = projective(P, P.id_of("alpha"), field)
    parts = split_indecomposables(_conjugated_at_omega(P, direct_sum([N, N]), [[1, 2], [3, 4]]))
    assert len(parts) == 1 and parts[0][1] == 2 and is_isomorphic(parts[0][0], N)


def test_no_module_imports_random():
    # splitting is deterministic: nothing in the package may draw on a PRNG
    for path in Path(posetar.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "random" not in (a.name.split(".")[0] for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "random", path.name


def test_dimension_accounting():
    P = corpus_poset("ex58-poset2")
    a, _ = P.unique_min_max()
    R, _ = radical(projective(P, a))
    S = direct_sum([R, R])
    parts = split_indecomposables(S)
    total = [0] * P.n
    for rep, mult in parts:
        for x in P.elements():
            total[x] += mult * rep.dims[x]
    assert tuple(total) == S.dims


def monic(expr):
    """sympy's monic Poly of expr and its Fraction coefficients, lowest degree first."""
    poly = sympy.Poly(expr, T, domain="QQ").monic()
    return poly, [Fraction(str(c)) for c in reversed(poly.all_coeffs())]


def test_rational_roots_match_sympy():
    rng = random.Random(7)
    for _ in range(200):
        factors = rng.sample(LINEAR, rng.randint(1, 3)) + rng.sample(QUADRATIC, rng.randint(0, 2))
        poly, coeffs = monic(sympy.Mul(*(f ** rng.randint(1, 3) for f in factors)))
        want = {Fraction(str(r)) for r in sympy.roots(poly) if r.is_rational}
        got = _rational_roots(coeffs)
        assert len(got) == len(set(got)) and set(got) == want, poly
        assert got == sorted(got, key=lambda r: (abs(r), -r))


def test_rational_roots_of_rootless_products_are_empty():
    rng = random.Random(8)
    for _ in range(20):
        factors = rng.sample(QUADRATIC, rng.randint(1, 3))
        _, coeffs = monic(sympy.Mul(*(f ** rng.randint(1, 2) for f in factors)))
        assert _rational_roots(coeffs) == []


def _four_subspace_module(field=QQ):
    """M_J: four minimal elements below one maximum w, V = k^2 + k^2 at w and
    the subspaces k^2 + 0, 0 + k^2, graph(I) and graph(J) with J^2 = -1.
    Its endomorphisms are diag(A, A) with A in k[J], so End(M_J) = Q(i) over
    Q, and GF(p^2) over GF(p) for p = 3 mod 4."""
    P = Poset(["m1", "m2", "m3", "m4", "w"], [(i, 4) for i in range(4)], name="four-subspace")
    spans = [
        [[1, 0], [0, 1], [0, 0], [0, 0]],
        [[0, 0], [0, 0], [1, 0], [0, 1]],
        [[1, 0], [0, 1], [1, 0], [0, 1]],
        [[1, 0], [0, 1], [0, -1], [1, 0]],
    ]
    maps = {(i, 4): Mat(field, [[field.of_int(v) for v in row] for row in rows]) for i, rows in enumerate(spans)}
    return P, Representation(P, field, [2, 2, 2, 2, 4], maps)


def test_end_a_larger_field_than_q_raises():
    _, M = _four_subspace_module()
    assert len(end_basis(M)) == 2
    with pytest.raises(SplitFailure):
        is_indecomposable(M)


def test_rootless_end_over_a_large_prime_field_raises():
    """End(M_J) = GF(p^2) over GF(1,000,003): no element has a root in the
    field, which the gcd with x^p - x tells without scanning the residues."""
    _, M = _four_subspace_module(Field(1_000_003))
    assert len(end_basis(M)) == 2
    with pytest.raises(SplitFailure):
        split_once(M)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_has_root_agrees_with_brute_force(p):
    for deg in range(4):
        for low in itertools.product(range(p), repeat=deg):
            m = [*low, 1]
            brute = any(sum(c * r**i for i, c in enumerate(m)) % p == 0 for r in range(p))
            assert _has_root(m, p) == brute, m


def test_split_once_splits_off_a_simple_beside_a_rootless_summand():
    P, M = _four_subspace_module()
    S = direct_sum([M, simple(P, P.id_of("w"))])
    parts = split_once(S)
    assert parts is not None
    assert sorted(part.dims for part in parts) == [(0, 0, 0, 0, 1), M.dims]
    assert any(is_isomorphic(part, M) for part in parts)


def test_import_does_not_load_sympy():
    """Importing the CLI loads neither sympy, nor dataclasses and its inspect,
    nor json, which only `knit --json` needs."""
    src = str(Path(posetar.__file__).resolve().parents[1])
    code = (
        "import sys; bare = set(sys.modules); import posetar.cli; "
        "print(' '.join(sorted({'sympy', 'dataclasses', 'inspect', 'json'} & (set(sys.modules) - bare))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _full_key_order(groups, P):
    """The order before tie-only fingerprints: every group keyed by its
    dimension vector and its hom fingerprint, stable sort."""
    order = P.linear_extension()

    def key(group):
        rep = group[0]
        dimvec = tuple(rep.dims[x] for x in order)
        finger = tuple(
            (hom_dim(rep, projective(P, x, rep.field)), hom_dim(simple(P, x, rep.field), rep)) for x in order
        )
        return (dimvec, finger)

    return sorted(groups, key=key)


def _assert_orders_agree(groups, P, rng):
    for _ in range(4):
        got = _canonical_order(groups, P, groups[0][0].field)
        assert [id(g) for g in got] == [id(g) for g in _full_key_order(groups, P)]
        groups = rng.sample(groups, len(groups))


@pytest.mark.parametrize("source", ["ex57", "star-2-2"])
def test_canonical_order_matches_full_key_sort_on_ar_sequences(source):
    P = corpus_poset(source)
    rng = random.Random(3)
    seen = 0
    for v in knit(P).vertices:
        if v.proj is not None:
            continue
        seq = ar_sequence_end(v.rep)
        groups = [[rep] * mult for rep, mult in seq.middles]
        assert groups == _full_key_order(groups, P)
        _assert_orders_agree(groups, P, rng)
        seen += 1
    assert seen > 0


@pytest.mark.parametrize("source", ["ex57", "star-2-2"])
def test_canonical_order_matches_full_key_sort_on_tied_dimension_vectors(source):
    # k{x,y} and S(x) + S(y) share a dimension vector on every cover x < y,
    # so every group here is tied with another and gets a fingerprint
    P = corpus_poset(source)
    groups = []
    for (x, y) in P.covers:
        groups.append([constant_on(P, {x, y})])
        groups.append([direct_sum([simple(P, x), simple(P, y)])])
    _assert_orders_agree(groups, P, random.Random(4))


# -- the shortcuts against the End basis and the plain loop ----------------------

TREE = parse_poset("covers\na < b\nc < b\nc < d\nd < e\nf < e\nf < g\ng < h\n")


def _thin_modules(P, field, rng, count):
    """Thin modules on P, whose Hasse diagram has no cycle so any cover
    scalars are path independent: random supports and random scalars, 0
    among them, so the covers with a nonzero scalar often leave the support
    disconnected."""
    out = []
    for _ in range(count):
        dims = [rng.randint(0, 1) for _ in P.elements()]
        maps = {
            (x, y): Mat(field, [[field.of_int(rng.choice([0, 0, 1, 2, -1, 3]))]], 1, 1)
            for (x, y) in P.covers
            if dims[x] and dims[y]
        }
        out.append(Representation(P, field, dims, maps))
    return out


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_thin_verdict_matches_the_end_basis(field):
    """A thin module is indecomposable exactly when its nonzero cover maps
    connect its support, and then End M = k: the shortcut split_once takes
    agrees with the End basis on every thin module, decomposable ones
    included, and so does split_once."""
    rng = random.Random(7)
    mods = _thin_modules(TREE, field, rng, 300)
    P = corpus_poset("star-2-2")  # diamonds: thin sums of constant modules, zero maps between them
    for x, y in P.covers:
        mods.append(direct_sum([constant_on(P, P.up_set(y), field), simple(P, x, field)]))
        mods.append(constant_on(P, P.closed_interval(x, y), field))
    assert sum(not _thin_indecomposable(M) and not M.is_zero() for M in mods) > 50
    for M in mods:
        local = len(end_basis(M)) == 1
        assert _thin_indecomposable(M) == local, M.to_json()
        if not M.is_zero():
            assert (split_once(M) is None) == local, M.to_json()


def _ar_middles(P, field, budget, max_dim):
    """The middle term E of the almost split sequence at every non-projective
    vertex of total dimension at most max_dim of P's knit with the given
    mesh budget."""
    knit_mod = importlib.import_module("posetar.knit")  # the package exports knit() under that name
    seen = []
    real = knit_mod.split_indecomposables

    def capture(E):
        seen.append(E)
        return real(E)

    comp = knit(P, field, max_meshes=budget, max_total_dim=150)
    knit_mod.split_indecomposables = capture
    try:
        for v in comp.vertices:
            if v.proj is None and v.rep.total_dim() <= max_dim:
                ar_sequence_end(v.rep, check_indecomposable=False)
    finally:
        knit_mod.split_indecomposables = real
    return seen


def _pieces_json(parts):
    return json.dumps([[m.to_json(), mult] for m, mult in parts])


# source: (mesh budget, largest total dimension of an end term)
MIDDLE_SOURCES = {"star-2-2": (2000, 10**6), "ex57": (2000, 10**6), "sec2-right": (2000, 10**6)}
MIDDLE_SOURCES.update({P.name: (50, 18) for P in random_ic_family()[:9]})


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
@pytest.mark.parametrize("source", sorted(MIDDLE_SOURCES))
def test_split_stop_matches_the_plain_loop(source, field, monkeypatch):
    """Stopping once the summands number dim End/rad End gives the pieces,
    bases and order of splitting every summand to the end, over Q with fewer
    split_once calls (over GF(5) no count is kept).  The corpus knits are
    complete; the family's stop at 50 meshes, as in the benchmark, and their
    AR sequences are taken up to total dimension 18, as the benchmark samples."""
    families = {P.name: P for P in random_ic_family()[:9]}
    P = families[source] if source in families else corpus_poset(source)
    budget, max_dim = MIDDLE_SOURCES[source]
    middles = _ar_middles(P, field, budget, max_dim)
    assert middles
    split_mod = importlib.import_module("posetar.split")
    calls = []
    real = split_mod.split_once
    monkeypatch.setattr(split_mod, "split_once", lambda M: calls.append(M) or real(M))
    plain = 0
    for E in middles:
        ref = split_without_stop(E)
        plain += 2 * sum(mult for _, mult in ref) - 1  # one call per split and one per summand
        assert _pieces_json(split_indecomposables(E)) == _pieces_json(ref)
    if field == QQ:
        assert len(calls) < plain
    else:
        assert len(calls) == plain
