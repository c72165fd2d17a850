import random
from fractions import Fraction

import pytest

from posetar.corpus import corpus_poset
from posetar.homalg import tau, tau_inverse, transpose_dual_tau
from posetar.knit import ar_sequence_end, knit
from posetar import linalg
from posetar.linalg import Field, Mat, QQ, span_basis
from posetar.rep import _quotient_projection


def M(rows):
    return Mat(QQ, rows)


def test_rref_and_rank():
    A = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert A.rank() == 2
    R, pivots = A.rref()
    assert pivots == (0, 1)


def test_nullspace_is_kernel():
    A = M([[1, 2, 3], [0, 1, 1]])
    for v in A.nullspace():
        assert all(x == 0 for x in A.apply(v))
    assert len(A.nullspace()) == 1


def test_solve_and_inverse():
    A = M([[2, 1], [1, 1]])
    B = M([[1], [0]])
    X = A.solve(B)
    assert A.mul(X) == B
    inv = A.solve(Mat.identity(QQ, 2))
    assert A.mul(inv) == Mat.identity(QQ, 2)


def test_solve_inconsistent():
    A = M([[1, 2], [2, 4]])
    B = M([[1], [0]])
    assert A.solve(B) is None


def test_zero_dim_matrices():
    A = Mat.zero(QQ, 0, 3)
    B = Mat.zero(QQ, 3, 2)
    assert A.mul(B).r == 0
    assert A.rank() == 0
    assert len(Mat.zero(QQ, 2, 0).nullspace()) == 0


def test_prime_field():
    F5 = Field(5)
    A = Mat(F5, [[2, 1], [1, 1]])
    inv = A.solve(Mat.identity(F5, 2))
    assert A.mul(inv) == Mat.identity(F5, 2)


@pytest.mark.parametrize("p", [1, 4])
def test_field_rejects_a_non_prime(p):
    with pytest.raises(ValueError):
        Field(p)


def test_field_takes_primes_below_two_to_the_31_only():
    assert Field(2**31 - 1).p == 2**31 - 1
    with pytest.raises(ValueError):
        Field(2305843009213693951)  # a Mersenne prime: trial division would not end


def test_fields_compare_and_hash_by_characteristic():
    assert Field(5) == Field(5)
    assert hash(Field(5)) == hash(Field(5))
    assert Field(5) != Field(7)
    assert Field(0) == QQ
    assert len({Field(5), Field(5), QQ}) == 2


def test_matrices_compare_and_hash_by_characteristic():
    assert Mat(QQ, [[1]]) != Mat(Field(5), [[1]])
    assert Mat(Field(5), [[1]]) == Mat(Field(5), [[1]])
    assert hash(Mat(Field(5), [[1]])) == hash(Mat(Field(5), [[1]]))
    assert len({Mat(QQ, [[1]]), Mat(Field(5), [[1]]), Mat(Field(0), [[1]])}) == 2


def test_span_basis():
    b = span_basis(QQ, [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))], 2)
    assert b.c == 1


# -- reference kernels ---------------------------------------------------------
#
# The generic loops over Field methods that linalg used before its kernels
# moved to integer elimination and plain arithmetic.  They define the results
# the kernels must reproduce exactly.


def ref_mul(A, B):
    f, z = A.field, A.field.zero
    out = []
    for row in A.rows:
        orow = []
        for col in B.transpose().rows:
            acc = z
            for a, b in zip(row, col):
                if a != z and b != z:
                    acc = f.add(acc, f.mul(a, b))
            orow.append(acc)
        out.append(orow)
    return Mat(f, out, A.r, B.c)


def ref_apply(A, vec):
    f, z = A.field, A.field.zero
    out = []
    for row in A.rows:
        acc = z
        for a, b in zip(row, vec):
            if a != z and b != z:
                acc = f.add(acc, f.mul(a, b))
        out.append(acc)
    return tuple(out)


def ref_rref(A):
    f, z = A.field, A.field.zero
    rows = [list(r) for r in A.rows]
    pivots = []
    pr = 0
    for col in range(A.c):
        piv = next((i for i in range(pr, A.r) if rows[i][col] != z), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        inv = f.inv(rows[pr][col])
        rows[pr] = [f.mul(inv, v) for v in rows[pr]]
        for i in range(A.r):
            if i != pr and rows[i][col] != z:
                factor = rows[i][col]
                rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[pr])]
        pivots.append(col)
        pr += 1
        if pr == A.r:
            break
    return Mat(f, rows, A.r, A.c), tuple(pivots)


def ref_nullspace(A):
    f = A.field
    R, pivots = ref_rref(A)
    basis = []
    for j in range(A.c):
        if j in pivots:
            continue
        vec = [f.zero] * A.c
        vec[j] = f.one
        for pi, pc in enumerate(pivots):
            vec[pc] = f.sub(f.zero, R.rows[pi][j])
        basis.append(tuple(vec))
    return basis


def ref_solve(A, B):
    f = A.field
    R, pivots = ref_rref(A.hstack(B))
    if any(p >= A.c for p in pivots):
        return None
    X = [[f.zero] * B.c for _ in range(A.c)]
    for pi, pc in enumerate(pivots):
        for j in range(B.c):
            X[pc][j] = R.rows[pi][A.c + j]
    return Mat(f, X, A.c, B.c)


FIELDS = [QQ, Field(2), Field(5), Field(2**31 - 1)]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (3, 3), (4, 4), (2, 6), (6, 2), (5, 7), (8, 5)]


def random_entry(rng, field, density):
    if rng.random() > density:
        return field.zero
    if field.p:
        return rng.randrange(field.p)
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7]))


def random_mat(rng, field, r, c, density):
    return Mat(field, [[random_entry(rng, field, density) for _ in range(c)] for _ in range(r)], r, c)


def sample_matrices(field, seed=20240):
    """Seeded matrices of every shape: dense, sparse, low rank, with zero lines."""
    rng = random.Random(seed)
    out = []
    for r, c in SHAPES:
        for density in (1.0, 0.4):
            out.append(random_mat(rng, field, r, c, density))
        if r and c:
            k = rng.randint(1, min(r, c))
            low = ref_mul(random_mat(rng, field, r, k, 0.8), random_mat(rng, field, k, c, 0.8))
            rows = [list(row) for row in low.rows]
            rows[rng.randrange(r)] = [field.zero] * c  # a zero row
            j = rng.randrange(c)
            for row in rows:
                row[j] = field.zero  # and a zero column
            out.append(low)
            out.append(Mat(field, rows, r, c))
    if not field.p:
        # integral input as plain ints and as Fraction(k, 1): results must come back as ints
        for r, c in SHAPES:
            ints = [[rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(c)] for _ in range(r)]
            out.append(Mat(field, ints, r, c))
            out.append(Mat(field, [[Fraction(v, 1) for v in row] for row in ints], r, c))
    return out


def assert_canonical(M):
    """Entries are reduced residues over GF(p); over Q an int when integral
    and otherwise a Fraction with denominator > 1 (never a float)."""
    for row in M.rows:
        for v in row:
            assert_canonical_entry(M.field, v)


def assert_canonical_entry(field, v):
    if field.p:
        assert type(v) is int and 0 <= v < field.p
    else:
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rref_rank_and_nullspace_match_the_reference(field):
    for A in sample_matrices(field):
        R, pivots = A.rref()
        R_ref, pivots_ref = ref_rref(A)
        assert (R.rows, pivots) == (R_ref.rows, pivots_ref)
        assert_canonical(R)
        assert A.rank() == len(pivots)
        kernel = A.nullspace()
        assert kernel == ref_nullspace(A)
        assert all(not any(A.apply(v)) for v in kernel)
        assert_canonical(Mat.from_columns(field, kernel, A.c))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_mul_and_apply_match_the_reference(field):
    rng = random.Random(7)
    for A in sample_matrices(field):
        for n in (0, 1, 3):
            B = random_mat(rng, field, A.c, n, rng.choice([1.0, 0.5]))
            AB = A.mul(B)
            assert AB.rows == ref_mul(A, B).rows
            assert_canonical(AB)
        vec = tuple(random_entry(rng, field, 0.6) for _ in range(A.c))
        assert A.apply(vec) == ref_apply(A, vec)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_matches_the_reference(field):
    rng = random.Random(11)
    for A in sample_matrices(field):
        consistent = A.mul(random_mat(rng, field, A.c, 2, 0.7))
        arbitrary = random_mat(rng, field, A.r, 2, 0.7)
        for B in (consistent, arbitrary):
            X, ref = A.solve(B), ref_solve(A, B)
            assert (X is None) == (ref is None)
            if X is not None:
                assert X.rows == ref.rows
                assert A.mul(X) == B
                assert_canonical(X)
        assert A.solve(consistent) is not None


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_add_sub_scale_return_canonical_entries(field):
    rng = random.Random(13)
    for A in sample_matrices(field):
        B = random_mat(rng, field, A.r, A.c, 0.7)
        for C in (A.add(B), A.sub(B), A.add(A), A.sub(A), A.scale(field.of_int(2))):
            assert_canonical(C)


def test_integral_rational_results_are_ints():
    half = Fraction(1, 2)
    H = Mat(QQ, [[half, -half], [Fraction(3, 2), half]], 2, 2)
    for C in (H.add(H), H.sub(H), H.scale(2), H.mul(Mat(QQ, [[2, 0], [0, 2]]))):
        assert all(type(v) is int for row in C.rows for v in row)
    R, _ = Mat(QQ, [[Fraction(2), Fraction(4, 2), Fraction(6)]], 1, 3).rref()
    assert R.rows == ((1, 1, 3),) and all(type(v) is int for v in R.rows[0])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_field_methods_return_canonical_elements(field):
    values = [field.of_int(n) for n in range(-12, 13)]
    values += [field.parse(t) for t in ("0", "1", "-7", "12")]
    if not field.p:
        values += [field.parse(t) for t in ("1/2", "-6/3", "4/2", "3/9", "0/5")]
        assert field.parse("4/2") == 2 and type(field.parse("4/2")) is int
        assert field.inv(Fraction(1, 3)) == 3 and type(field.inv(Fraction(1, 3))) is int
    values += [field.zero, field.one]
    for v in list(values):
        if v:
            values.append(field.inv(v))
    for v in values:
        assert_canonical_entry(field, v)
        for w in values[:12]:
            for op in (field.add, field.sub, field.mul):
                assert_canonical_entry(field, op(v, w))
        assert_canonical_entry(field, field.sub(field.zero, v))


def _assert_module_canonical(M):
    for m in M.maps.values():
        assert_canonical(m)


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "ex33-poset3"])
def test_algebra_layers_return_canonical_entries(source):
    """Over Q every entry the algebra layers hand out is an int or a
    non-integral Fraction: knit vertices, their translates and the middles
    of the almost split sequences ending at them."""
    comp = knit(corpus_poset(source))
    rng = random.Random(0)
    for v in comp.vertices:
        _assert_module_canonical(v.rep)
        for op in (tau, tau_inverse, transpose_dual_tau):
            T = op(v.rep)
            if T is not None:
                _assert_module_canonical(T)
        if v.proj is None:
            seq = ar_sequence_end(v.rep, rng)
            _assert_module_canonical(seq.tau_end)
            for mid, _ in seq.middles:
                _assert_module_canonical(mid)


def assert_well_formed(M):
    """The rows are a tuple of M.r tuples of length M.c, and the checked
    constructor rebuilds the same matrix from them."""
    assert type(M.rows) is tuple and len(M.rows) == M.r
    assert all(type(row) is tuple and len(row) == M.c for row in M.rows)
    assert Mat(M.field, M.rows, M.r, M.c) == M


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_unchecked_kernel_results_are_well_formed(field):
    """Every kernel that stores its rows unchecked declares their true shape."""
    rng = random.Random(17)
    for A in sample_matrices(field):
        B = random_mat(rng, field, A.r, A.c, 0.7)
        results = [
            Mat.zero(field, A.r, A.c),
            Mat.identity(field, A.c),
            Mat.from_columns(field, A.columns(), A.r),
            Mat.from_columns(field, A.nullspace(), A.c),
            A.add(B),
            A.sub(B),
            A.scale(field.of_int(3)),
            A.mul(random_mat(rng, field, A.c, 2, 0.7)),
            A.transpose(),
            A.hstack(B),
            A.vstack(B),
            A.rref()[0],
            A.solve(A.mul(random_mat(rng, field, A.c, 2, 0.7))),
        ]
        q, pivots = _quotient_projection(field, A, A.r)
        results.append(q)
        for C in results:
            assert_well_formed(C)
        assert q.r == A.r - A.rank() == len(pivots)
        assert q.mul(A).is_zero()


def test_constructor_still_checks_its_shape():
    with pytest.raises(ValueError):
        Mat(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat(QQ, [[1, 2], [3, 4]], 3, 2)
    with pytest.raises(ValueError):
        Mat(QQ, [[1, 2]], 1, 3)
    with pytest.raises(ValueError):
        Mat.from_columns(QQ, [(1, 2), (3,)], 2)
    assert Mat(QQ, [[1, 2], [3, 4]]).rows == ((1, 2), (3, 4))


# -- the memo of the exact kernels ----------------------------------------------


def clear_memos():
    linalg._rref_memo.cache_clear()
    linalg._null_basis_memo.cache_clear()
    linalg._quotient_memo.cache_clear()


@pytest.mark.parametrize("first", [QQ, Field(5)], ids=str)
def test_memo_keeps_each_field_apart(first):
    """The same rows give each field its own echelon form, whichever came first."""
    clear_memos()
    want = {  # rref of [2 1], its kernel, and the projection killing its transpose
        QQ: (((1, Fraction(1, 2)),), [(Fraction(-1, 2), 1)], ((1, -2),)),
        Field(5): (((1, 3),), [(2, 1)], ((1, 3),)),
    }
    for field in (first, Field(5) if first == QQ else QQ):
        A = Mat(field, [[2, 1]])
        R, pivots = A.rref()
        assert (R.field, R.rows, pivots) == (field, want[field][0], (0,))
        assert A.nullspace() == want[field][1]
        q, _ = _quotient_projection(field, A.transpose(), 2)
        assert (q.field, q.rows) == (field, want[field][2])


def test_memo_hands_out_a_fresh_nullspace_list():
    clear_memos()
    A = Mat(QQ, [[1, 1, 0], [0, 0, 1]])
    kernel = A.nullspace()
    kernel.append((9, 9, 9))
    kernel[0] = (0, 0, 0)
    assert A.nullspace() == [(-1, 1, 0)]
    assert linalg._null_basis_memo.cache_info().hits == 1


@pytest.mark.parametrize("ints_first", [True, False])
def test_memo_gives_canonical_entries_for_integral_fractions(ints_first):
    """Fraction(n, 1) rows share the key of their int rows; both get ints back."""
    clear_memos()
    ints = [[2, 4, 6], [1, 3, 5]]
    fracs = [[Fraction(v, 1) for v in row] for row in ints]
    for rows in (ints, fracs) if ints_first else (fracs, ints):
        A = Mat(QQ, rows)
        R, _ = A.rref()
        assert R.rows == ((1, 0, -1), (0, 1, 2))
        for M_ in (R, Mat.from_columns(QQ, A.nullspace(), 3), _quotient_projection(QQ, A.transpose(), 3)[0]):
            assert_canonical(M_)
    assert linalg._rref_memo.cache_info().hits == 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_memo_stores_no_input_above_the_cell_limit(field):
    clear_memos()
    rng = random.Random(3)
    r, c = 8, linalg._MEMO_CELLS // 8 + 1
    A = random_mat(rng, field, r, c, 0.5)
    for _ in range(2):
        R, pivots = A.rref()
        R_ref, pivots_ref = ref_rref(A)
        assert (R.rows, pivots) == (R_ref.rows, pivots_ref)
        assert A.nullspace() == ref_nullspace(A)
        q, _ = _quotient_projection(field, A, r)
        assert q.r == r - len(pivots) and q.mul(A).is_zero()
    for memo in (linalg._rref_memo, linalg._null_basis_memo, linalg._quotient_memo):
        assert memo.cache_info().currsize == 0
    small = Mat(field, A.rows[:2])
    small.rref()
    small.nullspace()
    assert linalg._rref_memo.cache_info().currsize == linalg._null_basis_memo.cache_info().currsize == 1
