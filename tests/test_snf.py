"""Smith normal form over Z/p^e: transforms, divisibility chain, cokernel,
checked against the integer Smith form and the gcds of the minors."""

import hashlib
import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgh.snf
from pgh import catalog
from pgh.homology import stem_cover, tails_system
from pgh.snf import mat_mul, smith_normal_form


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def densify(vectors, n, columns=False):
    """Sparse {index: value} rows as dense rows of width n; with
    columns=True, sparse columns as a dense matrix of n rows."""
    dense = [[vec.get(j, 0) for j in range(n)] for vec in vectors]
    return [list(row) for row in zip(*dense)] if columns else dense


def sparse(m):
    """Dense rows as sparse rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def dense_transforms(res):
    """U and V of a SmithResult as dense lists of rows."""
    return densify(res.U, res.rows), densify(res.V, res.cols, columns=True)


def p_part(x, p):
    """The largest power of p dividing the nonzero integer x."""
    d = 1
    while x % (d * p) == 0:
        d *= p
    return d


def local_diagonal(diagonal, p, e):
    """The diagonal over Z/p^e of a matrix whose integer Smith form has
    this nonzero diagonal: the p-parts below p^e, in order."""
    return [p_part(d, p) for d in diagonal if p_part(d, p) < p ** e]


def transform_bits(res):
    """The bit length of the largest |entry| of U and V."""
    return max((abs(x).bit_length() for vec in (*res.U, *res.V)
                for x in vec.values()), default=0)


def bareiss_determinant(m):
    """Exact determinant of a square integer matrix by fraction-free
    (Bareiss) elimination; every division is exact."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


# -- the integer Smith form, dense, as a reference ----------------------
# (this module's mat_mul and smith_normal_form before they skipped zeros
# and before the form was taken mod p^e, returning a tuple instead of a
# SmithResult, with the nearest quotient: the ceiling of a / p - 1/2)


def _reference_mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _reference_smith_normal_form(matrix, ncols=None):
    """Compute the Smith normal form of an integer matrix.

    `matrix` is a list of rows; `ncols` must be given when the matrix has
    no rows.  Returns (diagonal, U, V).  Pivots are chosen smallest magnitude
    first, rows before columns, so the result is deterministic.
    """
    nrows = len(matrix)
    if ncols is None:
        if not matrix:
            raise ValueError("ncols is required for a matrix with no rows")
        ncols = len(matrix[0])
    a = [list(row) for row in matrix]
    for row in a:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        arow = a[src]
        drow = a[dst]
        for idx in range(ncols):
            drow[idx] += mult * arow[idx]
        usrc = u[src]
        udst = u[dst]
        for idx in range(nrows):
            udst[idx] += mult * usrc[idx]

    def add_col(src, dst, mult):
        for row in a:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest-magnitude nonzero pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                val = abs(a[i][j])
                if val and (best is None or val < best):
                    best = val
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        # clear the pivot row and column; repeat until both are clean
        while True:
            progressed = False
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = -((a[t][t] - 2 * a[i][t]) // (2 * a[t][t]))
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = -((a[t][t] - 2 * a[t][j]) // (2 * a[t][t]))
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        progressed = True
            if not progressed:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di:
                changed = True
                add_col(i + 1, i, 1)
                # re-clear the 2x2 block
                while True:
                    x, y = a[i][i], a[i + 1][i]
                    if not y:
                        break
                    q = -((x - 2 * y) // (2 * x))
                    add_row(i, i + 1, -q)
                    if a[i + 1][i]:
                        swap_rows(i, i + 1)
                while True:
                    x, y = a[i][i], a[i][i + 1]
                    if not y:
                        break
                    q = -((x - 2 * y) // (2 * x))
                    add_col(i, i + 1, -q)
                    if a[i][i + 1]:
                        swap_cols(i, i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)

    diagonal = [a[i][i] for i in range(t) if a[i][i]]
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x:
            raise AssertionError("divisibility chain violated")
    d = _reference_mat_mul(_reference_mat_mul(u, [list(r) for r in matrix]), v)
    for i in range(nrows):
        for j in range(ncols):
            expected = diagonal[i] if i == j and i < len(diagonal) else 0
            if d[i][j] != expected:
                raise AssertionError("smith normal form self-check failed")
    return diagonal, u, v


# -- worked examples --------------------------------------------------


def snf(m, p, e):
    """The local Smith form of the dense matrix m, with at least one column."""
    return smith_normal_form(sparse(m), ncols=len(m[0]), p=p, e=e)


def assert_congruent(m, res, p, e):
    """U * m * V = D (mod p^e), entry by entry."""
    q = p ** e
    u, v = dense_transforms(res)
    d = _reference_mat_mul(_reference_mat_mul(u, m), v) if m else []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            expected = res.diagonal[i] if i == j < res.rank else 0
            assert (x - expected) % q == 0


def test_diagonal_of_known_matrix():
    # [DERIVED] worked by hand: d1 = gcd = 2, d1*d2 = |det| = 8, so diag(2, 4)
    res = snf([[2, 4], [6, 8]], 2, 4)
    assert res.diagonal == [2, 4]


def test_zero_matrix():
    res = snf([[0, 0], [0, 0]], 3, 2)
    assert res.diagonal == []
    assert res.rank == 0
    # a multiple of p^e is zero mod p^e
    assert snf([[9, 0], [0, -18]], 3, 2).diagonal == []


def test_identity_transforms_recover_diagonal():
    m = [[6, 4, 2], [2, 8, 4], [0, 0, 10]]
    res = snf(m, 2, 5)
    # the integer diagonal is 2, 10, 20
    assert res.diagonal == [2, 2, 4]
    assert_congruent(m, res, 2, 5)


def test_cokernel_of_multiplication_map():
    # Z^2 / <(3,0),(0,12)> = Z_3 x Z_12: its 3-part is Z_3 x Z_3, and its
    # 2-part Z_4, for which 3 is a unit
    assert snf([[3, 0], [0, 12]], 3, 2).diagonal == [3, 3]
    res = snf([[3, 0], [0, 12]], 2, 3)
    assert res.diagonal == [1, 4]
    assert res.cokernel_free_rank() == 0


def test_cokernel_free_rank():
    res = snf([[1, 2, 3]], 5, 1)
    assert res.cokernel_free_rank() == 2


def test_unimodular_inverse_roundtrip():
    # m is unimodular, so U * m * V = I and m^-1 = V * U (mod p^e)
    m = [[1, 2, 0], [0, 1, 5], [0, 0, 1]]
    res = snf(m, 3, 4)
    assert res.diagonal == [1, 1, 1]
    u, v = dense_transforms(res)
    assert ([[x % 81 for x in row]
             for row in _reference_mat_mul(m, _reference_mat_mul(v, u))]
            == identity_matrix(3))


def test_bareiss_determinant():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[2, 4], [6, 8]]) == -8
    assert bareiss_determinant([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert bareiss_determinant([[0, 2, 1], [3, 0, 0], [1, 1, 1]]) == -3


# Integer diagonals.  With the floor quotient the integer SNF took 8.2 s on
# these, with 1,196,358-bit entries in U, and more than a minute; with the
# nearest quotient it needed 97 bits.  Mod p^e no entry passes p^e / 2.
SMALL_DENSE_BLOW_UPS = [
    ([[1, -27, -27, 0, 1, 2], [9, 2, -1, 0, -1, -27],
      [-1, -27, -27, -27, -27, 1], [-27, 2, 0, 0, 9, 9],
      [9, 1, -27, 0, 2, 9]],
     [1, 1, 1, 1, 3]),
    ([[-27, 2, 9, 2, 0, 3], [1, -1, 0, 0, 9, -27], [-27, 1, 0, -27, 0, 9],
      [-1, -1, 0, 9, -27, 1], [3, 1, 9, -27, 0, 1], [-27, -1, 0, 9, 0, 1]],
     [1, 1, 1, 1, 9, 1996452]),
]


@pytest.mark.parametrize("m, diagonal", SMALL_DENSE_BLOW_UPS)
def test_small_dense_matrix_keeps_small_transforms(m, diagonal):
    for p in (2, 3, 5):
        res = snf(m, p, 8)
        assert res.diagonal == local_diagonal(diagonal, p, 8)
        assert_congruent(m, res, p, 8)
        assert transform_bits(res) <= (p ** 8 // 2).bit_length()


# -- properties -------------------------------------------------------
#
# Every draw takes p from {2, 3, 5} and e from 1 to 6, and no entry drawn
# is bounded, except in the FOUND-13 shapes below and in the reference
# cases, which the integer SNF must also finish.

primes = st.sampled_from([2, 3, 5])
exponents = st.integers(1, 6)

matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def shaped(dim, bound):
    """(matrix, ncols) up to dim x dim, empty and zero-width shapes included."""
    return st.integers(0, dim).flatmap(
        lambda r: st.integers(0, dim).flatmap(
            lambda c: st.tuples(
                st.lists(st.lists(st.integers(-bound, bound),
                                  min_size=c, max_size=c),
                         min_size=r, max_size=r),
                st.just(c))))


@st.composite
def sparse_tall(draw, max_rows, max_cols, density, values):
    """(matrix, ncols): at least as many rows as columns, at most one
    entry in `density` nonzero, drawn from `values`."""
    c = draw(st.integers(1, max_cols))
    r = draw(st.integers(c, max_rows))
    k = draw(st.integers(0, r * c // density))
    cells = draw(st.lists(st.integers(0, r * c - 1), min_size=k, max_size=k,
                          unique=True))
    m = [[0] * c for _ in range(r)]
    for cell in cells:
        m[cell // c][cell % c] = draw(values.filter(bool))
    return m, c


# The shapes on which the integer SNF blew up its entries: dense 6 x 6
# with entries up to 30, and 30 x 20 with one nonzero in ten.
blow_up_shapes = st.one_of(
    st.lists(st.lists(st.integers(-30, 30), min_size=6, max_size=6),
             min_size=6, max_size=6).map(lambda m: (m, 6)),
    sparse_tall(30, 20, 10, st.integers()))

# The integer reference still blows up on those shapes (dense 6 x 6 with
# entries up to 30: 8 of 60 draws over 3 s), so its cases are narrow:
# larger shapes draw smaller entries, and tall ones one nonzero in twenty.
reference_cases = st.one_of(shaped(6, 2), shaped(4, 30),
                            sparse_tall(30, 20, 20, st.integers(-9, 9)))


def assert_local_form(m, ncols, p, e):
    """The SNF of m mod p^e: U * m * V = D (mod p^e), U and V invertible
    mod p^e, and the diagonal powers of p below p^e in a chain."""
    res = smith_normal_form(sparse(m), ncols=ncols, p=p, e=e)
    assert_congruent(m, res, p, e)
    u, v = dense_transforms(res)
    assert bareiss_determinant(u) % p and bareiss_determinant(v) % p
    for d in res.diagonal:
        assert d == p_part(d, p) < p ** e
    assert res.diagonal == sorted(res.diagonal)
    return res


@settings(max_examples=60, deadline=None)
@given(matrices, primes, exponents)
def test_divisibility_chain(m, p, e):
    res = smith_normal_form(sparse(m), ncols=len(m[0]), p=p, e=e)
    for a, b in zip(res.diagonal, res.diagonal[1:]):
        assert b % a == 0
    assert all(0 < d < p ** e and d == p_part(d, p) for d in res.diagonal)


@settings(max_examples=40, deadline=None)
@given(matrices, primes, exponents)
def test_transforms_are_unimodular(m, p, e):
    # invertible mod p^e: their determinants are units mod p
    assert_local_form(m, len(m[0]), p, e)


@settings(max_examples=40, deadline=None)
@given(blow_up_shapes, primes, exponents)
def test_local_form_of_the_integer_blow_up_shapes(case, p, e):
    m, ncols = case
    res = assert_local_form(m, ncols, p, e)
    if len(m) == ncols == 6:
        assert_minors_oracle(m, res, p, e)


def minors_gcd(m, k):
    """The gcd of the k x k minors of m."""
    g = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            g = gcd(g, bareiss_determinant([[m[i][j] for j in cols]
                                            for i in rows]))
    return g


def assert_minors_oracle(m, res, p, e):
    """d_1 ... d_k is the p-part of the gcd of the k x k minors for k up
    to the rank; past it that p-part is a multiple of p^e times the
    product, or every minor vanishes."""
    product = 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = minors_gcd(m, k)
        if k <= res.rank:
            product *= res.diagonal[k - 1]
            assert g and p_part(g, p) == product
        else:
            assert g == 0 or p_part(g, p) % (product * p ** e) == 0


@settings(max_examples=60, deadline=None)
@given(matrices, primes, exponents)
def test_diagonal_products_are_the_gcds_of_the_minors(m, p, e):
    # an oracle that shares no step with the elimination: d_1 ... d_k is
    # the p-part of the gcd of the k x k minors
    res = smith_normal_form(sparse(m), ncols=len(m[0]), p=p, e=e)
    assert_minors_oracle(m, res, p, e)


@settings(max_examples=250, deadline=None)
@given(reference_cases, primes, exponents)
def test_same_result_as_the_dense_reference(case, p, e):
    m, ncols = case
    res = smith_normal_form(sparse(m), ncols=ncols, p=p, e=e)
    diagonal, _, _ = _reference_smith_normal_form(m, ncols)
    assert res.diagonal == local_diagonal(diagonal, p, e)
    assert_congruent(m, res, p, e)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_mat_mul_equals_the_dense_product(r, k, c, data):
    entries = st.one_of(st.just(0), st.integers(-50, 50))
    a = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                           min_size=r, max_size=r))
    b = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                           min_size=k, max_size=k))
    # rows that keep their zeros are accepted too; the product holds none
    out = mat_mul([dict(enumerate(row)) for row in a],
                  [dict(enumerate(row)) for row in b])
    assert all(all(out_row.values()) for out_row in out)
    if k:
        assert densify(out, c) == _reference_mat_mul(a, b)
    else:
        # with no inner dimension the product is the r x c zero matrix
        assert out == [{} for _ in a]


def test_self_check_multiplies_u_a_v_through_the_module(monkeypatch):
    calls = []

    def counted(a, b):
        out = mat_mul(a, b)
        calls.append((a, b, out))
        return out

    monkeypatch.setattr(pgh.snf, "mat_mul", counted)
    m = sparse([[6, 4, 2], [2, 8, 4], [0, 0, 10], [1, 0, 3]])
    res = smith_normal_form(m, ncols=3, p=2, e=3)
    assert res.diagonal == [1, 2, 4]    # 1, 2, 20 over Z
    # one product, A * V: A is the caller's rows, not a copy, and V is
    # passed as its rows; the logged row operations, replayed on the
    # product's own rows mod 8, turn it into D, and so does U
    assert len(calls) == 1
    ((a, b, av),) = calls
    assert a is m and all(x is y for x, y in zip(a, m))
    assert densify(b, 3) == densify(res.V, 3, columns=True)
    uav = _reference_mat_mul(densify(res.U, 4), densify(av, 3))
    assert [[x % 8 for x in row] for row in uav] == [
        [1, 0, 0], [0, 2, 0], [0, 0, 4], [0, 0, 0]]

    # every entry of U * A * V is compared with D, off the diagonal too
    def corrupted(a, b):
        out = mat_mul(a, b)
        out[-1][0] = out[-1].get(0, 0) + 1
        return out

    monkeypatch.setattr(pgh.snf, "mat_mul", corrupted)
    with pytest.raises(AssertionError, match="self-check failed"):
        smith_normal_form(m, ncols=3, p=2, e=3)

    # so is a log that differs from the operations A received: here one
    # multiplier of an added row is off by one when the check replays it
    replay = pgh.snf._replay
    replays = []

    def miscounted(log, rows, q):
        k = next(k for k, (i, j, mult) in enumerate(log) if mult and i != j)
        i, j, mult = log[k]
        log[k] = (i, j, mult + 1)
        replays.append(k)
        return replay(log, rows, q)

    monkeypatch.setattr(pgh.snf, "mat_mul", mat_mul)
    monkeypatch.setattr(pgh.snf, "_replay", miscounted)
    with pytest.raises(AssertionError, match="self-check failed"):
        smith_normal_form(m, ncols=3, p=2, e=3)
    assert len(replays) == 1


# sha256 of (diagonal, U, V) of the seeded sparse matrices below, dense
# so that the order of a dict's keys does not count; any change to the
# pivot rule, its tie-breaks or the clearing quotients moves it.  It read
# fb5993459a77...3fec71 while ties went to the first row and the leftmost
# column; the fewest-nonzeros tie-breaks change U and V, not the diagonal.
SEEDED_TRANSFORMS_SHA256 = (
    "ef03683510aa720ef04641425de8f478c55135e50f6a07f59bd4209e6cc3cf6a")


def _seeded_matrices(count=300):
    """(rows, ncols, p, e) for `count` sparse matrices up to 12 x 12, with
    fewer or more rows than columns, entries in [-40, 40], from a fixed seed."""
    rng = random.Random(24)
    for _ in range(count):
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.1, 0.25, 0.5))
        rows = [{j: x for j in range(c)
                 if rng.random() < density and (x := rng.randint(-40, 40))}
                for _ in range(r)]
        yield rows, c, rng.choice((2, 3, 5)), rng.randint(1, 6)


def test_transforms_of_seeded_matrices_are_byte_identical():
    h = hashlib.sha256()
    for rows, ncols, p, e in _seeded_matrices():
        res = smith_normal_form(rows, ncols=ncols, p=p, e=e)
        for part in ((p, e, ncols), res.diagonal, densify(res.U, res.rows),
                     densify(res.V, ncols, columns=True)):
            h.update(repr(part).encode())
    assert h.hexdigest() == SEEDED_TRANSFORMS_SHA256


def test_row_operations_on_cover_tails_matrices():
    # the logged row operations of the Smith forms of two stem covers'
    # tails matrices, 354 x 120 and 700 x 210, which M(E) reduces.  Exact,
    # as the collector gates are, so that a pivot rule that fills in more
    # shows on any hardware.  They read 4,954 and 16,709 while pivot ties
    # went to the first row and the leftmost column.  The diagonal is
    # unique, so no pivot rule may move it.
    for G, shape, ops, diagonal in (
            (catalog.g4(3, 3), (354, 120), 1227, [1] * 102 + [9] + [27] * 2),
            (catalog.g4(3, 4), (700, 210), 2982,
             [1] * 187 + [27] + [81] * 2)):
        E = stem_cover(G).E
        ts = tails_system(E)
        res = smith_normal_form(ts.relation_matrix, ncols=ts.tail_count,
                                p=E.p, e=E.ngens + 1)
        assert (res.diagonal, res.V) == (ts.diagonal, ts.V)
        assert (len(ts.relation_matrix), ts.tail_count) == shape
        assert (len(res._log), res.diagonal) == (ops, diagonal)


# -- malformed input ----------------------------------------------------


def test_sparse_rows_need_ncols():
    with pytest.raises(TypeError, match="ncols"):
        smith_normal_form([{0: 1}])
    with pytest.raises(TypeError, match="ncols"):
        smith_normal_form([])


@pytest.mark.parametrize("row", [{2: 1}, {-1: 1}, {"0": 1}, {0.0: 1}])
def test_sparse_index_outside_the_columns_is_rejected(row):
    with pytest.raises(ValueError, match="outside"):
        smith_normal_form([{0: 1}, row], ncols=2, p=3, e=2)


@pytest.mark.parametrize("row", [{0: 1.5}, {1: "1"}, {0: 1, 1: None},
                                 {0: 0.0, 1: 1}])
def test_non_integer_entry_is_rejected(row):
    with pytest.raises(ValueError, match="not an integer"):
        smith_normal_form([row], ncols=2, p=3, e=2)


def test_list_rows_are_rejected():
    # rows are {column: value} dicts only; a dense row is not converted
    for row in ([1, 2], (1, 2), [], None):
        with pytest.raises(ValueError, match="is not a"):
            smith_normal_form([{0: 1}, row], ncols=2, p=3, e=2)
