"""Exact Smith normal form over the integers, with transformation matrices.

Matrices are plain lists of lists of Python ints, so there is no overflow
to worry about.  The reduction keeps the transformation matrices U and V
with U * A * V = D, and V^-1 beside V.  The matrices met here are mostly
zeros, so every step skips zero entries.  At the end U * A * V is
re-multiplied over the nonzeros and every entry is compared with D.
"""


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product a * b: each row's nonzeros times the nonzero rows of b."""
    width = len(b[0]) if b else 0
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in b_nonzero[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


class SmithResult:
    """Diagonal form of an integer matrix together with its transforms.

    U * A * V = D, where U and V are unimodular and the diagonal entries
    of D satisfy the divisibility chain d1 | d2 | ... .  Vinv is V^-1.
    """

    def __init__(self, rows, cols, diagonal, U, V, Vinv):
        self.rows = rows
        self.cols = cols
        self.diagonal = diagonal
        self.U = U
        self.V = V
        self.Vinv = Vinv

    @property
    def rank(self):
        return len(self.diagonal)

    def cokernel_free_rank(self):
        """Free rank of Z^cols / rowspace(A)."""
        return self.cols - self.rank

    def cokernel_torsion(self):
        """Nontrivial invariant factors of Z^cols / rowspace(A)."""
        return [d for d in self.diagonal if d > 1]


def smith_normal_form(matrix, ncols=None):
    """Compute the Smith normal form of an integer matrix.

    `matrix` is a list of rows; `ncols` must be given when the matrix has
    no rows.  Returns a SmithResult.  Pivots are chosen smallest magnitude
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
    v_inv = identity_matrix(ncols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, mult):
        for m in (a, u):
            drow = m[dst]
            for idx, x in enumerate(m[src]):
                if x:
                    drow[idx] += mult * x

    def add_col(src, dst, mult):
        # column dst += mult * column src on V is, on V^-1, the row
        # operation row src -= mult * row dst
        for m in (a, v):
            for row in m:
                x = row[src]
                if x:
                    row[dst] += mult * x
        srow = v_inv[src]
        for idx, x in enumerate(v_inv[dst]):
            if x:
                srow[idx] -= mult * x

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest-magnitude nonzero pivot in the trailing block,
        # first in row-major order; nothing is smaller than a unit
        pivot = None
        best = 0
        for i in range(t, nrows):
            mags = list(map(abs, a[i][t:]))
            val = min(filter(None, mags), default=0)
            if val and (not best or val < best):
                best = val
                pivot = (i, t + mags.index(val))
                if best == 1:
                    break
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
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        progressed = True
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
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
                    q = y // x
                    add_row(i, i + 1, -q)
                    if a[i + 1][i]:
                        swap_rows(i, i + 1)
                while True:
                    x, y = a[i][i], a[i][i + 1]
                    if not y:
                        break
                    q = y // x
                    add_col(i, i + 1, -q)
                    if a[i][i + 1]:
                        swap_cols(i, i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)

    diagonal = [a[i][i] for i in range(t) if a[i][i]]
    # free the reduced matrix before the check builds two products of its size
    del a
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x:
            raise AssertionError("divisibility chain violated")
    d = mat_mul(mat_mul(u, matrix), v)
    for i, row in enumerate(d):
        expected = [0] * ncols
        if i < len(diagonal):
            expected[i] = diagonal[i]
        if row != expected:
            raise AssertionError("smith normal form self-check failed")
    return SmithResult(nrows, ncols, diagonal, u, v, v_inv)
