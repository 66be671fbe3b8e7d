"""Exact Smith normal form over the integers, with transformation matrices.

Matrices are plain lists of lists of Python ints, so there is no overflow
to worry about.  The reduction keeps the transformation matrices U and V
with U * A * V = D and re-multiplies them at the end as a self-check.
"""

from fractions import Fraction


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


class SmithResult:
    """Diagonal form of an integer matrix together with its transforms.

    U * A * V = D, where U and V are unimodular and the diagonal entries
    of D satisfy the divisibility chain d1 | d2 | ... .
    """

    def __init__(self, rows, cols, diagonal, U, V):
        self.rows = rows
        self.cols = cols
        self.diagonal = diagonal
        self.U = U
        self.V = V

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
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x:
            raise AssertionError("divisibility chain violated")
    d = mat_mul(mat_mul(u, [list(r) for r in matrix]), v)
    for i in range(nrows):
        for j in range(ncols):
            expected = diagonal[i] if i == j and i < len(diagonal) else 0
            if d[i][j] != expected:
                raise AssertionError("smith normal form self-check failed")
    return SmithResult(nrows, ncols, diagonal, u, v)


def unimodular_inverse(m):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    out = []
    for row in work:
        entries = row[n:]
        if any(x.denominator != 1 for x in entries):
            raise AssertionError("matrix is not unimodular")
        out.append([int(x) for x in entries])
    return out
