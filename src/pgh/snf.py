"""Exact Smith normal form over the integers, with transformation matrices.

Matrices come in and go out as plain lists of lists of Python ints, so
there is no overflow to worry about.  The reduction keeps the
transformation matrices U and V with U * A * V = D, and V^-1 beside V.
The matrices met here are almost all zeros, so while it runs A, U and
V^-1 are sparse rows and V is sparse columns: {index: value} dicts that
never hold a zero.  An index from each column of A to the rows with a
nonzero there lets a column operation touch only those rows.  At the end
U * A * V is re-multiplied from the dense U and V over the nonzeros and
every entry is compared with D.
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


def _add_scaled(dst, src, mult):
    """dst += mult * src on sparse vectors, for a nonzero mult; entries
    that cancel are dropped."""
    for k, x in src.items():
        y = dst.get(k, 0) + mult * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _dense(vectors, width):
    out = []
    for vec in vectors:
        row = [0] * width
        for k, x in vec.items():
            row[k] = x
        out.append(row)
    return out


def _dense_columns(columns, height):
    out = [[0] * len(columns) for _ in range(height)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            out[i][j] = x
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
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    a = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    col_rows = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    u = [{i: 1} for i in range(nrows)]
    v = [{j: 1} for j in range(ncols)]      # the columns of V
    v_inv = [{j: 1} for j in range(ncols)]

    def swap_rows(i, j):
        if i == j:
            return
        ai, aj = a[i], a[j]
        for k in ai.keys() - aj.keys():
            rows = col_rows[k]
            rows.remove(i)
            rows.add(j)
        for k in aj.keys() - ai.keys():
            rows = col_rows[k]
            rows.remove(j)
            rows.add(i)
        a[i], a[j] = aj, ai
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in col_rows[i] | col_rows[j]:
            row = a[r]
            x = row.pop(i, 0)
            y = row.pop(j, 0)
            if y:
                row[i] = y
            if x:
                row[j] = x
        col_rows[i], col_rows[j] = col_rows[j], col_rows[i]
        v[i], v[j] = v[j], v[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, mult):
        if not mult:
            return
        drow = a[dst]
        for k, x in a[src].items():
            old = drow.get(k, 0)
            y = old + mult * x
            if y:
                drow[k] = y
                if not old:
                    col_rows[k].add(dst)
            else:
                del drow[k]
                col_rows[k].remove(dst)
        _add_scaled(u[dst], u[src], mult)

    def add_col(src, dst, mult):
        # column dst += mult * column src on V is, on V^-1, the row
        # operation row src -= mult * row dst
        if not mult:
            return
        dst_rows = col_rows[dst]
        for r in col_rows[src]:
            row = a[r]
            old = row.get(dst, 0)
            y = old + mult * row[src]
            if y:
                row[dst] = y
                if not old:
                    dst_rows.add(r)
            else:
                del row[dst]
                dst_rows.remove(r)
        _add_scaled(v[dst], v[src], mult)
        _add_scaled(v_inv[src], v_inv[dst], -mult)

    def negate_row(i):
        a[i] = {k: -x for k, x in a[i].items()}
        u[i] = {k: -x for k, x in u[i].items()}

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest-magnitude nonzero pivot in the trailing block,
        # first in row-major order; nothing is smaller than a unit.  Rows
        # from t on have no nonzero left of column t.
        pivot = None
        best = 0
        for i in range(t, nrows):
            row = a[i]
            if row:
                val = min(map(abs, row.values()))
                if not best or val < best:
                    best = val
                    pivot = i
                    if best == 1:
                        break
        if pivot is None:
            break
        pj = min(j for j, x in a[pivot].items() if abs(x) == best)
        swap_rows(t, pivot)
        swap_cols(t, pj)
        # clear the pivot row and column; repeat until both are clean.  An
        # operation for row (column) i changes no later row (column) of the
        # pass, so each pass can list its rows (columns) at the start.
        while True:
            progressed = False
            for i in sorted(r for r in col_rows[t] if r > t):
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if t in a[i]:
                    swap_rows(t, i)
                    progressed = True
            for j in sorted(k for k in a[t] if k > t):
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if j in a[t]:
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
                    x, y = a[i][i], a[i + 1].get(i, 0)
                    if not y:
                        break
                    q = y // x
                    add_row(i, i + 1, -q)
                    if i in a[i + 1]:
                        swap_rows(i, i + 1)
                while True:
                    x, y = a[i][i], a[i].get(i + 1, 0)
                    if not y:
                        break
                    q = y // x
                    add_col(i, i + 1, -q)
                    if i + 1 in a[i]:
                        swap_cols(i, i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)

    diagonal = [a[i][i] for i in range(t) if a[i].get(i)]
    # free the reduced matrix before the check builds two products of its size
    del a, col_rows
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x:
            raise AssertionError("divisibility chain violated")
    u = _dense(u, nrows)
    v = _dense_columns(v, ncols)
    v_inv = _dense(v_inv, ncols)
    d = mat_mul(mat_mul(u, matrix), v)
    for i, row in enumerate(d):
        expected = [0] * ncols
        if i < len(diagonal):
            expected[i] = diagonal[i]
        if row != expected:
            raise AssertionError("smith normal form self-check failed")
    return SmithResult(nrows, ncols, diagonal, u, v, v_inv)
