"""Exact Smith normal form over the integers, with transformation matrices.

Entries are Python ints, so there is no overflow to worry about.  The
matrices met here are almost all zeros, so they are sparse from end to
end: the input is a list of sparse rows, {column: value} dicts, with the
column count given, and the reduction keeps A as sparse rows and V as
sparse columns, dicts that never hold a zero.  An index from each
column of A to the rows with a nonzero there lets a column operation
touch only those rows, and the pivot search reads each row's smallest
|entry| from a cache that an operation on the row resets.  The diagonal,
U and V are returned, with U * A * V = D; V^-1 is not kept, since its
first rank rows are (U * A) / D.  U is not built during the reduction:
each row operation that changes A is logged, and U, the product of the
logged operations, is built on first read by replaying the log on the
identity rows.  The self-check replays the same log on the rows of A * V,
multiplied from the caller's rows, and compares every row with D's, off
the diagonal too: it proves U * A * V = D for exactly the U handed out,
so a log that misses or adds an operation fails unless U is valid anyway.

Every quotient q that clears an entry a against a pivot p is the integer
nearest to a / p, the floor quotient on a tie: q = -((p - 2a) // (2p)),
the ceiling of a / p - 1/2, for either sign of p.  The remainder
a - q * p is then at most |p| / 2 in magnitude, so each remainder swap
at least halves the pivot.  With the floor quotient a remainder could be
almost |p|, and U and V grew to a million bits on small dense matrices
and to over a thousand on the tails matrix of a stem cover; the nearest
quotient keeps both under a hundred bits there (Havas, Majewski and
Matthews, Experimental Math. 7 (1998)).  Some random dense input still
grows, because nothing reduces the trailing block between pivots.
"""

from functools import cached_property


def mat_mul(a, b):
    """The product a * b of sparse rows: row i is the sum over the
    nonzeros a[i][k] of a[i][k] * b[k]."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            if x:
                for j, y in b[k].items():
                    acc[j] = acc.get(j, 0) + x * y
        out.append({j: y for j, y in acc.items() if y})
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


def _replay(log, rows):
    """Apply the logged row operations to sparse rows, in order and in place:
    (i, j, 0) swaps, (i, i, -1) negates, (i, j, m) adds m * row i to j."""
    for i, j, m in log:
        if not m:
            rows[i], rows[j] = rows[j], rows[i]
        elif i == j:
            rows[i] = {k: -x for k, x in rows[i].items()}
        else:
            _add_scaled(rows[j], rows[i], m)
    return rows


_EMPTY = float("inf")    # the smallest |entry| of an empty row


def _sparse_row(row, ncols):
    """The nonzeros of a row, a dict from [0, ncols) to ints, as a new
    dict; any other row raises ValueError."""
    if not isinstance(row, dict):
        raise ValueError(f"row {row!r} is not a {{column: value}} dict")
    out = {}
    for j, x in row.items():
        if not isinstance(j, int) or not 0 <= j < ncols:
            raise ValueError(f"sparse index {j!r} outside [0, {ncols})")
        if not isinstance(x, int):
            raise ValueError(f"matrix entry {x!r} is not an integer")
        if x:
            out[j] = x
    return out


class SmithResult:
    """Diagonal form of an integer matrix together with its transforms.

    U * A * V = D, where U and V are unimodular and the diagonal entries
    of D satisfy the divisibility chain d1 | d2 | ... .  U is a list of
    sparse rows and V a list of sparse columns, {index: value} dicts
    without zeros: V[j] is column j of V, and U is built on first read.
    """

    def __init__(self, rows, cols, diagonal, log, V):
        self.rows = rows
        self.cols = cols
        self.diagonal = diagonal
        self._log = log
        self.V = V

    @cached_property
    def U(self):
        return _replay(self._log, [{i: 1} for i in range(self.rows)])

    @property
    def rank(self):
        return len(self.diagonal)

    def cokernel_free_rank(self):
        """Free rank of Z^cols / rowspace(A)."""
        return self.cols - self.rank


def smith_normal_form(rows, ncols):
    """Compute the Smith normal form of an integer matrix.

    `rows` is a list of sparse {column: value} dicts with columns in
    [0, ncols).  Returns a SmithResult.  Pivots are chosen smallest
    magnitude first, rows before columns, so the result is deterministic.
    """
    nrows = len(rows)
    a = [_sparse_row(row, ncols) for row in rows]
    col_rows = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    # the smallest |entry| of each row, read by the pivot search; an
    # operation that changes a row's values resets its entry to None, and
    # the search recomputes it
    row_min = [None] * nrows
    log = []                                # the row operations, for U
    v = [{j: 1} for j in range(ncols)]      # the columns of V

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
        log.append((i, j, 0))
        row_min[i], row_min[j] = row_min[j], row_min[i]

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
        row_min[dst] = None
        log.append((src, dst, mult))

    def add_col(src, dst, mult):
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
            row_min[r] = None
        _add_scaled(v[dst], v[src], mult)

    def negate_row(i):
        a[i] = {k: -x for k, x in a[i].items()}
        log.append((i, i, -1))

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        # locate the smallest-magnitude nonzero pivot in the trailing block,
        # first in row-major order; nothing is smaller than a unit.  Rows
        # from t on have no nonzero left of column t.
        pivot, best = None, _EMPTY
        for i in range(t, nrows):
            val = row_min[i]
            if val is None:
                val = row_min[i] = min(map(abs, a[i].values()),
                                       default=_EMPTY)
            if val < best:
                pivot, best = i, val
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
                q = -((a[t][t] - 2 * a[i][t]) // (2 * a[t][t]))
                add_row(t, i, -q)
                if t in a[i]:
                    swap_rows(t, i)
                    progressed = True
            for j in sorted(k for k in a[t] if k > t):
                q = -((a[t][t] - 2 * a[t][j]) // (2 * a[t][t]))
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
                    q = -((x - 2 * y) // (2 * x))
                    add_row(i, i + 1, -q)
                    if i in a[i + 1]:
                        swap_rows(i, i + 1)
                while True:
                    x, y = a[i][i], a[i].get(i + 1, 0)
                    if not y:
                        break
                    q = -((x - 2 * y) // (2 * x))
                    add_col(i, i + 1, -q)
                    if i + 1 in a[i]:
                        swap_cols(i, i + 1)
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)

    diagonal = [a[i][i] for i in range(t) if a[i].get(i)]
    # free the reduced matrix before the check builds its products
    del a, col_rows
    for x, y in zip(diagonal, diagonal[1:]):
        if y % x:
            raise AssertionError("divisibility chain violated")
    # U * (A * V): A * V with V's columns turned into rows, then the log
    v_rows = [{} for _ in range(ncols)]
    for j, col in enumerate(v):
        for i, x in col.items():
            v_rows[i][j] = x
    d = _replay(log, mat_mul(rows, v_rows))
    for i, row in enumerate(d):
        if row != ({i: diagonal[i]} if i < len(diagonal) else {}):
            raise AssertionError("smith normal form self-check failed")
    return SmithResult(nrows, ncols, diagonal, log, v)
