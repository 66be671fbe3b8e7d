"""Smith normal form over Z/p^e, with transformation matrices.

Every matrix pgh reduces is p-local, and its caller bounds the exponent
of the cokernel's torsion by p^(e-1), so the form is taken mod q = p^e
(Domich, Kannan and Trotter, Math. Oper. Res. 12 (1987); Cohen, A Course
in Computational Algebraic Number Theory, 2.4).  Entries are symmetric
residues in (-q/2, q/2], so they cannot grow and small ones stay small.
Each step takes a pivot of least p-valuation v: the row of least
(gcd(q, *row), min |entry|), both computed in C, so a +-1 pivot comes
first, and in it the smallest entry of valuation v.  Ties go to the row
with the fewest nonzeros, then the first, and to the column with the
fewest nonzero rows, then the leftmost: the Markowitz rule (Management
Sci. 3, 1957; for sparse integer Smith forms, Dumas, Saunders and
Villard, J. Symb. Comput. 32, 2001), since clearing the column adds the
pivot row to each of its other rows.  On the tails matrices of stem
covers it cuts the row operations four- to sixfold.  The search stops at
a +-1 alone in its row, which nothing beats.  It scales the pivot row so
the pivot is p^v, then clears its column in one pass of row operations
and its row in one pass of column operations.
What is left of the block is a multiple of p^v, so the diagonal comes
out in valuation order and the divisibility chain holds by construction.

A is kept as sparse rows and V as sparse columns, {index: value} dicts
that never hold a zero, with an index from each column of A to its
nonzero rows and a cache of each row's pivot key.  No row or column of
A or V ever moves: two lists give the row and the column at each
position, and a step swaps two entries of each.  "First" and "leftmost"
above mean in position order, and V is handed out with its columns in
position order.  V^-1 is not kept, since its first rank rows are
(U * A) / D.  Each row operation, a unit scaling or a row addition on
the fixed rows, is logged, and U is built on first read by replaying
the log on the identity rows and reading them in position order.  The
self-check replays the same log on the rows of A * V mod q and compares
the row at each position with D's, off the diagonal too, so it proves
U * A * V = D (mod q) for exactly the U handed out.

A check mod q suffices.  U and V are invertible over Z_(p), the integers
localised at p, and there U * A * V = D + q * R.  Each pivot p^v, v < e,
clears the multiples of q in its row and column, so the cokernel of A
over Z_(p) is the sum of the Z/p^v and the cokernel of q * R', R' the
trailing block of R.  A caller that knows the free rank of the cokernel
checks that it is cols - rank; then R' has rank 0, so R' = 0, and the
diagonal is exactly the cokernel's p-torsion.  The epicenter reads a
kernel mod a divisor of q, for which the congruence is enough.
"""

from functools import cached_property
from math import gcd


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


def _scaled(row, mult, q):
    """The nonzero symmetric residues mod q of mult * row, as a new dict."""
    out = {}
    for k, x in row.items():
        y = mult * x % q
        if y:
            out[k] = y - q if 2 * y > q else y
    return out


def _add_scaled(dst, src, mult, q):
    """dst += mult * src mod q on sparse vectors of symmetric residues;
    entries that vanish are dropped."""
    for k, x in src.items():
        y = (dst.get(k, 0) + mult * x) % q
        if y:
            dst[k] = y - q if 2 * y > q else y
        else:
            dst.pop(k, None)


def _replay(log, rows, q):
    """Apply the logged row operations to sparse rows mod q, in order and
    in place: (i, i, u) scales row i by the unit u, and (i, j, m) adds
    m * row i to row j."""
    for i, j, m in log:
        if i == j:
            rows[i] = _scaled(rows[i], m, q)
        else:
            _add_scaled(rows[j], rows[i], m, q)
    return rows


_EMPTY = float("inf")    # the pivot key of an empty row


def _sparse_row(row, ncols, q):
    """The nonzero residues mod q of a row, a dict from [0, ncols) to
    ints, as a new dict; any other row raises ValueError."""
    if not isinstance(row, dict):
        raise ValueError(f"row {row!r} is not a {{column: value}} dict")
    for j, x in row.items():
        if not isinstance(j, int) or not 0 <= j < ncols:
            raise ValueError(f"sparse index {j!r} outside [0, {ncols})")
        if not isinstance(x, int):
            raise ValueError(f"matrix entry {x!r} is not an integer")
    return _scaled(row, 1, q)


class SmithResult:
    """Diagonal form of an integer matrix mod p^e with its transforms.

    U * A * V = D (mod modulus = p^e), where U and V are invertible mod
    p^e and the diagonal entries of D are powers p^v, v < e, in
    increasing order, so d1 | d2 | ... .  U is a list of sparse rows and
    V a list of sparse columns, {index: residue} dicts without zeros:
    V[j] is column j of V.  U is built on first read: the log is
    replayed on the identity rows, which are then read in `row_order`,
    the row of A at each position when the elimination ended.
    """

    def __init__(self, rows, cols, diagonal, log, row_order, V, modulus):
        self.rows = rows
        self.cols = cols
        self.diagonal = diagonal
        self._log = log
        self._row_order = row_order
        self.V = V
        self.modulus = modulus

    @cached_property
    def U(self):
        u = _replay(self._log, [{i: 1} for i in range(self.rows)],
                    self.modulus)
        return [u[i] for i in self._row_order]

    @property
    def rank(self):
        return len(self.diagonal)

    def cokernel_free_rank(self):
        """Free rank of Z^cols / rowspace(A), for a caller whose bound on
        the exponent of the torsion is below p^e."""
        return self.cols - self.rank


def smith_normal_form(rows, ncols, p, e):
    """Compute the Smith normal form of an integer matrix over Z/p^e.

    `rows` is a list of sparse {column: value} dicts with columns in
    [0, ncols); p is a prime and e >= 1.  Returns a SmithResult.  The
    pivot rule is deterministic, so the result is too.
    """
    q = p ** e
    half = q // 2
    nrows = len(rows)
    a = [_sparse_row(row, ncols, q) for row in rows]
    col_rows = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    # the pivot key of each row, read by the pivot search; a row operation
    # resets the row's key to None, and the search recomputes it
    row_key = [None] * nrows
    log = []                                # the row operations, for U
    v = [{j: 1} for j in range(ncols)]      # the columns of V
    # rows and columns never move: a step swaps two positions instead
    row_at = list(range(nrows))             # the row at each position
    col_at = list(range(ncols))             # the column at each position
    col_pos = list(range(ncols))            # the position of each column

    def add_row(src, dst, mult):
        drow = a[dst]
        for k, x in a[src].items():
            old = drow.get(k, 0)
            y = (old + mult * x) % q
            if y:
                drow[k] = y - q if y > half else y
                if not old:
                    col_rows[k].add(dst)
            elif old:
                del drow[k]
                col_rows[k].remove(dst)
        row_key[dst] = None
        log.append((src, dst, mult))

    diagonal = []
    w = ncols + 1
    for t in range(min(nrows, ncols)):
        # the row of least key in the trailing block, first in position
        # order; nothing beats a +-1 alone in its row.  Rows from position
        # t on are zero in the columns at positions before t.
        pivot, best = None, _EMPTY
        for s in range(t, nrows):
            i = row_at[s]
            key = row_key[i]
            if key is None:
                # (gcd, min |entry|, nonzeros) as one int, since
                # min |entry| < q and nonzeros < w
                vals = a[i].values()
                if vals:
                    m = min(map(abs, vals))
                    m = m if m % p else m + q * (gcd(q, *vals) - 1)
                    key = m * w + len(vals)
                else:
                    key = _EMPTY
                row_key[i] = key
            if key < best:
                pivot, best = s, key
                if key == w + 1:
                    break
        if pivot is None:
            break
        d = best // w // q + 1              # p^v, v the pivot's valuation
        r = row_at[pivot]
        row_at[t], row_at[pivot] = r, row_at[t]
        row = a[r]
        *_, pos = min((abs(x), len(col_rows[j]), col_pos[j])
                      for j, x in row.items() if x % (d * p))
        c = col_at[pos]
        col_at[t], col_at[pos] = c, col_at[t]
        col_pos[col_at[pos]], col_pos[c] = pos, t
        unit = row[c] // d
        if unit != 1:
            inverse = pow(unit, -1, q)
            if inverse > half:
                inverse -= q
            row = a[r] = _scaled(row, inverse, q)
            log.append((r, r, inverse))
        # every entry of the block is a multiple of d: one pass of row
        # operations clears column c, and then column c of A is d e_r, so
        # the column operations that clear row r change only row r of A
        for i in col_rows[c] - {r}:
            add_row(r, i, -(a[i][c] // d))
        for j in [k for k in row if k != c]:
            _add_scaled(v[j], v[c], -(row.pop(j) // d), q)
            col_rows[j].remove(r)
        diagonal.append(d)

    # free the reduced matrix before the check builds its products
    del a, col_rows
    v = [v[j] for j in col_at]
    # U * (A * V) mod q: A * V with V's columns turned into rows, then the
    # log; the row of A at position i must be D's row i
    v_rows = [{} for _ in range(ncols)]
    for j, col in enumerate(v):
        for i, x in col.items():
            v_rows[i][j] = x
    uav = _replay(log, [_scaled(row, 1, q)
                        for row in mat_mul(rows, v_rows)], q)
    for i, r in enumerate(row_at):
        if uav[r] != ({i: diagonal[i]} if i < len(diagonal) else {}):
            raise AssertionError("smith normal form self-check failed")
    return SmithResult(nrows, ncols, diagonal, log, row_at, v, q)
