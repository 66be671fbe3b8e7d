"""Schur multipliers via the covering-group tails algorithm, stem covers,
orders of spans of coordinate vectors, the class-two exact-sequence map g,
and the trilinear/quadrilinear commutator maps on central quotients.

The tails method: adjoin one central generator of infinite order to every
power rule and every commutator rule, re-run the consistency overlaps in
the tailed presentation, and read off the multiplier as the torsion part
of the cokernel of the resulting integer relation matrix.  The tailed
presentation has no collector of its own: `PcPresentation._collect_into`
counts the tails in an optional accumulator, and the overlaps collected
are those `pcp._overlaps` enumerates over the generators before the
trailing central block: the ones the consistency check runs, plus the
assoc tests whose three rule words lie in the block, which always hold
untailed, so the check leaves them out, but have rows here.  The rows of
the tests that involve a letter of that block are read off the rule words.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress

from .pcp import (AbelianType, PcPresentation, Subgroup, _overlaps,
                  _tail_count, _tail_slot, abelian_section,
                  abelianization_type, center, derived_subgroup, full_subgroup,
                  log_p, lower_central_series, per_presentation,
                  structure_stats, subgroup_closure, trivial_subgroup)
from .snf import smith_normal_form


class TailsSystem:
    """Relation matrix of the tailed covering presentation, as sparse
    {slot: value} rows, with what `stem_cover` reads of its SNF mod
    p^(n+1): the diagonal and V, invertible mod p^(n+1), as sparse columns.

    The cokernel of the relation matrix is Z^N x M(G); the free rank is
    asserted equal to the generator count N.  It holds no reference to
    the presentation that stores it, so storing it creates no cycle.
    """

    def __init__(self, tail_count, relation_matrix, diagonal, V):
        self.tail_count = tail_count
        self.relation_matrix = relation_matrix
        self.diagonal = diagonal
        self.V = V


@per_presentation
def tails_system(P):
    """Assemble and reduce the tails relation matrix for a consistent P.

    An element of the covering group is a pair (vec, tails): a normal form
    of P and the tail counts that collecting it accumulates.  Each overlap
    of P gives one relation row, the difference of the tails of its sides.
    The row order decides U, V and so the stem cover, so rows are kept per
    overlap block in `_overlaps`' order, then joined in a fixed block
    order, each distinct nonzero row at its first occurrence.

    The SNF runs mod p^(n+1): its cokernel is Z^N x M(G), and by Schur
    exp M(G) divides |G| = p^n, so every torsion invariant is p^v with
    v <= n < n + 1, and the free rank checked below is N.

    Only the tests among g_1 ... g_c are collected, c = `_central_start`,
    so the base-group assertion sees every test that `is_consistent`'s
    lemma needs to certify P.  A test whose largest index is c or more
    involves a letter of the central block B; these tests end each block
    in `_overlaps`' order, and `_central_rows` reads their rows off P's
    rule words, to be appended after the collected ones.  The proof uses
    no consistency.  Write T(x) for the tails of collecting the word x,
    t_b for the tail of g_b^p, t(j, i) for that of [g_j, g_i], w_i for
    P.power[i] and w_ji for P.comm[(j, i)].  For a rule word w, whose
    letters g_u^e_u increase with 0 < e_u < p, let
      tau(b, w) = sum_(u > b) e_u t(u, b) - sum_(u < b) e_u t(b, u)
    over the letters of w with u != b.
    (*) If every pair of g_b and a letter u != b of w has its larger index
        in B, then T(w g_b) - T(g_b w) = tau(b, w), also after a prefix of
        smaller letters.  No such pair has a commutator rule, so in g_b w
        each unit of g_u, u < b, passes g_b adding t(b, u), and in w g_b,
        g_b passes each unit of g_u, u > b, adding t(u, b); neither leaves
        a word.  On both sides g_b's exponent then becomes 1 + e_b with
        the letters u > b of w still to collect, so a wrap of g_b collects
        the same t_b and w_b before them on either side.
    The rows, lhs - rhs, where g_i^p collects to w_i with tail t_i:
    - power_self i >= c: T(g_i w_i) - T(w_i g_i) = -tau(i, w_i).
    - power_left (j, i), j >= c: g_j^p g_i gives t_j + T(w_j g_i).  In
      g_j^(p-1) (g_j g_i), g_i passes p units of g_j, then g_j wraps:
      t_j + p t(j, i).  As T(g_i w_j) = 0, the row is
      tau(i, w_j) - p t(j, i).
    - power_right (j, i), j >= c: g_j g_i^p gives t_i + T(g_j w_i).  In
      (g_j g_i) g_i^(p-1), p units of g_i pass g_j, the last one wraps,
      and w_i is collected before g_j returns: t_i + p t(j, i) +
      T(w_i g_j).  The row is -tau(j, w_i) - p t(j, i).
    - assoc (k, j, i), k >= c > j: in (g_k g_j) g_i and g_k (g_j g_i), g_i
      and g_j pass g_k once each and g_i passes g_j once, and then come
      T(w_ji g_k) and T(g_k w_ji).  The row is tau(k, w_ji).
    - assoc (k, j, i), j >= c: the same with the empty w_ji; the row is
      zero, and the test is skipped.
    """
    n = P.ngens
    ntails = _tail_count(n)

    # tails are sparse counters: most rules never fire in one collection
    def collect(word):
        vec, tails = [0] * n, defaultdict(int)
        P._collect_into(vec, word, tails)
        return tuple(vec), tails

    def mult(x, y):
        vec = list(x[0])
        tails = defaultdict(int, x[1])
        for slot, c in y[1].items():
            tails[slot] += c
        P._collect_into(vec, compress(enumerate(y[0]), y[0]), tails)
        return tuple(vec), tails

    # one dict per block, used as an ordered set, in the order of the rows;
    # a row is keyed by its sorted (slot, value) nonzeros
    blocks = {tag: {} for tag in ("assoc", "power_left", "power_right",
                                  "power_self")}
    gens = [collect(((i, 1),)) for i in range(P._central_start)]
    for tag, lhs, rhs in _overlaps(P.p, gens, mult, collect):
        assert lhs[0] == rhs[0], "tailed overlap disagrees on the base group"
        diff = defaultdict(int, lhs[1])
        for slot, v in rhs[1].items():
            diff[slot] -= v
        row = tuple(sorted((slot, v) for slot, v in diff.items() if v))
        if row:
            blocks[tag[0]][row] = None
    for tag, pairs in _central_rows(P):
        if pairs:
            blocks[tag[0]][tuple(sorted(pairs))] = None
    rows = [dict(row) for row in
            dict.fromkeys(row for block in blocks.values() for row in block)]

    snf = smith_normal_form(rows, ncols=ntails, p=P.p, e=n + 1)
    if snf.cokernel_free_rank() != n:
        raise AssertionError(
            f"tails cokernel free rank {snf.cokernel_free_rank()} != {n}")
    return TailsSystem(ntails, rows, snf.diagonal, snf.V)


def _central_rows(P):
    """Yield (tag, pairs) for each overlap test of P whose largest index is
    `_central_start` or more, in `_overlaps`' order, less the assoc tests
    of two central letters: the (slot, value) pairs of its relation row,
    each slot once and every value nonzero.  `tails_system` proves them."""
    n, c, p = P.ngens, P._central_start, P.p

    def tau(b, word, sign=1):
        return [(_tail_slot(n, u, b), sign * e) if u > b else
                (_tail_slot(n, b, u), -sign * e) for u, e in word if u != b]

    for i in range(c, n):
        yield ("power_self", i), tau(i, P.power[i], -1)
    for j in range(c, n):
        for i in range(j):
            yield (("power_left", j, i),
                   tau(i, P.power[j]) + [(_tail_slot(n, j, i), -p)])
    for j in range(c, n):
        for i in range(j):
            yield (("power_right", j, i),
                   tau(j, P.power[i], -1) + [(_tail_slot(n, j, i), -p)])
    for k in range(c, n):
        for j in range(1, c):
            for i in range(j):
                yield ("assoc", k, j, i), tau(k, P.comm.get((j, i), ()))

def schur_multiplier(P):
    """Elementary divisors of the Schur multiplier of G."""
    return AbelianType.from_divisors(tails_system(P).diagonal)


def abelian_multiplier(A):
    """Multiplier of an abelian group: direct sum of gcd(d_i, d_j), i < j."""
    ds = A.divisors
    out = [math.gcd(ds[i], ds[j])
           for i in range(len(ds)) for j in range(i + 1, len(ds))]
    return AbelianType.from_divisors(out)


def tensor_abelian(A, B):
    """Tensor product of abelian groups: direct sum over gcd pairs."""
    out = [math.gcd(a, b) for a in A.divisors for b in B.divisors]
    return AbelianType.from_divisors(out)


# -- stem covers ------------------------------------------------------


class TailImages:
    """The image in M = (+) C_d, d over `divisors`, of each tail of the
    covering presentation, under the complement of the torsion part that
    the tails SNF's V gives: `images[slot]` lists the (k, v) with
    0 < v < d_k, k increasing, for M's coordinate k of tail t_slot.

    `stem_cover` replaces each tail of P's rules by its image, so E is
    the covering presentation with every tail read into M; a relation
    row r vanishes there, as r * V[idx_k] = (U^-1 D)_k is a multiple of
    d_k, and r * V[free0] = 0 (mod p^(n+1)) for the free column variant 1
    adds.  It holds no reference to the presentation that stores it.
    """

    def __init__(self, divisors, images):
        self.divisors = divisors
        self.images = images

    def commutator(self, P, x, y):
        """Sparse coordinates {k: c}, k increasing and 0 < c < d_k, of
        [x^, y^] in M, for elements x, y of G = P that commute.

        An element of the covering group is a pair of a normal form of P
        and the tail counts T that collecting it accumulates.  A normal
        word collects with zero tails, so x^ = (x, 0).  Each rule that the
        tailed collector applies is a rule of E once its tail is read into
        M, so x^ y^ is (xy, T(xy)) read into M, and so is y^ x^.  As xy = yx
        in G the two normal forms agree, and tails are central, so
        [x^, y^] = (y^ x^)^-1 x^ y^ = (1, T(xy) - T(yx)).  Raises ValueError
        when the normal forms differ.
        """
        xy, txy = list(x), defaultdict(int)
        P._collect_into(xy, compress(enumerate(y), y), txy)
        yx, tyx = list(y), defaultdict(int)
        P._collect_into(yx, compress(enumerate(x), x), tyx)
        if xy != yx:
            raise ValueError("the elements do not commute in G")
        for slot, c in tyx.items():
            txy[slot] -= c
        coords = defaultdict(int)
        for slot, c in txy.items():
            if c:
                for k, v in self.images.get(slot, ()):
                    coords[k] += c * v
        ds = self.divisors
        return {k: c % ds[k] for k, c in sorted(coords.items()) if c % ds[k]}


@per_presentation
def tail_images(P, variant=0):
    """`TailImages` of the complement of `stem_cover(P, variant)`, read off
    V once per variant: V's torsion columns, and at variant 1 its first
    free column, turned into slot -> [(k, v)] lists."""
    if variant not in (0, 1):
        raise ValueError("variant must be 0 or 1")
    ts = tails_system(P)
    torsion = [(idx, d) for idx, d in enumerate(ts.diagonal) if d > 1]
    free = {}
    if variant == 1 and len(ts.diagonal) < ts.tail_count:
        free = ts.V[len(ts.diagonal)]
    images = defaultdict(list)
    for k, (idx, d) in enumerate(torsion):
        column = ts.V[idx]
        if free:
            column = {slot: column.get(slot, 0) + free.get(slot, 0)
                      for slot in column.keys() | free.keys()}
        for slot, v in column.items():
            if v % d:
                images[slot].append((k, v % d))
    divisors = tuple(d for _, d in torsion)
    return TailImages(divisors, dict(images))


class StemCover:
    """Central extension 1 -> M -> E -> G -> 1 with M <= Z(E) and M <= E'.

    The first N generators of E project onto the generators of G; the
    projection simply truncates exponent vectors.  M = (+) C_d over
    `divisors`, one refined chain of generators g, g^p, g^(p^2), ... each.
    """

    def __init__(self, base, E, M, chains, divisors):
        self.base = base
        self.E = E
        self.M = M
        self.chains = chains
        self.divisors = divisors

    def project(self, x):
        return tuple(x[:self.base.ngens])

    def lift(self, x):
        return tuple(x) + (0,) * (self.E.ngens - self.base.ngens)

    def multiplier_coords(self, x):
        """Coordinates of x in M: sum_i x[chain[i]] p^i for each chain."""
        if any(x[:self.base.ngens]):
            raise ValueError("element is not in the multiplier M")
        p = self.E.p
        return tuple(sum(x[g] * p ** i for i, g in enumerate(chain))
                     for chain in self.chains)


def _base_p_word(value, chain, p):
    """Word for c^value along a refined chain of order-p generators."""
    word = []
    for g in chain:
        digit = value % p
        value //= p
        if digit:
            word.append((g, digit))
    assert value == 0
    return word


@per_presentation
def stem_cover(P, variant=0):
    """Build a stem cover from the tails data.

    The complement of the torsion part is read off the SNF transform V.
    `variant` = 1 mixes the first free coordinate into the torsion
    coordinates, giving a second valid complement (relation rows have no
    free components, so the relations are still satisfied); the two
    variants are used to cross-check cover-independent constructions.

    M is (+) C_d over the torsion diagonal with no comparison: E is built
    consistent, so |M| = p^(N_E - n) = prod d; by `_check_stem_extension`
    no commutator rule has a letter of M on its left, so M is abelian, and
    it is spanned by chain heads of orders dividing the d: M = (+) C_d.
    """
    images = tail_images(P, variant)
    p = P.p
    n = P.ngens

    # new central generators: one refined chain per torsion coordinate
    chains = []
    start = n
    for d in images.divisors:
        e = log_p(d, p)
        chains.append(list(range(start, start + e)))
        start += e
    total = start

    def tail_image(slot):
        """Word (over the new generators) of the image of tail t_slot in M."""
        return tuple(g for k, v in images.images.get(slot, ())
                     for g in _base_p_word(v, chains[k], p))

    power = []
    for i in range(n):
        power.append(tuple(P.power[i]) + tail_image(i))
    comm = {}
    for j in range(1, n):
        for i in range(j):
            w = P.comm.get((j, i), ()) + tail_image(_tail_slot(n, j, i))
            if w:
                comm[(j, i)] = w
    power += [()] * (total - n)
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            power[a] = ((b, 1),)
    labels = dict(P.labels)
    for ci, chain in enumerate(chains):
        labels[chain[0]] = f"m{ci + 1}"
    E = PcPresentation(p, total, power, comm, labels)
    M = Subgroup(E, [E.gen(i) for i in range(n, total)])
    cover = StemCover(P, E, M, chains, images.divisors)
    _check_stem_extension(P, E)
    # projection must be a homomorphism: check on generator products
    for i in range(n):
        for j in range(n):
            lhs = cover.project(E.mult(E.gen(i), E.gen(j)))
            if lhs != P.mult(P.gen(i), P.gen(j)):
                raise AssertionError("projection fails on a generator product")
    return cover


def _check_stem_extension(P, E):
    """Raise AssertionError unless M, the generators of E after those of
    P, lies in E' and in Z(E); E must extend P's rules and be consistent.

    M <= E': E/M is presented by P's rules, so E/E'M is G/G' and
    |E/E'| = |G/G'| |M : M & E'|; the orders agree iff M <= E'.
    M <= Z(E): in a consistent presentation a missing rule (j, i) means
    [g_j, g_i] = 1, so M is central iff no rule has a letter of M on
    its left-hand side: iff M lies in E's trailing central block.
    """
    if abelianization_type(E).order != abelianization_type(P).order:
        raise AssertionError("M is not contained in E'")
    if E._central_start > P.ngens:
        raise AssertionError("M is not central in E")


def exterior_square_order(P):
    """|G ^ G| = |M(G)| * |G'|; cross-checked against |E'| of a stem cover.

    |E'| comes from closing the derived subgroup of E, while `stem_cover`
    checks M <= E' on the presentation, so the two checks share no work.
    """
    cover = stem_cover(P)
    m_order = cover.M.order
    k_order = derived_subgroup(P).order
    e_derived = derived_subgroup(cover.E).order
    if e_derived != m_order * k_order:
        raise AssertionError("|E'| != |M(G)| |G'|")
    return e_derived


# -- orders of spans in coordinates ------------------------------------


def _span_order(p, moduli, vectors):
    """Order of the subgroup of (+) Z/m_i generated by integer vectors,
    for moduli m_i that are powers of p.

    Each entry is reduced mod its modulus; the rows m_i e_i are appended,
    so the cokernel of all the rows is the quotient by the span.  That
    quotient of (+) Z/m_i has free rank 0 and exponent dividing the
    largest m_i = p^k, so the SNF runs mod p^(k+1).
    """
    if not moduli:
        return 1
    rows = [{j: x % m for j, (x, m) in enumerate(zip(v, moduli)) if x % m}
            for v in vectors]
    rows += [{i: m} for i, m in enumerate(moduli)]
    snf = smith_normal_form(rows, ncols=len(moduli), p=p,
                            e=log_p(max(moduli), p) + 1)
    assert snf.rank == len(moduli)
    return math.prod(moduli) // math.prod(snf.diagonal)


def _tensor_span_order(A, B, sums):
    """Order of the subgroup of A (x) B generated by sums of simple
    tensors; each sum is a list of pairs of A- and B-coordinates, and
    entry (i, j) lies in Z/gcd(a_i, b_j), in A-major order."""
    moduli = [math.gcd(a, b) for a in A.divisors for b in B.divisors]
    return _span_order(A.P.p, moduli, [
        [sum(col) for col in
         zip(*([a * b for a in ca for b in cb] for ca, cb in pairs))]
        for pairs in sums])


# -- the class-two exact-sequence map ---------------------------------


@dataclass(frozen=True)
class ExactSequenceReport:
    tensor_order: int          # |G' x G/G'| tensored
    image_order: int           # |im g|
    kernel_order: int          # |ker g| = tensor_order / image_order
    multiplier_order: int      # |M(G)|
    quotient_multiplier_order: int   # |M(G/G')|
    derived_order: int         # |G'|
    order_identity_ok: bool
    jacobi_in_kernel: bool
    power_in_kernel: bool

    def ok(self):
        return (self.order_identity_ok and self.jacobi_in_kernel
                and self.power_in_kernel)


def be_sequence(P):
    """Evaluate the map g: G' (x) G/G' -> M(G) and its exactness data.

    g(x (x) zG') = [x^, z^] in a stem cover; requires class exactly 2, so
    that x in G' is central and the commutator lies in M.  It is read off
    the tails with no cover built (`TailImages.commutator`), in the M
    coordinates of `stem_cover(P)`, so the image order and the kernel
    checks are computed in (+) C_d.
    """
    series = lower_central_series(P)
    if len(series) - 1 != 2:
        raise ValueError("the exact-sequence map requires class exactly 2")
    images = tail_images(P)
    divisors = images.divisors
    derived = series[1]
    sa = abelian_section(P, derived)
    sb = abelian_section(P, full_subgroup(P), derived)

    def g_coords(x, z):
        try:
            c = images.commutator(P, x, z)
        except ValueError:
            raise AssertionError("image of g escapes M") from None
        return tuple(c.get(k, 0) for k in range(len(divisors)))

    def vanishes(*coords):
        """True when the g-values with these coordinates multiply to 1."""
        return all(sum(xs) % d == 0 for d, xs in zip(divisors, zip(*coords)))

    zs = sb.representatives()
    image_order = _span_order(P.p, divisors, [
        g_coords(x, z) for x in sa.representatives() for z in zs])
    tensor_order = tensor_abelian(sa.type, sb.type).order
    kernel_order = tensor_order // image_order

    m_order = math.prod(divisors)
    qm_order = abelian_multiplier(sb.type).order
    k_order = derived.order
    identity_ok = (kernel_order * m_order * k_order
                   == tensor_order * qm_order)

    # the stated kernel generators: Jacobi-type triples and w^(p^s) (x) w
    gens = P.gens()
    r = range(len(gens))
    comm = {(a, b): P.commutator(gens[a], gens[b]) for a in r for b in r}
    g = {(a, b, c): g_coords(comm[a, b], gens[c])
         for a in r for b in r for c in r}
    jacobi_ok = all(vanishes(g[a, b, c], g[c, a, b], g[b, c, a])
                    for a, b, c in g)
    ps = sb.type.exponent
    probes = gens + [P.mult(gens[i], gens[j]) for i in r for j in r if i < j]
    power_ok = all(vanishes(g_coords(P.pow(w, ps), w)) for w in probes)
    return ExactSequenceReport(
        tensor_order=tensor_order,
        image_order=image_order,
        kernel_order=kernel_order,
        multiplier_order=m_order,
        quotient_multiplier_order=qm_order,
        derived_order=k_order,
        order_identity_ok=identity_ok,
        jacobi_in_kernel=jacobi_ok,
        power_in_kernel=power_ok,
    )


# -- trilinear and quadrilinear commutator maps -----------------------


@per_presentation
def central_quotient_section(P):
    """(G/Z(G))^ab = G / G'Z(G) as an abelian section; stored on P, so
    G'Z(G) is closed once."""
    z = center(P)
    derived = derived_subgroup(P)
    gz = subgroup_closure(P, list(derived.basis) + list(z.basis))
    return abelian_section(P, full_subgroup(P), gz)


def psi2_image(P):
    """Order of the image of the trilinear map into (G'/gamma3) (x) G/G'."""
    series = lower_central_series(P)
    derived = series[1]
    gamma3 = series[2] if len(series) > 2 else trivial_subgroup(P)
    reps = central_quotient_section(P).representatives()
    ta = abelian_section(P, derived, gamma3)
    tb = abelian_section(P, full_subgroup(P), derived)
    r = range(len(reps))
    xy = {(a, b): ta.coords(P.commutator(reps[a], reps[b]))
          for a in r for b in r}
    z = [tb.coords(x) for x in reps]
    return _tensor_span_order(ta, tb, [
        [(xy[a, b], z[c]), (xy[c, a], z[b]), (xy[b, c], z[a])]
        for a in r for b in r for c in r])


def psi3_image(P):
    """Order of the image of the quadrilinear map into
    (gamma3/gamma4) (x) (G/Z(G))^ab; trivial below class 3."""
    series = lower_central_series(P)
    if len(series) - 1 < 3:
        return 1
    gamma3 = series[2]
    gamma4 = series[3] if len(series) > 3 else trivial_subgroup(P)
    src = central_quotient_section(P)
    ta = abelian_section(P, gamma3, gamma4)
    reps = src.representatives()
    r = range(len(reps))
    xy = {(a, b): P.commutator(reps[a], reps[b]) for a in r for b in r}
    # [[x, y], z] and [z, [x, y]] in gamma3/gamma4, keyed (x, y, z)
    left = {(a, b, c): ta.coords(P.commutator(xy[a, b], reps[c]))
            for a in r for b in r for c in r}
    right = {(a, b, c): ta.coords(P.commutator(reps[c], xy[a, b]))
             for a in r for b in r for c in r}
    w = [src.coords(x) for x in reps]
    return _tensor_span_order(ta, src, [
        [(left[a, b, c], w[d]), (right[a, b, d], w[c]),
         (left[c, d, a], w[b]), (right[c, d, b], w[a])]
        for a in r for b in r for c in r for d in r])


@dataclass(frozen=True)
class WedgeInequalityReport:
    lhs_exponent: int     # log_p(|G^G| |Im2| |Im3|)
    rhs_exponent: int     # log_p(|M(G/G')| p^(kd))
    holds: bool


def thm25_check(P):
    """The outer inequality |G^G| |Im2| |Im3| <= |M(G/G')| p^(kd)."""
    st = structure_stats(P)
    if st.nilpotency_class > 3:
        raise ValueError("inequality check implemented for class <= 3 only")
    p = P.p
    lhs = exterior_square_order(P) * psi2_image(P) * psi3_image(P)
    rhs = abelian_multiplier(st.quotient_type).order * p ** (st.k * st.d)
    return WedgeInequalityReport(
        lhs_exponent=log_p(lhs, p),
        rhs_exponent=log_p(rhs, p),
        holds=lhs <= rhs,
    )
