"""Epicenter and capability from the tails system, plus the exterior pairing.

A group is capable iff it is a central quotient H/Z(H); this is decided
by the epicenter Z*(G) = proj(Z(E)) for a stem cover E -> G with kernel
M.  It is computed as the kernel of z -> ([z^, g_1^], ..., [z^, g_d^]),
Z(G) -> M^d, for lifts ^ of central z and of generators g_i of G: M is
central in E, so each commutator lies in M, does not depend on the
lifts and is a homomorphism in z.

No cover is built for it.  An element of E is a pair of a normal form of
P and tail counts read into M (`homology.TailImages`):
- z is central, so the words z g and g z collect to one normal form;
- tails are central, so [z^, g^] is the difference of the two tail counts;
- a normal word collects with zero tails, so z^ and g^ are the words z
  and g themselves;
- every relation row of the tails matrix vanishes under V's torsion
  columns mod d_k, so reading the tails into M through V is what E does.

`_epicenter_through_cover` computes the same kernel by collecting in the
cover E of `stem_cover(P, variant)`; `epicenter_crosscheck` compares the
two algorithms on the two complements.  The exterior pairing a ^ b is
[a^, b^] in E, independent of the lifts for the same reason.
"""

import math

from .homology import stem_cover, tail_images
from .pcp import (_burnside_basis, abelian_section, center, log_p,
                  per_presentation, subgroup_closure)
from .snf import smith_normal_form


def exterior_pair(P, a, b):
    """a ^ b as [a^, b^] in E of `stem_cover(P)`; it lies in E' = G ^ G."""
    cover = stem_cover(P)
    return cover.E.commutator(cover.lift(a), cover.lift(b))


@per_presentation
def epicenter(P, variant=0):
    """Z*(G) as a subgroup of G, the obstruction to capability, read off
    the tails of `tails_system(P)` in the M coordinates of
    `stem_cover(P, variant)`, with no cover built, and stored on P."""
    images = tail_images(P, variant)
    return _kernel_on_center(P, images.divisors,
                             lambda z, g: images.commutator(P, z, g))


def _epicenter_through_cover(P, variant=0):
    """`epicenter(P, variant)` by collecting [z^, g^] in the cover E."""
    cover = stem_cover(P, variant)

    def coords(z, g):
        c = cover.multiplier_coords(
            cover.E.commutator(cover.lift(z), cover.lift(g)))
        return {k: ck for k, ck in enumerate(c) if ck}
    return _kernel_on_center(P, cover.divisors, coords)


def _kernel_on_center(P, divisors, coords):
    """The kernel of z -> (coords(z, g_i))_i on Z(G), for the coordinates
    {k: c} of [z^, g_i^] in M = (+) C_d, d over `divisors`.

    The z_j generate Z(G), one per invariant factor; the g_i are the
    Burnside basis `_burnside_basis(P)`, which generates G.
    Row j of A holds the coordinates of [z_j^, g_i^], scaled to the
    modulus N = exp M; with U*A*V = D, the kernel mod N is spanned by the
    rows (N / gcd(N, d_i)) * U_i, where d_i = 0 past the rank.

    The SNF runs mod p^e, p^e = p * max(N, o_j) for the orders o_j of the
    z_j.  Since N | p^e and V is invertible mod p^e, x*A = 0 (mod N) iff
    y*D = 0 (mod N) for y = x*U^-1 (mod p^e), iff each y_i is a multiple
    of N / gcd(N, d_i), where d_i = p^v with v < e, or 0 past the rank.
    So the rows above span the kernel up to p^e * Z^k, and every o_j
    divides p^e, so z_j^(p^e) = 1 and those vectors give the identity.
    """
    zsec = abelian_section(P, center(P))
    zs = zsec.representatives()
    gs = _burnside_basis(P)
    N = max(divisors, default=1)
    w = len(divisors)
    rows = []
    for z in zs:
        row = {}
        for i, g in enumerate(gs):
            for k, c in coords(z, g).items():
                row[i * w + k] = c * (N // divisors[k])
        rows.append(row)
    snf = smith_normal_form(rows, ncols=len(gs) * w, p=P.p,
                            e=log_p(max((N, *zsec.divisors)), P.p) + 1)
    diag = snf.diagonal + [0] * (len(zs) - snf.rank)
    gens = []
    for u, d in zip(snf.U, diag):
        scale = N // math.gcd(N, d)
        z = P.identity()
        for j, (zj, order) in enumerate(zip(zs, zsec.divisors)):
            z = P.mult(z, P.pow(zj, scale * u.get(j, 0) % order))
        gens.append(z)
    sub = subgroup_closure(P, gens)
    assert sub.issubset(zsec.N), "epicenter escapes the center"
    return sub


def is_capable(P):
    """True iff the epicenter is trivial."""
    return not epicenter(P).basis


def epicenter_crosscheck(P):
    """True when the tails route at variant 0 and the cover route at
    variant 1, two algorithms on two complements, give one epicenter, as
    Z*(G) depends on neither."""
    return epicenter(P) == _epicenter_through_cover(P, variant=1)
