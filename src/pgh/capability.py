"""Epicenter and capability via stem covers, plus the exterior pairing.

A group is capable iff it is a central quotient H/Z(H); this is decided
by the epicenter Z*(G) = proj(Z(E)) for a stem cover E -> G with kernel
M.  It is computed as the kernel of z -> ([z^, g_1^], ..., [z^, g_d^]),
Z(G) -> M^d, for lifts ^ of central z and of generators g_i of G: M is
central in E, so each commutator lies in M, does not depend on the
lifts and is a homomorphism in z.  The exterior pairing a ^ b is
[a^, b^] in the cover, independent of the lifts for the same reason.
Each function takes G's presentation P and reads `stem_cover(P)`.
"""

import math

from .homology import stem_cover
from .pcp import (AbelianSection, center, frattini_subgroup, log_p,
                  per_presentation, subgroup_closure)
from .snf import smith_normal_form


def exterior_pair(P, a, b):
    """a ^ b as [a^, b^] in E of `stem_cover(P)`; it lies in E' = G ^ G."""
    cover = stem_cover(P)
    return cover.E.commutator(cover.lift(a), cover.lift(b))


@per_presentation
def epicenter(P, variant=0):
    """Z*(G) as a subgroup of G, the obstruction to capability, read off
    `stem_cover(P, variant)` and stored on P.

    The z_j generate Z(G), one per invariant factor; the g_i are a
    Burnside basis (the pc generators outside the Frattini subgroup).
    Row j of A holds the chain coordinates of [z_j^, g_i^] in M, scaled to the
    modulus N = exp M; with U*A*V = D, the kernel mod N is spanned by the
    rows (N / gcd(N, d_i)) * U_i, where d_i = 0 past the rank.

    The SNF runs mod p^e, p^e = p * max(N, o_j) for the orders o_j of the
    z_j.  Since N | p^e and V is invertible mod p^e, x*A = 0 (mod N) iff
    y*D = 0 (mod N) for y = x*U^-1 (mod p^e), iff each y_i is a multiple
    of N / gcd(N, d_i), where d_i = p^v with v < e, or 0 past the rank.
    So the rows above span the kernel up to p^e * Z^k, and every o_j
    divides p^e, so z_j^(p^e) = 1 and those vectors give the identity.
    """
    cover = stem_cover(P, variant)
    zg = center(P)
    zsec = AbelianSection(P, zg)
    zs = zsec.representatives()
    phi = set(frattini_subgroup(P).leading_indices())
    gs = [cover.lift(P.gen(i)) for i in range(P.ngens) if i not in phi]
    N = max(cover.divisors, default=1)
    w = len(cover.divisors)
    rows = []
    for z in zs:
        zhat = cover.lift(z)
        row = {}
        for i, g in enumerate(gs):
            c = cover.multiplier_coords(cover.E.commutator(zhat, g))
            for k, (ci, d) in enumerate(zip(c, cover.divisors)):
                if ci:
                    row[i * w + k] = ci * (N // d)
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
    assert sub.issubset(zg), "epicenter escapes the center"
    return sub


def is_capable(P):
    """True iff the epicenter is trivial."""
    return not epicenter(P).basis


def epicenter_crosscheck(P):
    """True when both variants of the stem cover, whose complements
    differ, give one epicenter, as Z*(G) does not depend on the cover."""
    return epicenter(P) == epicenter(P, variant=1)
