"""Epicenter and capability via stem covers, plus the exterior pairing.

A group is capable iff it is a central quotient H/Z(H); this is decided
by the epicenter, computed here as the projection of the center of a
stem cover.  The exterior pairing a ^ b is realized as [a^, b^] in the
cover, which is independent of the choice of lifts because the kernel of
the projection is central.
"""

from .homology import stem_cover
from .pcp import center, subgroup_closure, trivial_subgroup


class ExteriorElement:
    """An element of G ^ G, represented inside the derived subgroup of E."""

    def __init__(self, cover, rep):
        self.cover = cover
        self.rep = rep

    def is_identity(self):
        return self.rep == self.cover.E.identity()

    def mult(self, other):
        assert self.cover is other.cover
        return ExteriorElement(self.cover, self.cover.E.mult(self.rep, other.rep))

    def pow(self, e):
        return ExteriorElement(self.cover, self.cover.E.pow(self.rep, e))

    def __eq__(self, other):
        return (isinstance(other, ExteriorElement)
                and self.cover is other.cover and self.rep == other.rep)

    def __repr__(self):
        return f"ExteriorElement({self.cover.E.element_str(self.rep)})"


def exterior_pair(cover, a, b):
    """a ^ b as [a^, b^] in the stem cover, for canonical lifts."""
    rep = cover.E.commutator(cover.lift(a), cover.lift(b))
    return ExteriorElement(cover, rep)


def epicenter(cover):
    """proj(Z(E)) as a subgroup of G: the obstruction to capability."""
    P = cover.base
    ze = center(cover.E)
    gens = [cover.project(b) for b in ze.basis]
    gens = [g for g in gens if g != P.identity()]
    if not gens:
        return trivial_subgroup(P)
    sub = subgroup_closure(P, gens)
    zg = center(P)
    assert sub.issubset(zg), "epicenter escapes the center"
    return sub


def is_capable(cover):
    """True iff the epicenter is trivial."""
    return len(epicenter(cover).basis) == 0


def epicenter_crosscheck(P):
    """Build two covers with different complements; compare epicenters.

    Returns True when both complement choices give the same subgroup of
    G.  A mismatch would mean the cover-dependence assumption is wrong
    for this group; it is surfaced, never patched over.
    """
    e0 = epicenter(stem_cover(P, variant=0))
    e1 = epicenter(stem_cover(P, variant=1))
    return e0.issubset(e1) and e1.issubset(e0)
