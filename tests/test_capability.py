"""Epicenters, capability, cover-independence, and exterior pairing."""

import pytest

from pgh import capability, catalog
from pgh.capability import (epicenter, epicenter_crosscheck, exterior_pair,
                            is_capable)
from pgh.cli import _catalog_groups
from pgh.homology import stem_cover, tail_images
from pgh.pcp import (AbelianSection, center, derived_subgroup, direct_product,
                     subgroup_closure)
from pgh.verify import report
from test_pcp import _center_reference, _scrambled


@pytest.mark.parametrize("builder", [
    lambda: catalog.extraspecial_e1(3),
    lambda: catalog.g1(3, 4),
    lambda: catalog.g2(3, 2),
    lambda: catalog.g3(3),
    lambda: catalog.g4(3, 2),
    lambda: catalog.g5(3),
    lambda: catalog.dihedral8(),
    lambda: catalog.elementary_abelian(3, 2),
])
def test_capable_groups(builder):
    assert is_capable(builder())


@pytest.mark.parametrize("builder, reps, epi", [
    (catalog.quaternion8, [(0, 0, 1)], [(0, 0, 1)]),
    (lambda: catalog.cyclic(3, 3), [(1, 0, 0)],
     [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    (lambda: catalog.modular_group(3, 4), [(0, 0, 1, 0)],
     [(0, 0, 1, 0), (0, 0, 0, 1)]),
    (lambda: catalog.central_product_e1_cyclic(3), [(0, 0, 1, 0)],
     [(0, 0, 0, 1)]),
    (catalog.semidihedral16, [(0, 0, 0, 1)], [(0, 0, 0, 1)]),
    (lambda: catalog.g2(3, 3),
     [(0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0)],
     []),
    (lambda: catalog.homocyclic(3, 2, 2), [(1, 0, 0, 0), (0, 0, 1, 0)], []),
    # C_27 x C_3: the epicenter's basis changes if its SNF runs mod
    # max(p, exp M) instead of p * max(exp M, exp Z(G))
    (lambda: direct_product(catalog.cyclic(3, 3), catalog.cyclic(3, 1)),
     [(0, 0, 0, 1), (1, 0, 0, 0)], [(0, 1, 0, 0), (0, 0, 1, 0)]),
    # C_243 x C_3 on scrambled generators: as above, and the center's
    # representatives change if AbelianSection's SNF runs mod p^(L+1)
    # instead of p^(2L+1), L = len(N.basis).  The first representative
    # was g5 while the SNF's pivot ties went to the first row and the
    # leftmost column; since ties go to fewest nonzeros, U differs and it
    # is g5^2, which still generates the same section
    (lambda: _scrambled(direct_product(catalog.cyclic(3, 5),
                                       catalog.cyclic(3, 1)), 2),
     [(0, 0, 0, 0, 2, 0), (1, 0, 0, 0, 0, 0)],
     [(0, 1, 1, 1, 0, 1), (0, 0, 1, 1, 2, 1), (0, 0, 0, 1, 0, 1),
      (0, 0, 0, 0, 1, 1)]),
])
def test_u_readers_give_the_recorded_results(builder, reps, epi):
    # the two readers of an SNF's U, recorded while U was built during
    # the reduction; it is now replayed from the log of row operations.
    # A weaker modulus still gives valid generators, so only recorded
    # values such as these tell the moduli apart
    P = builder()
    assert AbelianSection(P, center(P)).representatives() == reps
    assert list(epicenter(P).basis) == epi


@pytest.mark.slow
def test_capable_g6():
    assert is_capable(catalog.g6())


def test_q8_not_capable():
    P = catalog.quaternion8()
    assert not is_capable(P)
    assert epicenter(P).order == 2


def test_cyclic_not_capable():
    P = catalog.cyclic(3, 2)
    assert not is_capable(P)
    assert epicenter(P).order == 9


@pytest.mark.parametrize("m", [2, 3])
def test_noncapable_family_epicenter_is_derived(m):
    # the minimal non-abelian type (a) family with n = m - 1 has
    # epicenter exactly G', of order p
    P = catalog.min_nonabelian_a(3, m, m - 1)
    epi = epicenter(P)
    der = derived_subgroup(P)
    assert not is_capable(P)
    assert epi.order == 3
    assert epi.issubset(der) and der.issubset(epi)


@pytest.mark.parametrize("m", [2, 3])
def test_exterior_identities_noncapable_family(m):
    # (b ^ a)^(p^(m-1)) = 1 and a ^ [a, b] = 1
    P = catalog.min_nonabelian_a(3, m, m - 1)
    cover = stem_cover(P)
    E, a, b = cover.E, P.gen(0), P.gen(1)
    assert E.pow(exterior_pair(P, b, a), 3 ** (m - 1)) == E.identity()
    assert exterior_pair(P, a, P.commutator(a, b)) == E.identity()


def test_exterior_pair_bilinearity_center():
    # a ^ z is trivial for central z in an extraspecial group's pairing
    # with its own commutator subgroup lifted through the cover
    P = catalog.extraspecial_e1(3)
    cover = stem_cover(P)
    E, a, b = cover.E, P.gen(0), P.gen(1)
    w = exterior_pair(P, a, b)
    assert E.pow(w, 3) == E.identity()
    assert w != E.identity()


def test_epicenter_is_stored_on_the_presentation():
    P = catalog.g4(3, 2)
    assert epicenter(P) is epicenter(P, variant=0)
    assert epicenter(P, variant=1) is not epicenter(P)


def test_report_and_crosscheck_take_two_epicenter_smith_forms(monkeypatch):
    # report computes the variant-0 epicenter and the crosscheck reads it
    # back, so only the variant-1 epicenter is computed a second time
    calls = []
    smith_normal_form = capability.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args)
        return smith_normal_form(*args, **kwargs)

    monkeypatch.setattr(capability, "smith_normal_form", counted)
    P = catalog.g4(3, 2)
    assert report(P).capable
    assert epicenter_crosscheck(P)
    assert len(calls) == 2


@pytest.mark.parametrize("builder", [
    lambda: catalog.extraspecial_e1(3),
    lambda: catalog.g2(3, 2),
    lambda: catalog.g4(3, 2),
    lambda: catalog.quaternion8(),
    lambda: catalog.min_nonabelian_a(3, 2, 1),
    lambda: catalog.g3(3),
])
def test_epicenter_cover_independent(builder):
    assert epicenter_crosscheck(builder())


def _epicenter_reference(cover):
    """proj(Z(E)), by taking the center of the whole stem cover with the
    closure-based reference, not pcp.center."""
    return subgroup_closure(cover.base, [cover.project(b) for b in
                                         _center_reference(cover.E).basis])


@pytest.fixture(scope="module")
def epicenter_cases():
    """(group name, cover, epicenter) over both cover variants of the
    order-p^3 and p^4 tables at p = 2, 3 and the p = 3 verify catalog
    with G6."""
    groups = []
    for p in (2, 3):
        for e in (3, 4):
            groups += [(f"order {p}^{e} #{i}", P)
                       for i, P in enumerate(catalog.small_group_table(p, e))]
    groups += _catalog_groups(3, deep=True)
    cases = []
    for name, P in groups:
        for variant in (0, 1):
            cover = stem_cover(P, variant=variant)
            cases.append((name, cover, epicenter(P, variant)))
    return cases


def test_epicenter_matches_center_of_cover(epicenter_cases):
    """`epicenter` takes the tails route and builds no cover, so this
    checks it against proj(Z(E)) closed in the cover E of each variant."""
    for name, cover, epi in epicenter_cases:
        assert epi == _epicenter_reference(cover), name
    # the comparison is not vacuous: many groups have a nontrivial epicenter
    assert len({name for name, _, epi in epicenter_cases if epi.basis}) >= 10


def test_epicenter_lifts_are_central(epicenter_cases):
    for name, cover, epi in epicenter_cases:
        E = cover.E
        for z in epi.basis:
            for g in E.gens():
                assert E.commutator(cover.lift(z), g) == E.identity(), name


def _route_groups():
    """The p^3 and p^4 tables at p = 2, 3 and 5, the p = 3 verify catalog
    with G6, and E1(1009), a large prime, where the tailed collector walks
    long runs."""
    groups = []
    for p in (2, 3, 5):
        for e in (3, 4):
            groups += [(f"order {p}^{e} #{i}", P)
                       for i, P in enumerate(catalog.small_group_table(p, e))]
    groups += _catalog_groups(3, deep=True)
    groups.append(("E1(1009)", catalog.extraspecial_e1(1009)))
    return groups


def test_tails_route_matches_the_cover_route():
    # epicenter reads [z^, g^] off the tails; the private reference builds
    # the stem cover E and collects the commutators in it.  Both feed the
    # same Smith form, so the bases agree exactly, not just the subgroups
    noncapable = set()
    for name, P in _route_groups():
        for variant in (0, 1):
            got = epicenter(P, variant)
            want = capability._epicenter_through_cover(P, variant)
            assert got == want, (name, variant)
            assert got.basis == want.basis, (name, variant)
            if got.basis:
                noncapable.add(name)
    # the comparison is not vacuous: many groups have a nontrivial epicenter
    assert len(noncapable) >= 10


def test_tails_commutators_are_the_cover_commutators():
    # the epicenter's kernel hides a wrong coordinate that leaves it fixed,
    # so compare the M coordinates themselves: [z^, y^] for every z of
    # Z(G)'s basis and y a generator or a product of two, in both covers
    for name, P in _route_groups():
        ys = P.gens() + [P.mult(a, b) for a, b in zip(P.gens(), P.gens()[1:])]
        for variant in (0, 1):
            images = tail_images(P, variant)
            cover = stem_cover(P, variant)
            assert images.divisors == cover.divisors, (name, variant)
            for z in center(P).basis:
                for y in ys:
                    got = images.commutator(P, z, y)
                    want = cover.multiplier_coords(cover.E.commutator(
                        cover.lift(z), cover.lift(y)))
                    assert tuple(got.get(k, 0) for k in range(len(want))) \
                        == want, (name, variant, z, y)
    # elements that do not commute in G are refused
    P = catalog.extraspecial_e1(3)
    with pytest.raises(ValueError, match="do not commute"):
        tail_images(P).commutator(P, P.gen(0), P.gen(1))
