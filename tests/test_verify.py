"""Bound formulas, attainment reports, family matching, quotient
attainment, and the classification sweep."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest

from pgh import catalog, homology, verify
from pgh.cli import _catalog_groups
from pgh.pcp import (PcPresentation, abelianization_type, center,
                     derived_subgroup, frattini_subgroup, quotient,
                     subgroup_closure)
from test_pcp import _scrambled


# -- bounds ----------------------------------------------------------


def test_bounds_values():
    assert verify.bounds(3, 1, 2) == {"green": 3, "niroomand": 2, "rai": 2}
    assert verify.bounds(5, 1, 2) == {"green": 10, "niroomand": 7, "rai": 3}
    assert verify.bounds(6, 3, 3) == {"green": 15, "niroomand": 8, "rai": 8}
    assert verify.bounds(7, 4, 3)["rai"] == 10


def test_bounds_domain_errors():
    with pytest.raises(ValueError):
        verify.bounds(0, 0, 1)
    with pytest.raises(ValueError):
        verify.bounds(3, 3, 1)
    with pytest.raises(ValueError):
        verify.bounds(3, 1, 3)


def test_bounds_half_integral_exponent():
    # the modular group of order p^4; report stores the same 5/2
    assert verify.bounds(4, 1, 2) == {"green": 6, "niroomand": 4,
                                      "rai": Fraction(5, 2)}


def test_bound_monotonicity():
    for n in range(2, 9):
        for k in range(0, n):
            for d in range(1, n - k + 1):
                green2 = n * (n - 1)
                nir2 = (n - k - 1) * (n + k - 2) + 2
                rai2 = (d - 1) * (n + k - 2) + 2
                assert rai2 <= nir2


# -- reports ---------------------------------------------------------


def test_report_e1():
    r = verify.report(catalog.extraspecial_e1(3))
    assert r.attains_rai and r.attains_niroomand
    assert r.capable
    assert r.family_match == "G1(p=3,n=3)"
    assert r.multiplier_exponent == 2
    assert r.t == 1


def test_report_d8():
    r = verify.report(catalog.dihedral8())
    assert not r.attains_rai
    assert r.multiplier.order == 2


def test_report_nonhomocyclic_negative():
    # type (a) with G/G' of type (9, 3): must not attain
    r = verify.report(catalog.min_nonabelian_a(3, 2, 2))
    assert r.quotient_type.divisors == (9, 3)
    assert not r.attains_rai


def test_report_half_integral_bound():
    r = verify.report(catalog.modular_group(3, 4))
    assert r.rai_exponent == Fraction(5, 2)
    assert not r.attains_rai


def test_report_invariants_hold_across_catalog():
    for P in [catalog.g2(3, 2), catalog.g4(3, 2), catalog.g5(3),
              catalog.quaternion8(), catalog.elementary_abelian(3, 3)]:
        r = verify.report(P)
        assert r.t >= 0
        assert r.rai_exponent <= r.niroomand_exponent
        if r.attains_rai:
            assert r.multiplier_exponent == r.rai_exponent


@pytest.mark.parametrize("builder,tag", [
    (lambda: catalog.g1(3, 5), "G1(p=3,n=5)"),
    (lambda: catalog.g2(3, 2), "G2(p=3,m=2)"),
    (lambda: catalog.g3(3), "G3(p=3)"),
    (lambda: catalog.g4(3, 2), "G4(p=3,m=2)"),
    (lambda: catalog.g5(3), "G5(p=3)"),
])
def test_family_match_positive(builder, tag):
    P = builder()
    assert verify.family_match(P) == tag
    # a different presentation of the group is matched by its fingerprint
    Q = _scrambled(P, 1)
    assert (Q.power, Q.comm) != (P.power, P.comm)
    assert verify.family_match(Q) == tag


def test_report_builds_one_tails_system():
    # G4(3,3) is its own family candidate, which family_match recognises
    # by its presentation, without a second tails system for the candidate
    with mock.patch.object(homology, "TailsSystem",
                           wraps=homology.TailsSystem) as built:
        assert verify.report(catalog.g4(3, 3)).family_match == "G4(p=3,m=3)"
    assert built.call_count == 1


@pytest.mark.slow
def test_family_match_g6():
    assert verify.family_match(catalog.g6()) == "G6(p=3)"


def test_family_match_negative():
    assert verify.family_match(catalog.modular_group(3, 4)) is None
    assert verify.family_match(catalog.quaternion8()) is None
    assert verify.family_match(catalog.min_nonabelian_a(3, 2, 2)) is None


def test_report_json_schema():
    r = verify.report(catalog.g4(3, 2))
    doc = r.to_json_dict("G4(p=3,m=2)")
    assert doc["group"] == "G4(p=3,m=2)"
    assert doc["multiplier"] == [9, 9]
    assert doc["bounds"] == {"green": 15, "niroomand": 10, "rai": 4}
    assert doc["attains"] == {"niroomand": False, "rai": True}
    assert doc["capable"] is True
    assert doc["family"] == "G4(p=3,m=2)"


def test_report_record_includes_checks():
    checks = verify.check_attainer_conditions(catalog.g2(3, 2))
    assert checks
    assert all(c.passed for c in checks)


# -- condition battery -----------------------------------------------


def test_conditions_all_pass_for_attainers():
    for P in [catalog.extraspecial_e1(3), catalog.g2(3, 2), catalog.g3(3),
              catalog.g4(3, 2), catalog.g5(3)]:
        for check in verify.check_attainer_conditions(P):
            assert check.passed, check


def test_conditions_center_structure_g2():
    checks = {c.name: c for c in
              verify.check_attainer_conditions(catalog.g2(3, 2))}
    c = checks["center_structure"]
    assert c.applicable and c.passed
    assert "(3, 3, 3)" in c.detail or "[3, 3, 3]" in c.detail


def test_conditions_inapplicable_pass():
    checks = verify.check_attainer_conditions(catalog.quaternion8())
    for c in checks:
        assert c.passed


def test_attainer_conditions_build_no_presentation(monkeypatch):
    # G' <= Z(G) in class 2, so d(G/Z) is read off the stored G/Z section;
    # no presentation of G/Z is built for it
    groups = [catalog.extraspecial_e1(3), catalog.g2(3, 2), catalog.g3(3),
              catalog.g5(3), catalog.dihedral8()]
    for P in groups:
        assert verify.report(P).nilpotency_class == 2
    built = [0]
    init = PcPresentation.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        return init(self, *args, **kwargs)

    monkeypatch.setattr(PcPresentation, "__init__", counting)
    checks = [{c.name: c for c in verify.check_attainer_conditions(P)}
              for P in groups]
    monkeypatch.undo()
    assert built == [0]
    for P, by_name in zip(groups, checks):
        dq = abelianization_type(quotient(P, center(P))).rank
        assert by_name["derived_rank_bound"].detail == (
            f"d(G') = {len(derived_subgroup(P).basis)}, d(G/Z) = {dq}")


def _attainer_families(p):
    if p == 2:
        return [catalog.g2(2, 2)]
    families = [catalog.g1(p, 4), catalog.g2(p, 2), catalog.g3(p),
                catalog.g4(p, 2), catalog.g5(p)]
    return families + [catalog.g6()] if p == 3 else families


@pytest.mark.parametrize("p", [2, 3, 5])
def test_central_quotient_generator_count_from_relation_matrix(p):
    # d(G/Z) as the rank of (G/Z)/(G/Z)' against log_p |Q : Phi(Q)|
    groups = [P for e in (3, 4) for P in catalog.small_group_table(p, e)]
    for P in groups + _attainer_families(p):
        Q = quotient(P, center(P))
        want = Q.ngens - len(frattini_subgroup(Q).basis)
        assert abelianization_type(Q).rank == want, catalog.serialize(P)
        for check in verify.check_attainer_conditions(P):
            if check.name == "derived_rank_bound":
                assert check.detail.endswith(f"d(G/Z) = {want}")


# -- quotient attainment ---------------------------------------------


def _layer_reference(P):
    """Omega_1(Z(G) & G') from the list of all elements of G'."""
    derived = derived_subgroup(P)
    members = [derived.from_coords(c) for c in
               itertools.product(range(P.p), repeat=len(derived.basis))]
    return subgroup_closure(P, [
        x for x in members if P.pow(x, P.p) == P.identity()
        and all(P.commutator(x, g) == P.identity() for g in P.gens())])


def test_central_derived_layer_matches_the_element_list():
    groups = [P for p in (2, 3, 5) for e in (3, 4)
              for P in catalog.small_group_table(p, e)]
    groups += [P for p in (2, 3, 5) for _, P in _catalog_groups(p, deep=True)]
    groups += [_scrambled(P, seed) for seed, P in enumerate(groups)]
    orders = set()
    for P in groups:
        layer = verify._central_derived_elementary_layer(P)
        assert layer == _layer_reference(P), catalog.serialize(P)
        orders.add(layer.order)
    # not vacuous: layers of order 1, p and above p occur
    assert len(orders) >= 4


def test_quotient_attainment_g4():
    qa = verify.check_quotient_attainment(catalog.g4(3, 2))
    assert qa.all_ok
    assert len(qa.central_results) == 1
    desc, expected2, actual2, ok = qa.central_results[0]
    assert expected2 == 2 * 3  # log exponent 3, doubled
    assert ok


def test_quotient_attainment_g5():
    # [PAPER] 13 central order-3 subgroups inside G5'
    qa = verify.check_quotient_attainment(catalog.g5(3))
    assert qa.all_ok
    assert len(qa.central_results) == 13


@pytest.mark.slow
def test_quotient_attainment_g6():
    qa = verify.check_quotient_attainment(catalog.g6())
    assert qa.all_ok
    assert qa.gamma_results == ((3, True),)


def test_quotient_attainment_precondition():
    with pytest.raises(ValueError):
        verify.check_quotient_attainment(catalog.extraspecial_e1(3))


# -- sweeps ----------------------------------------------------------


def test_sweep_p3():
    sw = verify.sweep_classification(3)
    assert sw.classification_ok
    assert sw.class2_classification_ok
    table_attainers = {n for n in sw.attainers if n.startswith("order_")}
    # at orders 27 and 81 the only attainers are E1 and E1 x Z3
    assert table_attainers == {"order_p3_4", "order_p4_9"}


def test_sweep_p2_no_attainers():
    sw = verify.sweep_classification(2)
    assert sw.classification_ok
    assert sw.attainers == ()


def test_sweep_p5():
    sw = verify.sweep_classification(5)
    assert sw.classification_ok
    assert sw.class2_classification_ok


@pytest.mark.slow
def test_sweep_p3_deep_includes_g6():
    sw = verify.sweep_classification(3, deep=True)
    assert sw.classification_ok
    assert "G6" in sw.attainers


def test_sweep_json_deterministic():
    # every field of the two reports, entries and reports included
    a = verify.sweep_classification(3)
    b = verify.sweep_classification(3)
    assert a == b
