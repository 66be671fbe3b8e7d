"""Acceptance gate: the eleven end-to-end criteria, exact values only."""

import itertools

import pytest

from pgh import catalog, verify
from pgh.capability import (epicenter, epicenter_crosscheck, exterior_pair,
                            is_capable)
from pgh.homology import (abelian_multiplier, be_sequence, schur_multiplier,
                          stem_cover, thm25_check)
from pgh.pcp import (AbelianType, derived_subgroup, direct_product,
                     nilpotency_class, structure_stats)


def _abelian_presentation(p, exps):
    P = catalog.cyclic(p, exps[0])
    for e in exps[1:]:
        P = direct_product(P, catalog.cyclic(p, e))
    return P


def _attainer_groups():
    return [
        ("G1(n=3)", catalog.g1(3, 3)),
        ("G1(n=4)", catalog.g1(3, 4)),
        ("G1(n=5)", catalog.g1(3, 5)),
        ("G2(m=2)", catalog.g2(3, 2)),
        ("G3", catalog.g3(3)),
        ("G4(m=2)", catalog.g4(3, 2)),
        ("G5", catalog.g5(3)),
        ("G6", catalog.g6()),
    ]


def _catalog_class2():
    return [
        ("E1", catalog.extraspecial_e1(3)),
        ("G1(n=4)", catalog.g1(3, 4)),
        ("G2(m=2)", catalog.g2(3, 2)),
        ("G3", catalog.g3(3)),
        ("G4(m=2)", catalog.g4(3, 2)),
        ("G5", catalog.g5(3)),
        ("D8", catalog.dihedral8()),
        ("Q8", catalog.quaternion8()),
        ("MODULAR(3,4)", catalog.modular_group(3, 4)),
        ("MIN_NONAB_A(2,2)", catalog.min_nonabelian_a(3, 2, 2)),
    ]


def test_criterion_01_abelian_oracle_equivalence():
    for p in (2, 3, 5):
        for r in range(1, 5):
            for exps in itertools.combinations_with_replacement((3, 2, 1), r):
                t = AbelianType.from_divisors([p ** e for e in exps])
                P = _abelian_presentation(p, list(exps))
                assert schur_multiplier(P) == abelian_multiplier(t), exps


def test_criterion_02_two_generator_multiplier_value():
    for p in (2, 3, 5):
        for m in (2, 3):
            want = tuple(sorted((p ** (m - 1), p, p), reverse=True))
            assert schur_multiplier(catalog.g2(p, m)).divisors == want


def test_criterion_03_main_theorem_attainment():
    expected_orders = {
        "G1(n=3)": 3 ** 2, "G1(n=4)": 3 ** 4, "G1(n=5)": 3 ** 7,
        "G2(m=2)": 3 ** 3, "G3": 3 ** 6, "G4(m=2)": 3 ** 4,
        "G5": 3 ** 8, "G6": 3 ** 10,
    }
    for name, P in _attainer_groups():
        st = structure_stats(P)
        mult = schur_multiplier(P)
        bound2 = (st.d - 1) * (st.n + st.k - 2) + 2
        assert bound2 % 2 == 0
        assert mult.order == P.p ** (bound2 // 2), name
        assert mult.order == expected_orders[name], name


def test_criterion_04_capability():
    for name, P in _attainer_groups():
        assert is_capable(stem_cover(P)), name
    for m in (2, 3):
        P = catalog.min_nonabelian_a(3, m, m - 1)
        cover = stem_cover(P)
        epi = epicenter(cover)
        der = derived_subgroup(P)
        assert not is_capable(cover)
        assert epi.order == 3
        assert epi.issubset(der) and der.issubset(epi)


def test_criterion_05_negatives():
    negatives = [
        catalog.dihedral8(),
        catalog.quaternion8(),
        catalog.modular_group(2, 4),
        catalog.modular_group(3, 4),
        catalog.modular_group(5, 4),
        catalog.min_nonabelian_a(3, 2, 2),
        catalog.min_nonabelian_a(5, 2, 2),
    ]
    for P in negatives:
        assert not verify.report(P).attains_rai
    assert schur_multiplier(catalog.quaternion8()).order == 1


def test_criterion_06_only_if_sweep():
    sw3 = verify.sweep_classification(3)
    table3 = {n for n in sw3.attainers if n.startswith("order_")}
    # entry 4 of the order-27 table is E1; entry 9 of the order-81 table
    # is E1 x Z3
    assert table3 == {"order_p3_4", "order_p4_9"}
    assert sw3.classification_ok
    sw2 = verify.sweep_classification(2)
    assert sw2.attainers == ()
    assert sw2.classification_ok


def test_criterion_07_exact_sequence_class2():
    for name, P in _catalog_class2():
        be = be_sequence(P)
        assert (be.tensor_order * be.quotient_multiplier_order
                == be.kernel_order * be.multiplier_order
                * be.derived_order), name
        assert be.jacobi_in_kernel and be.power_in_kernel, name


def test_criterion_08_wedge_inequality_with_margins():
    margins = {}
    groups = _catalog_class2() + [("G6", catalog.g6())]
    for name, P in groups:
        if nilpotency_class(P) > 3:
            continue
        w = thm25_check(P)
        margins[name] = (w.lhs_exponent, w.rhs_exponent)
        assert w.holds, (name, margins[name])
    # [DERIVED] frozen tight cases
    assert margins["E1"] == (3, 3)
    assert margins["G5"] == (12, 12)
    assert margins["G6"] == (15, 15)


def test_criterion_09_property_suites():
    for name, P in _catalog_class2() + [("G6", catalog.g6())]:
        rep = verify.report(P)
        assert rep.t >= 0, name
        for check in verify.check_attainer_conditions(P):
            assert check.passed, (name, check.name, check.detail)
    # the exterior identities of the non-capable minimal family
    for m in (2, 3):
        P = catalog.min_nonabelian_a(3, m, m - 1)
        cover = stem_cover(P)
        E, a, b = cover.E, P.gen(0), P.gen(1)
        assert E.pow(exterior_pair(cover, b, a), 3 ** (m - 1)) == E.identity()
        assert exterior_pair(cover, a, P.commutator(a, b)) == E.identity()


def test_criterion_10_quotient_attainment():
    for builder, central_count in [(catalog.g4(3, 2), 1),
                                   (catalog.g5(3), 13),
                                   (catalog.g6(), 1)]:
        qa = verify.check_quotient_attainment(builder)
        assert qa.all_ok
        assert len(qa.central_results) == central_count
        for _, expected2, actual2, ok in qa.central_results:
            assert ok and expected2 == actual2
        for _, ok in qa.gamma_results:
            assert ok


def test_criterion_11_epicenter_cover_independence():
    groups = [
        catalog.extraspecial_e1(3),
        catalog.g2(3, 2),
        catalog.g4(3, 2),
        catalog.g3(3),
        catalog.quaternion8(),             # non-capable instance
        catalog.min_nonabelian_a(3, 2, 1),  # non-capable instance
    ]
    assert sum(1 for P in groups
               if not is_capable(stem_cover(P))) >= 1
    for P in groups:
        assert epicenter_crosscheck(P)
