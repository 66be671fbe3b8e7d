"""Family constructors, small-group tables, and serialization."""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

from pgh import catalog, cli, verify
from pgh.catalog import FamilyParameterError, PresentationFormatError
from pgh.pcp import (abelian_invariants, center, derived_subgroup,
                     full_subgroup, nilpotency_class, structure_stats)
from test_pcp import _element_order


# -- named families --------------------------------------------------


def test_min_nonabelian_a_invariants():
    for p, m, n in [(2, 2, 1), (3, 2, 2), (5, 3, 1)]:
        P = catalog.min_nonabelian_a(p, m, n)
        assert P.order == p ** (m + n)
        assert derived_subgroup(P).order == p
        assert nilpotency_class(P) == 2


def test_min_nonabelian_b_invariants():
    for p, m, n in [(3, 1, 1), (3, 2, 1), (5, 2, 2)]:
        P = catalog.min_nonabelian_b(p, m, n)
        assert P.order == p ** (m + n + 1)
        assert derived_subgroup(P).order == p


def test_min_nonabelian_b_center_structure():
    # Z(G) = <a^p> x <b^p> x <c> for the three-generator minimal family
    P = catalog.min_nonabelian_b(3, 2, 2)
    z = abelian_invariants(P, center(P))
    assert z.divisors == (3, 3, 3)
    assert center(P).order == 27


def test_family_parameter_errors():
    with pytest.raises(FamilyParameterError):
        catalog.min_nonabelian_a(3, 1, 1)
    with pytest.raises(FamilyParameterError):
        catalog.min_nonabelian_b(2, 1, 1)
    with pytest.raises(FamilyParameterError):
        catalog.extraspecial_e1(2)
    with pytest.raises(FamilyParameterError):
        catalog.g2(3, 1)
    with pytest.raises(FamilyParameterError):
        catalog.g3(2)
    with pytest.raises(FamilyParameterError):
        catalog.g4(2, 2)
    with pytest.raises(FamilyParameterError):
        catalog.g1(3, 2)
    with pytest.raises(FamilyParameterError):
        catalog.make("G6", 5)
    with pytest.raises(FamilyParameterError):
        catalog.make("Q8", 3)
    with pytest.raises(FamilyParameterError):
        catalog.make("NOSUCH", 3)
    with pytest.raises(FamilyParameterError):
        catalog.make("G2", 3, m=2, bogus=1)


def test_g1_structure():
    for n in (3, 4, 5):
        P = catalog.g1(3, n)
        st = structure_stats(P)
        assert P.order == 3 ** n
        assert (st.k, st.d) == (1, n - 1)
        assert st.quotient_type.divisors == tuple([3] * (n - 1))


def test_g2_structure():
    # [PAPER] order p^(2m+1), G/G' homocyclic of type (p^m, p^m)
    for p, m in [(2, 2), (3, 2), (3, 3), (5, 2)]:
        P = catalog.g2(p, m)
        st = structure_stats(P)
        assert P.order == p ** (2 * m + 1)
        assert (st.k, st.d) == (1, 2)
        assert st.quotient_type.divisors == (p ** m, p ** m)


def test_g3_structure():
    P = catalog.g3(3)
    st = structure_stats(P)
    assert (st.n, st.k, st.d, st.nilpotency_class) == (5, 2, 3, 2)
    assert all(_element_order(P, g) == 3 for g in P.gens())


def test_g4_structure():
    for p, m in [(3, 2), (3, 3), (5, 2)]:
        P = catalog.g4(p, m)
        st = structure_stats(P)
        assert P.order == p ** (3 * m)
        assert (st.k, st.d) == (m, 2)
        assert st.quotient_type.divisors == (p ** m, p ** m)
        # Z(G4) = G4' is cyclic of order p^m
        z, der = center(P), derived_subgroup(P)
        assert z.issubset(der) and der.issubset(z)
        assert abelian_invariants(P, z).divisors == (p ** m,)


def test_g5_structure():
    P = catalog.g5(3)
    st = structure_stats(P)
    assert (st.n, st.k, st.d, st.nilpotency_class) == (6, 3, 3, 2)


def test_g6_structure():
    P = catalog.g6()
    st = structure_stats(P)
    assert P.order == 3 ** 7
    assert st.nilpotency_class == 3
    assert (st.k, st.d) == (4, 3)
    assert st.quotient_type.divisors == (3, 3, 3)


def test_make_dispatch():
    assert catalog.make("E1", 3).order == 27
    assert catalog.make("G4", 3, m=2).order == 729
    assert catalog.make("HOMOCYCLIC", 2, m=3, rank=1).order == 8
    assert catalog.make("HOMOCYCLIC", 3, m=0, rank=2).order == 1
    # no generators, so no work proportional to the rank
    assert catalog.make("HOMOCYCLIC", 3, m=0, rank=10 ** 9).order == 1
    assert catalog.make("SMALL", 3, exponent=4, index=1).order == 81
    with pytest.raises(FamilyParameterError):
        catalog.make("SMALL", 3, exponent=4, index=16)


@pytest.mark.parametrize("family,params,message", [
    ("HOMOCYCLIC", {"m": -8, "rank": -9},
     "family HOMOCYCLIC parameter m must be non-negative, got -8"),
    ("MIN_NONAB_A", {"m": -1, "n": 70},
     "family MIN_NONAB_A parameter m must be non-negative, got -1"),
])
def test_negative_parameter_refused_before_generator_count(family, params,
                                                            message):
    # the generator count of negative parameters is no size at all
    with pytest.raises(FamilyParameterError) as exc:
        catalog.make(family, 3, **params)
    assert str(exc.value) == message
    with pytest.raises(FamilyParameterError) as exc:
        catalog.parse(json.dumps({"family": family, "p": 3, **params}))
    assert str(exc.value) == message


# (p, parameters) of a small member of each family
FAMILY_SAMPLES = {
    "HOMOCYCLIC": (3, {"m": 2, "rank": 3}),
    "MIN_NONAB_A": (3, {"m": 3, "n": 2}),
    "MIN_NONAB_B": (5, {"m": 2, "n": 1}),
    "Q8": (2, {}),
    "D8": (2, {}),
    "E1": (5, {}),
    "MODULAR": (3, {"n": 4}),
    "G1": (3, {"n": 5}),
    "G2": (3, {"m": 3}),
    "G3": (5, {}),
    "G4": (3, {"m": 2}),
    "G5": (3, {}),
    "G6": (3, {}),
    "SMALL": (5, {"exponent": 4, "index": 12}),
    "TRIVIAL": (2, {}),
}


@pytest.mark.parametrize("name", list(catalog.FAMILIES))
def test_family_row_matches_constructor(name):
    row = catalog.FAMILIES[name]
    p, params = FAMILY_SAMPLES[name]
    assert tuple(params) == row.params
    assert row.prime in (None, p)
    P = catalog.make(name, p, **params)
    if row.ngens:
        assert P.ngens == row.ngens(**params)
    if name in ("G1", "G2", "G3", "G4", "G5", "G6"):
        argv = ["group", "--family", name, "--p", str(p), "--format", "json"]
        for k, v in params.items():
            argv += [f"--{k}", str(v)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        group = json.loads(out.getvalue())["group"]
        assert group == verify.report(P).family_match


def readme_families():
    """The rows of README's Families table, as lists of cells."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Families\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")]
            for line in lines[2:]]


def test_readme_family_table_matches_catalog():
    rows = readme_families()
    assert [r[0] for r in rows] == list(catalog.FAMILIES)
    for name, params, prime, ngens in rows:
        row = catalog.FAMILIES[name]
        assert params == (", ".join(row.params) or "-")
        assert prime == (str(row.prime) if row.prime else "-")
        # the documented count, a formula in the parameters, holds at the
        # sample member and agrees with the row's own count
        p, sample = FAMILY_SAMPLES[name]
        count = eval(ngens, {}, dict(sample))
        assert count == catalog.make(name, p, **sample).ngens
        if row.ngens:
            assert count == row.ngens(**sample)


# -- small-group tables ----------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_table_counts(p):
    assert len(catalog.small_group_table(p, 3)) == 5
    expected = 14 if p == 2 else 15
    assert len(catalog.small_group_table(p, 4)) == expected


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 3), (3, 4), (5, 3), (5, 4)])
def test_table_entries_consistent_and_right_order(p, e):
    for P in catalog.small_group_table(p, e):
        assert P.order == p ** e
        for tag, lhs, rhs in P.consistency_checks():
            assert lhs == rhs, tag


def test_table_p3_nonabelian_count():
    for p in (2, 3, 5):
        table = catalog.small_group_table(p, 3)
        nonab = [P for P in table if derived_subgroup(P).order > 1]
        assert len(nonab) == 2


def test_table_unsupported():
    with pytest.raises(FamilyParameterError):
        catalog.small_group_table(7, 3)
    with pytest.raises(FamilyParameterError):
        catalog.small_group_table(3, 5)


def _fingerprint(P):
    hist = {}
    for vec in itertools.product(range(P.p), repeat=P.ngens):
        o = _element_order(P, vec)
        hist[o] = hist.get(o, 0) + 1
    st = structure_stats(P)
    return (tuple(sorted(hist.items())), st.k, st.d, st.nilpotency_class,
            st.quotient_type.divisors,
            abelian_invariants(P, center(P)).divisors)


@pytest.mark.parametrize("p,e", [(2, 3), (2, 4), (3, 3), (3, 4), (5, 3)])
def test_table_fingerprints_distinct(p, e):
    fps = [_fingerprint(P) for P in catalog.small_group_table(p, e)]
    assert len(set(fps)) == len(fps)


def test_table_p5_e4_known_collision():
    # the two quadratic-twist maximal-class groups and their order-p^2
    # sibling share all coarse invariants at p = 5; everything else splits
    fps = [_fingerprint(P) for P in catalog.small_group_table(5, 4)]
    from collections import Counter
    counts = sorted(Counter(fps).values(), reverse=True)
    assert counts == [3] + [1] * 12


def test_maximal_class_entries_have_class_three():
    for p in (3, 5):
        table = catalog.small_group_table(p, 4)
        class3 = [P for P in table if nilpotency_class(P) == 3]
        assert len(class3) == 4
    class3_2 = [P for P in catalog.small_group_table(2, 4)
                if nilpotency_class(P) == 3]
    # D16, SD16, Q16
    assert len(class3_2) == 3


# -- serialization ---------------------------------------------------


def test_roundtrip_e1():
    P = catalog.extraspecial_e1(3)
    Q = catalog.parse(catalog.serialize(P))
    assert Q.p == P.p and Q.ngens == P.ngens
    assert Q.power == P.power and Q.comm == P.comm and Q.labels == P.labels


@pytest.mark.parametrize("builder", [
    lambda: catalog.g4(3, 2),
    lambda: catalog.g6(),
    lambda: catalog.quaternion8(),
    lambda: catalog.small_group_table(5, 4)[11],
])
def test_roundtrip_various(builder):
    P = builder()
    Q = catalog.parse(catalog.serialize(P))
    assert Q.power == P.power and Q.comm == P.comm


def test_parse_family_shorthand():
    P = catalog.parse('{"family": "G4", "p": 3, "m": 2}')
    assert P.order == 729


def test_parse_rejects_unknown_shorthand_keys():
    with pytest.raises(PresentationFormatError):
        catalog.parse('{"family": "G4", "p": 3, "m": 2, "x": 1}')


def test_parse_rejects_bad_word_index():
    text = '{"p": 3, "ngens": 2, "comm": {"2,1": [[1, 1]]}}'
    with pytest.raises(PresentationFormatError):
        catalog.parse(text)


def test_parse_rejects_malformed():
    with pytest.raises(PresentationFormatError):
        catalog.parse("not json")
    with pytest.raises(PresentationFormatError):
        catalog.parse('{"p": 3}')
    with pytest.raises(PresentationFormatError):
        catalog.parse('{"p": 3, "ngens": 2, "comm": {"1,2": []}}')


def test_parse_g5_sample():
    text = catalog.serialize(catalog.g5(3))
    st = structure_stats(catalog.parse(text))
    assert (st.n, st.k, st.d) == (6, 3, 3)
