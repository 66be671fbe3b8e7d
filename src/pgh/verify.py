"""Bound formulas, per-group attainment reports, family fingerprint
matching, the named structural condition checks, quotient attainment,
and the classification sweep.

The central bound is |M(G)| <= p^((d-1)(n+k-2)/2 + 1) for a group of
order p^n with |G'| = p^k and d generators.  Attainment comparisons are
done in doubled exponents so that odd products never force rounding.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .capability import is_capable
from .homology import schur_multiplier, stem_cover
from .pcp import (AbelianSection, _central_part, abelian_invariants,
                  abelianization_type, center, derived_subgroup,
                  full_subgroup, log_p, lower_central_series,
                  per_presentation, quotient, structure_stats,
                  subgroup_closure)


def _doubled(n, k, d):
    """(green, niroomand, rai) bound exponents, doubled to stay integral.

    green = n(n-1)/2; the class-independent refinement is
    (n-k-1)(n+k-2)/2 + 1; the generator-sensitive refinement is
    (d-1)(n+k-2)/2 + 1.
    """
    return (n * (n - 1),
            (n - k - 1) * (n + k - 2) + 2,
            (d - 1) * (n + k - 2) + 2)


def bounds(n, k, d):
    """The three multiplier bound exponents for given (n, k, d), as
    `report` stores them: an int when integral, else a Fraction."""
    if n < 1 or not (0 <= k < n) or not (1 <= d <= n - k):
        raise ValueError(f"bad parameters (n={n}, k={k}, d={d})")
    return {name: Fraction(v, 2) if v % 2 else v // 2
            for name, v in zip(("green", "niroomand", "rai"),
                               _doubled(n, k, d))}


def num(x):
    """An exponent as a JSON number: int when integral, else float."""
    return int(x) if x == int(x) else float(x)


@dataclass(frozen=True)
class GroupReport:
    p: int
    n: int
    k: int
    d: int
    nilpotency_class: int
    quotient_type: object
    multiplier: object
    multiplier_exponent: int
    green_exponent: int
    niroomand_exponent: Fraction
    rai_exponent: Fraction
    t: int                      # Green corank n(n-1)/2 - log_p|M|
    attains_rai: bool
    attains_niroomand: bool
    capable: bool
    family_match: str

    def to_json_dict(self, group_desc, checks=None):
        doc = {
            "group": group_desc,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "class": self.nilpotency_class,
            "multiplier": list(self.multiplier.divisors),
            "bounds": {"green": self.green_exponent,
                       "niroomand": num(self.niroomand_exponent),
                       "rai": num(self.rai_exponent)},
            "attains": {"niroomand": self.attains_niroomand,
                        "rai": self.attains_rai},
            "capable": self.capable,
            "family": self.family_match,
        }
        if checks is not None:
            doc["checks"] = [{"name": c.name, "pass": c.passed}
                             for c in checks]
        return doc


def _fingerprint(P):
    st = structure_stats(P)
    ztype = abelian_invariants(P, center(P))
    mult = schur_multiplier(P)
    return (P.p, P.ngens, st.k, st.d, st.nilpotency_class,
            st.quotient_type.divisors, ztype.divisors, mult.divisors)


def _family_candidates(P, st):
    """(name, params) of the family members whose coarse parameters fit
    P, for fingerprinting."""
    p, n = P.p, P.ngens
    if p != 2 and st.nilpotency_class == 2 and st.k == 1 and n >= 3:
        yield "G1", {"n": n}
    if st.k == 1 and st.d == 2 and n % 2 == 1 and n >= 5:
        yield "G2", {"m": (n - 1) // 2}
    if p != 2 and n == 5 and st.k == 2 and st.d == 3:
        yield "G3", {}
    if p != 2 and st.d == 2 and st.k >= 2 and n % 3 == 0 and n // 3 >= 2:
        yield "G4", {"m": n // 3}
    if p != 2 and n == 6 and st.k == 3 and st.d == 3:
        yield "G5", {}
    if p == 3 and n == 7 and st.nilpotency_class == 3:
        yield "G6", {}


def family_match(P):
    """Fingerprint match of P against the classified attainer families.

    A candidate with P's own presentation is P, so it matches without
    being fingerprinted, and P is fingerprinted only for a candidate
    that needs it.  Candidates are built by their family's constructor,
    not by `catalog.make`, whose generator limit guards outside input
    only.
    """
    fp = None
    for name, params in _family_candidates(P, structure_stats(P)):
        try:
            candidate = catalog.FAMILIES[name].build(P.p, **params)
        except catalog.FamilyParameterError:
            continue
        if (candidate.p, candidate.power, candidate.comm) == (
                P.p, P.power, P.comm):
            return catalog.family_tag(name, P.p, params)
        fp = fp or _fingerprint(P)
        if _fingerprint(candidate) == fp:
            return catalog.family_tag(name, P.p, params)
    return None


@per_presentation
def report(P):
    """Full attainment report for a consistent presentation."""
    st = structure_stats(P)
    mult = schur_multiplier(P)
    p = P.p
    mexp = log_p(mult.order, p)
    n, k, d = st.n, st.k, st.d
    green2, nir2, rai2 = _doubled(n, k, max(d, 1))
    nonabelian = k >= 1
    return GroupReport(
        p=p, n=n, k=k, d=d,
        nilpotency_class=st.nilpotency_class,
        quotient_type=st.quotient_type,
        multiplier=mult,
        multiplier_exponent=mexp,
        green_exponent=green2 // 2,
        niroomand_exponent=Fraction(nir2, 2),
        rai_exponent=Fraction(rai2, 2),
        t=green2 // 2 - mexp,
        attains_rai=nonabelian and 2 * mexp == rai2,
        attains_niroomand=nonabelian and 2 * mexp == nir2,
        capable=is_capable(stem_cover(P)),
        family_match=family_match(P),
    )


def report_record(P, group_desc):
    """The full JSON-shaped record: report fields plus the check list."""
    return report(P).to_json_dict(group_desc, check_attainer_conditions(P))


# -- named structural checks ------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""


def check_attainer_conditions(P):
    """The battery of structural conditions tied to bound attainment.

    Conditions that require attainment (or class 2, etc.) are reported
    as applicable=False when the hypothesis fails; an inapplicable check
    always passes.
    """
    rep = report(P)
    out = []
    cls = rep.nilpotency_class
    attains = rep.attains_rai

    def add(name, applicable, passed, detail=""):
        out.append(CheckResult(name, applicable, passed if applicable else True,
                               detail))

    add("homocyclic_quotient", attains, rep.quotient_type.is_homocyclic(),
        f"G/G' = {rep.quotient_type}")
    add("generator_count_2_or_3", attains and rep.k >= 2, rep.d in (2, 3),
        f"d = {rep.d}")
    add("attainer_capable", attains, rep.capable)
    add("no_two_generator_class3_attainer", True,
        not (attains and rep.d == 2 and cls >= 3))
    add("class3_attainer_elementary_quotient", attains and cls >= 3,
        rep.d == 3 and rep.quotient_type.exponent == P.p,
        f"d = {rep.d}, G/G' = {rep.quotient_type}")

    if cls == 2:
        z = center(P)
        gq = abelian_invariants(P, full_subgroup(P), z)
        dtype = abelian_invariants(P, derived_subgroup(P))
        add("center_quotient_exponent", True, gq.exponent == dtype.exponent,
            f"e(G/Z) = {gq.exponent}, e(G') = {dtype.exponent}")
        # d(G/Z) = rank of (G/Z)/(G/Z)' (Burnside basis theorem)
        dq = abelianization_type(quotient(P, z)).rank
        add("derived_rank_bound", True,
            dtype.rank <= dq * (dq - 1) // 2,
            f"d(G') = {dtype.rank}, d(G/Z) = {dq}")
    tag = rep.family_match or ""
    if tag.startswith("G2(") or tag.startswith("G4("):
        ztype = abelian_invariants(P, center(P))
        m = (P.ngens - 1) // 2 if tag.startswith("G2(") else P.ngens // 3
        if tag.startswith("G2("):
            expected = tuple(sorted([P.p ** (m - 1), P.p ** (m - 1), P.p],
                                    reverse=True))
        else:
            expected = (P.p ** m,)
        add("center_structure", True, ztype.divisors == expected,
            f"Z(G) = {ztype}, expected divisors {expected}")
    add("nonnegative_corank", True, rep.t >= 0, f"t = {rep.t}")
    add("bound_monotonic", rep.d <= rep.n - rep.k,
        rep.rai_exponent <= rep.niroomand_exponent)
    return out


# -- quotient attainment ----------------------------------------------


@dataclass(frozen=True)
class QuotientAttainmentReport:
    central_results: tuple    # (description, expected_exp2, actual_exp2, ok)
    gamma_results: tuple      # (i, ok)
    all_ok: bool


def _central_derived_elementary_layer(P):
    """Omega_1(Z(G) & G'), the central elements of order <= p inside G':
    the closure of r^(d/p) over the invariant generators r of Z(G) & G',
    of orders d."""
    section = AbelianSection(P, _central_part(P, derived_subgroup(P).basis))
    return subgroup_closure(P, [P.pow(r, d // P.p) for r, d in
                                zip(section.representatives(), section.divisors)])


def check_quotient_attainment(P):
    """Attainment of the reduced bound by G/K for every central K of
    order p inside G', and by every lower-central-series quotient."""
    rep = report(P)
    if not rep.attains_rai or rep.k < 2:
        raise ValueError("requires an attainer with |G'| >= p^2")
    p = P.p
    n, k, d = rep.n, rep.k, rep.d
    layer = _central_derived_elementary_layer(P)
    r = len(layer.basis)
    central = []
    # one subgroup of order p per projective point of the layer: distinct
    # points of an elementary abelian layer span distinct subgroups
    for coords in itertools.product(range(p), repeat=r):
        if not any(coords):
            continue
        first = next(i for i, c in enumerate(coords) if c)
        if coords[first] != 1:
            continue
        x = layer.from_coords(coords)
        Q = quotient(P, subgroup_closure(P, [x]))
        actual2 = 2 * log_p(schur_multiplier(Q).order, p)
        # |G/K| = p^(n-1) and |(G/K)'| = p^(k-1)
        expected2 = _doubled(n - 1, k - 1, d)[2]
        central.append((P.element_str(x), expected2, actual2,
                        actual2 == expected2))
    gamma = []
    series = lower_central_series(P)
    cls = len(series) - 1
    for i in range(3, cls + 1):
        Q = quotient(P, series[i - 1])
        gamma.append((i, report(Q).attains_rai))
    ok = all(c[3] for c in central) and all(g[1] for g in gamma)
    return QuotientAttainmentReport(tuple(central), tuple(gamma), ok)


# -- classification sweep ---------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    name: str
    report: GroupReport


@dataclass(frozen=True)
class SweepReport:
    entries: tuple
    attainers: tuple           # names attaining the generator-sensitive bound
    family_matches: tuple      # names fingerprint-matching a classified family
    classification_ok: bool    # attainers == family_matches, as sets
    class2_refined_attainers: tuple   # class-2 names attaining the refined bound
    class2_classification_ok: bool

    def to_json_dict(self):
        return {
            "entries": [e.report.to_json_dict(e.name) for e in self.entries],
            "attainers": list(self.attainers),
            "family_matches": list(self.family_matches),
            "classification_ok": self.classification_ok,
            "class2_refined_attainers": list(self.class2_refined_attainers),
            "class2_classification_ok": self.class2_classification_ok,
        }


def sweep_universe(p, *, deep=False):
    """Named list of groups for the classification sweep: the groups of
    order p^3 and p^4, then members of the named families."""
    groups = []
    for e in (3, 4):
        for i, P in enumerate(catalog.small_group_table(p, e)):
            groups.append((f"order_p{e}_{i + 1}", P))
    if p != 2:
        for n in (3, 4, 5):
            groups.append((f"G1(n={n})", catalog.g1(p, n)))
        groups.append(("G2(m=2)", catalog.g2(p, 2)))
        groups.append(("G3", catalog.g3(p)))
        groups.append(("G4(m=2)", catalog.g4(p, 2)))
        groups.append(("G5", catalog.g5(p)))
        groups.append(("MIN_NONAB_A(3,2)", catalog.min_nonabelian_a(p, 3, 2)))
        groups.append(("MIN_NONAB_B(2,2)", catalog.min_nonabelian_b(p, 2, 2)))
    else:
        groups.append(("MIN_NONAB_A(3,2)", catalog.min_nonabelian_a(2, 3, 2)))
    if p == 3 and deep:
        groups.append(("G6", catalog.g6()))
    return groups


def sweep_classification(p, *, deep=False):
    """Verify that bound attainers are exactly the classified families.

    Also checks the class-2 classification for the refined (d = n-k)
    bound: class-2 attainers of that bound must fingerprint-match one of
    its three stated families (which coincide with G1, G3, G5 here).
    """
    entries = [SweepEntry(name, report(P))
               for name, P in sweep_universe(p, deep=deep)]
    attainers = tuple(e.name for e in entries if e.report.attains_rai)
    matches = tuple(e.name for e in entries if e.report.family_match)
    class2 = tuple(e.name for e in entries
                   if e.report.nilpotency_class == 2
                   and e.report.attains_niroomand)
    class2_families = ("G1(", "G3(", "G5(")
    class2_ok = all(
        e.report.family_match is not None
        and e.report.family_match.startswith(class2_families)
        for e in entries if e.name in class2)
    return SweepReport(
        entries=tuple(entries),
        attainers=attainers,
        family_matches=matches,
        classification_ok=set(attainers) == set(matches),
        class2_refined_attainers=class2,
        class2_classification_ok=class2_ok,
    )
