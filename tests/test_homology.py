"""Schur multipliers, stem covers, exterior squares, the class-2 exact
sequence, and the class-3 wedge inequality."""

import hashlib
import itertools
import math
import pathlib
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgh.snf
from pgh import catalog, homology
from pgh.capability import epicenter
from pgh.homology import (ExactSequenceReport, WedgeInequalityReport,
                          _check_stem_extension, abelian_multiplier,
                          be_sequence, central_quotient_section,
                          exterior_square_order, psi2_image, psi3_image,
                          schur_multiplier, stem_cover, tails_system,
                          tensor_abelian, thm25_check)
from pgh.pcp import (AbelianSection, AbelianType, PcPresentation,
                     _central_part, abelianization_type, center,
                     derived_subgroup, direct_product, frattini_subgroup,
                     full_subgroup, log_p, lower_central_series,
                     nilpotency_class, structure_stats, subgroup_closure,
                     trivial_subgroup)
from pgh.snf import smith_normal_form
from pgh.verify import sweep_universe
from test_snf import densify, transform_bits


def _abelian_presentation(p, divisors):
    P = catalog.cyclic(p, log_p(divisors[0], p))
    for d in divisors[1:]:
        P = direct_product(P, catalog.cyclic(p, log_p(d, p)))
    return P


# -- multiplier values -----------------------------------------------


def test_multiplier_extraspecial():
    # [PAPER] M(E1) is elementary abelian of order p^2
    for p in (3, 5, 1009):
        assert schur_multiplier(catalog.extraspecial_e1(p)).divisors == (p, p)


def test_multiplier_d8_q8():
    # [DERIVED] classical values: M(D8) = Z2, M(Q8) = 1
    assert schur_multiplier(catalog.dihedral8()).divisors == (2,)
    assert schur_multiplier(catalog.quaternion8()).divisors == ()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_multiplier_two_generator_family(p, m):
    # [PAPER] M(G2(p, m)) = Z_{p^(m-1)} x Z_p x Z_p
    got = schur_multiplier(catalog.g2(p, m))
    assert got.divisors == tuple(sorted((p ** (m - 1), p, p), reverse=True))


def test_multiplier_g3():
    # [DERIVED] elementary abelian of order p^6; also the attained bound value
    got = schur_multiplier(catalog.g3(3))
    assert got.divisors == (3,) * 6


def test_multiplier_g4():
    # [DERIVED] homocyclic of type (p^m, p^m)
    assert schur_multiplier(catalog.g4(3, 2)).divisors == (9, 9)
    assert schur_multiplier(catalog.g4(5, 2)).divisors == (25, 25)


def test_multiplier_g5():
    assert schur_multiplier(catalog.g5(3)).divisors == (3,) * 8


@pytest.mark.slow
def test_multiplier_g6():
    # [PAPER] |M(G6)| = 3^10 attains the bound with (n,k,d) = (7,4,3)
    assert schur_multiplier(catalog.g6()).divisors == (3,) * 10


def test_multiplier_modular_group_trivial():
    assert schur_multiplier(catalog.modular_group(3, 4)).divisors == ()


def test_tails_free_rank_matches_generators():
    P = catalog.g2(3, 2)
    sys_ = tails_system(P)
    assert sys_.tail_count - len(sys_.diagonal) == P.ngens


# -- abelian oracle --------------------------------------------------


def test_abelian_multiplier_formula():
    # M(Z_a x Z_b) = Z_gcd(a,b); pairwise gcds in general
    t = AbelianType.from_divisors([9, 3])
    assert abelian_multiplier(t).divisors == (3,)
    t = AbelianType.from_divisors([4, 4, 2])
    assert abelian_multiplier(t).divisors == (4, 2, 2)


def test_tensor_abelian():
    a = AbelianType.from_divisors([9, 3])
    b = AbelianType.from_divisors([3,])
    assert tensor_abelian(a, b).divisors == (3, 3)


divisor_lists = st.lists(st.integers(1, 3), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 5]), divisor_lists)
def test_abelian_oracle_equivalence(p, exps):
    divisors = sorted((p ** e for e in exps), reverse=True)
    t = AbelianType.from_divisors(divisors)
    P = _abelian_presentation(p, divisors)
    assert schur_multiplier(P) == abelian_multiplier(t)


def test_abelian_multiplier_closed_form_at_rank_32():
    # a 496 x 528 tails matrix; M(C_3^32) = C_3^(32*31/2)
    P = catalog.elementary_abelian(3, 32)
    M = schur_multiplier(P)
    assert M == abelian_multiplier(abelianization_type(P))
    assert M.divisors == (3,) * 496


def test_abelian_multiplier_closed_form_at_rank_64():
    # a 2016 x 2080 tails matrix; no assoc test of C_3^64 runs, since every
    # letter is central, so the rows come from the power tests alone
    P = catalog.elementary_abelian(3, 64)
    M = schur_multiplier(P)
    assert M == abelian_multiplier(abelianization_type(P))
    assert M.divisors == (3,) * 2016


def test_elementary_abelian_multiplier_at_rank_20():
    # no entry of its sparse 190 x 210 tails matrix is a unit, so every
    # pivot search reads the whole trailing block
    P = catalog.elementary_abelian(3, 20)
    assert schur_multiplier(P) == abelian_multiplier(
        AbelianType.from_divisors([3] * 20))


@pytest.mark.parametrize("p", [2, 3])
def test_kunneth_direct_products(p):
    # [DERIVED] Kunneth: M(G x H) = M(G) + M(H) + (G^ab (x) H^ab)
    table = catalog.small_group_table(p, 3)
    for G, H in itertools.combinations_with_replacement(table, 2):
        tensor = tensor_abelian(abelianization_type(G), abelianization_type(H))
        want = AbelianType.from_divisors(schur_multiplier(G).divisors
                                         + schur_multiplier(H).divisors
                                         + tensor.divisors)
        assert schur_multiplier(direct_product(G, H)) == want, (G, H)


# -- stem covers -----------------------------------------------------


@pytest.mark.parametrize("builder", [
    lambda: catalog.extraspecial_e1(3),
    lambda: catalog.g2(3, 2),
    lambda: catalog.g4(3, 2),
    lambda: catalog.quaternion8(),
    lambda: catalog.modular_group(3, 3),
])
@pytest.mark.parametrize("variant", [0, 1])
def test_stem_cover_invariants(builder, variant):
    P = builder()
    cover = stem_cover(P, variant=variant)
    mult = schur_multiplier(P)
    assert cover.E.order == P.order * mult.order
    assert AbelianType.from_divisors(cover.divisors) == mult
    # kernel is central and inside E'
    der = derived_subgroup(cover.E)
    for b in cover.M.basis:
        assert der.contains(b)
        for g in cover.E.gens():
            assert cover.E.commutator(b, g) == cover.E.identity()
    # projection is a homomorphism on generator products
    for x in P.gens():
        for y in P.gens():
            lhs = cover.project(cover.E.mult(cover.lift(x), cover.lift(y)))
            assert lhs == P.mult(x, y)


def test_exterior_square_orders():
    # [DERIVED] |G ^ G| = |M(G)| * |G'|
    assert exterior_square_order(catalog.extraspecial_e1(3)) == 27
    assert exterior_square_order(catalog.g5(3)) == 3 ** 11
    assert exterior_square_order(catalog.dihedral8()) == 4


# -- exact sequence (class 2) ----------------------------------------


@pytest.mark.parametrize("builder,kernel", [
    (lambda: catalog.extraspecial_e1(3), 1),
    (lambda: catalog.g2(3, 2), 1),
    (lambda: catalog.g4(3, 2), 1),
    (lambda: catalog.g5(3), 3),
])
def test_exact_sequence_kernels(builder, kernel):
    # [DERIVED] kernel orders forced by the order identity
    be = be_sequence(builder())
    assert be.ok()
    assert be.kernel_order == kernel
    assert be.order_identity_ok
    assert be.jacobi_in_kernel and be.power_in_kernel


def test_exact_sequence_identity_all_class2():
    for P in [catalog.dihedral8(), catalog.quaternion8(),
              catalog.min_nonabelian_a(3, 2, 2), catalog.g3(3)]:
        be = be_sequence(P)
        assert (be.tensor_order * be.quotient_multiplier_order
                == be.kernel_order * be.multiplier_order * be.derived_order)


def test_exact_sequence_requires_class_two():
    with pytest.raises(ValueError):
        be_sequence(catalog.elementary_abelian(3, 2))


# -- trilinear/quadrilinear image orders and the wedge inequality ----


def test_psi_images():
    # [DERIVED] frozen image orders
    assert psi2_image(catalog.extraspecial_e1(3)) == 1
    assert psi2_image(catalog.g5(3)) == 3
    assert psi3_image(catalog.g5(3)) == 1
    # [DERIVED] the maximal-class groups of order p^4 (odd p): a nontrivial
    # quadrilinear image, of order p
    for p in (3, 5):
        groups = dict(sweep_universe(p))
        for i in range(12, 16):
            P = groups[f"order_p4_{i}"]
            assert nilpotency_class(P) == 3
            assert (psi2_image(P), psi3_image(P)) == (1, p)


@pytest.mark.slow
def test_psi_images_class3():
    assert psi2_image(catalog.g6()) == 3
    assert psi3_image(catalog.g6()) == 1


@pytest.mark.parametrize("builder,margin", [
    (lambda: catalog.extraspecial_e1(3), (3, 3)),
    (lambda: catalog.g5(3), (12, 12)),
])
def test_wedge_inequality_margins(builder, margin):
    w = thm25_check(builder())
    assert w.holds
    assert (w.lhs_exponent, w.rhs_exponent) == margin


@pytest.mark.slow
def test_wedge_inequality_g6():
    w = thm25_check(catalog.g6())
    assert w.holds
    assert (w.lhs_exponent, w.rhs_exponent) == (15, 15)


def test_wedge_inequality_rejects_high_class():
    # maximal-class order-2^5 would exceed class 3; build one of class 4
    power = [(), ((2, 1),), ((3, 1),), ((4, 1),), ()]
    comm = {(1, 0): ((2, 1), (3, 1), (4, 1)), (2, 0): ((3, 1), (4, 1)),
            (3, 0): ((4, 1),)}
    P = PcPresentation(2, 5, power, comm)
    assert nilpotency_class(P) == 4
    with pytest.raises(ValueError):
        thm25_check(P)


# -- the coordinate checks against the tensor-group route -------------
#
# be_sequence, psi2_image and psi3_image as they were before they read
# their orders off coordinates: the image of g closed as a subgroup of the
# cover, and the psi images spanned in an explicit tensor group.


class _TensorGroup:
    """The tensor product of two abelian sections, as explicit vectors.

    Elements are tuples over the (i, j) grid with entry (i, j) taken
    modulo gcd(a_i, b_j).
    """

    def __init__(self, A, B):
        self.A = A
        self.B = B
        self.moduli = [math.gcd(a, b) for a in A.divisors for b in B.divisors]

    @property
    def order(self):
        result = 1
        for g in self.moduli:
            result *= g
        return result

    def simple(self, ca, cb):
        nb = len(self.B.divisors)
        out = []
        for i in range(len(self.A.divisors)):
            for j in range(nb):
                out.append((ca[i] * cb[j]) % self.moduli[i * nb + j])
        return tuple(out)

    def pair(self, x, y):
        return self.simple(self.A.coords(x), self.B.coords(y))

    def add(self, u, v):
        return tuple((a + b) % m for a, b, m in zip(u, v, self.moduli))

    def subgroup_order(self, vectors):
        t = len(self.moduli)
        if t == 0:
            return 1
        rows = [{j: x for j, x in enumerate(v) if x} for v in vectors]
        rows += [{i: m} for i, m in enumerate(self.moduli)]
        p = self.A.P.p
        snf = smith_normal_form(rows, ncols=t, p=p,
                                e=log_p(max(self.moduli), p) + 1)
        covol = 1
        for d in snf.diagonal:
            covol *= d
        assert snf.rank == t
        return self.order // covol


def _be_sequence_reference(P):
    cover = stem_cover(P)
    E = cover.E
    derived = lower_central_series(P)[1]
    sa = AbelianSection(P, derived)
    sb = AbelianSection(P, full_subgroup(P), derived)
    tensor_type = tensor_abelian(sa.type, sb.type)

    def g_value(x, z):
        return E.commutator(cover.lift(x), cover.lift(z))

    image_gens = [g_value(x, z)
                  for x in sa.representatives() for z in sb.representatives()]
    for v in image_gens:
        if not cover.M.contains(v):
            raise AssertionError("image of g escapes M")
    image = (subgroup_closure(E, image_gens) if image_gens
             else trivial_subgroup(E))
    tensor_order = tensor_type.order
    kernel_order = tensor_order // image.order
    m_order = cover.M.order
    qm_order = abelian_multiplier(sb.type).order
    k_order = derived.order
    identity_ok = (kernel_order * m_order * k_order
                   == tensor_order * qm_order)
    gens = P.gens()
    jacobi_ok = True
    for x, y, z in itertools.product(gens, repeat=3):
        val = E.mult(g_value(P.commutator(x, y), z),
                     E.mult(g_value(P.commutator(z, x), y),
                            g_value(P.commutator(y, z), x)))
        if val != E.identity():
            jacobi_ok = False
    ps = sb.type.exponent
    probes = list(gens)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            probes.append(P.mult(gens[i], gens[j]))
    power_ok = all(g_value(P.pow(w, ps), w) == E.identity() for w in probes)
    return ExactSequenceReport(
        tensor_order=tensor_order, image_order=image.order,
        kernel_order=kernel_order, multiplier_order=m_order,
        quotient_multiplier_order=qm_order, derived_order=k_order,
        order_identity_ok=identity_ok, jacobi_in_kernel=jacobi_ok,
        power_in_kernel=power_ok)


def _psi2_reference(P):
    series = lower_central_series(P)
    derived = series[1]
    gamma3 = series[2] if len(series) > 2 else trivial_subgroup(P)
    src = central_quotient_section(P)
    T = _TensorGroup(AbelianSection(P, derived, gamma3),
                     AbelianSection(P, full_subgroup(P), derived))
    reps = src.representatives()
    vecs = []
    for x, y, z in itertools.product(reps, repeat=3):
        v = T.pair(P.commutator(x, y), z)
        v = T.add(v, T.pair(P.commutator(z, x), y))
        v = T.add(v, T.pair(P.commutator(y, z), x))
        vecs.append(v)
    return T.subgroup_order(vecs)


def _psi3_reference(P):
    series = lower_central_series(P)
    if len(series) - 1 < 3:
        return 1
    gamma4 = series[3] if len(series) > 3 else trivial_subgroup(P)
    src = central_quotient_section(P)
    T = _TensorGroup(AbelianSection(P, series[2], gamma4), src)
    reps = src.representatives()
    vecs = []
    for x, y, z, w in itertools.product(reps, repeat=4):
        xy, zw = P.commutator(x, y), P.commutator(z, w)
        v = T.pair(P.commutator(xy, z), w)
        v = T.add(v, T.pair(P.commutator(w, xy), z))
        v = T.add(v, T.pair(P.commutator(zw, x), y))
        v = T.add(v, T.pair(P.commutator(y, zw), x))
        vecs.append(v)
    return T.subgroup_order(vecs)


def _thm25_reference(P):
    st = structure_stats(P)
    p = P.p
    lhs = exterior_square_order(P) * _psi2_reference(P) * _psi3_reference(P)
    rhs = abelian_multiplier(st.quotient_type).order * p ** (st.k * st.d)
    return WedgeInequalityReport(lhs_exponent=log_p(lhs, p),
                                 rhs_exponent=log_p(rhs, p), holds=lhs <= rhs)


@pytest.mark.parametrize("p,groups,class2", [(2, 20, 9), (3, 30, 17),
                                              (5, 29, 17)])
def test_coordinate_checks_agree_with_the_tensor_group_route(p, groups,
                                                             class2):
    counts = [0, 0]
    for name, P in sweep_universe(p, deep=True):
        cls = nilpotency_class(P)
        assert cls <= 3
        if cls == 2:
            assert be_sequence(P) == _be_sequence_reference(P), name
            counts[1] += 1
        assert psi2_image(P) == _psi2_reference(P), name
        assert psi3_image(P) == _psi3_reference(P), name
        assert thm25_check(P) == _thm25_reference(P), name
        counts[0] += 1
    assert counts == [groups, class2]


def test_be_sequence_rejects_an_image_outside_m(monkeypatch):
    # hand be_sequence a maximal-class group whose lower central series
    # is cut to class 2: there G' is not central, so for some x in G' and
    # some z the words xz and zx collect to different normal forms, and
    # [x^, z^] has a nonzero exponent below M
    Q = dict(sweep_universe(3))["order_p4_12"]
    series = lower_central_series(Q)
    assert len(series) - 1 == nilpotency_class(Q) == 3
    monkeypatch.setattr(homology, "lower_central_series",
                        lambda _: (series[0], series[1], series[-1]))
    with pytest.raises(AssertionError, match="image of g escapes M"):
        be_sequence(Q)


# -- byte identity ----------------------------------------------------

# sha256 of the tails systems and stem covers below, recorded from the
# Smith normal form over Z/p^(n+1), which gives other U and V than the
# integer SNF did, so other covers; any change to the collector's order
# of rule applications, to the SNF pivots or to its modulus moves it.  It
# read 6a901871caa0...2f8f34 while the SNF's pivot ties went to the first
# row and the leftmost column; the fewest-nonzeros tie-breaks give other
# U and V, so other covers, with the same diagonals.
TAILS_AND_COVERS_SHA256 = (
    "573d8bbea25a6586dd54f29b600bdb1a1b1f8afbeae8ee9c2557fe3b3d03ae7a")


def _digest_groups():
    for p in (2, 3, 5):
        for _, P in sweep_universe(p, deep=True):
            yield P
    yield catalog.g4(3, 3)
    yield catalog.g1(3, 7)
    yield catalog.homocyclic(3, 3, 3)


def test_tails_systems_and_stem_covers_are_byte_identical():
    h = hashlib.sha256()
    count = 0
    for P in _digest_groups():
        count += 1
        ts = tails_system(P)
        # the tails system keeps the diagonal and V; U is recomputed
        snf = smith_normal_form(ts.relation_matrix, ncols=ts.tail_count,
                                p=P.p, e=P.ngens + 1)
        assert (snf.diagonal, snf.V) == (ts.diagonal, ts.V)
        for part in (densify(ts.relation_matrix, snf.cols), snf.diagonal,
                     densify(snf.U, snf.rows),
                     densify(snf.V, snf.cols, columns=True)):
            h.update(repr(part).encode())
        for variant in (0, 1):
            h.update(catalog.serialize(stem_cover(P, variant).E).encode())
    assert count == 82
    assert h.hexdigest() == TAILS_AND_COVERS_SHA256


# sha256 of the tails systems of both stem covers of each group above and
# of the shuffled-row cover of G4(3,3): a cover's central block is its
# multiplier M, so these are the widest blocks a tails system meets here.
# It read 5421f3419f48...49fb0 before the fewest-nonzeros tie-breaks, which
# change the covers and the V of each of their tails systems.
COVER_TAILS_SHA256 = (
    "49020044580753070c7f879f7221417a1d86dd150a8ece87113eb54eff4579e5")


def test_tails_systems_of_covers_are_byte_identical():
    covers = [stem_cover(P, variant).E
              for P in _digest_groups() for variant in (0, 1)]
    covers.append(catalog.load(SHUFFLED_COVER))
    h = hashlib.sha256()
    for E in covers:
        ts = tails_system(E)
        for part in (ts.relation_matrix, ts.diagonal, ts.V):
            h.update(repr(part).encode())
    assert len(covers) == 165
    assert h.hexdigest() == COVER_TAILS_SHA256


def _inverse(columns, p, q):
    """The inverse mod q = p^e of the matrix with these sparse columns,
    by Gauss-Jordan elimination with unit pivots; it must be invertible."""
    m = len(columns)
    a = [[col.get(i, 0) % q for col in columns]
         + [int(i == k) for k in range(m)] for i in range(m)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if a[r][c] % p)
        a[c], a[pivot] = a[pivot], a[c]
        inv = pow(a[c][c], -1, q)
        a[c] = [x * inv % q for x in a[c]]
        for r in range(m):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[c])]
    return [row[m:] for row in a]


def _sections(P):
    """Z(G), G', G/G', G/G'Z(G), each gamma_i/gamma_(i+1) and Z(G) & G',
    the sections pgh builds on a group."""
    derived = derived_subgroup(P)
    yield AbelianSection(P, center(P))
    yield AbelianSection(P, derived)
    yield AbelianSection(P, full_subgroup(P), derived)
    yield central_quotient_section(P)
    series = lower_central_series(P)
    for upper, lower in zip(series, series[1:]):
        yield AbelianSection(P, upper, lower)
    yield AbelianSection(P, _central_part(P, derived.basis))


def test_section_representatives_are_the_rows_of_v_inverse():
    # representatives() reads V^-1's torsion rows off U * A mod p^e; here
    # V^-1 is inverted mod p^e, which is a multiple of every element
    # order of N, and each representative must have unit coordinates
    sections = reps_count = 0
    for P in _digest_groups():
        cover = stem_cover(P)
        # M as a general section of its cover, as well as P's own sections
        for section in (*_sections(P), AbelianSection(cover.E, cover.M)):
            reps = section.representatives()
            sections += 1
            reps_count += len(reps)
            v_inv = _inverse(section.V, P.p, section._modulus)
            assert reps == [section.N.from_coords(v_inv[idx])
                            for idx, _ in section.torsion]
            for i, x in enumerate(reps):
                assert section.coords(x) == tuple(
                    int(i == j) for j in range(len(reps)))
    assert (sections, reps_count) == (643, 1073)


def test_tails_snf_of_a_cover_keeps_small_transforms():
    # the tails matrix of the cover of G4(3,3), 355 x 120 from the integer
    # SNF's V and 354 x 120 from the local one: with the floor
    # quotient of the integer SNF U reached 1,352 bits and V 312; mod
    # 3^16 every entry is below 3^16 / 2, 25 bits
    E = stem_cover(catalog.g4(3, 3)).E
    ts = tails_system(E)
    res = smith_normal_form(ts.relation_matrix, ncols=ts.tail_count,
                            p=3, e=E.ngens + 1)
    assert (res.rows, res.cols, E.ngens) == (354, 120, 15)
    assert res.diagonal == ts.diagonal
    assert transform_bits(res) <= 25


SHUFFLED_COVER = (pathlib.Path(__file__).parent / "data"
                  / "g4_3_3_shuffled_cover.json")


def _over_budget(signum, frame):
    raise TimeoutError("M of the shuffled-row cover took over 5 s")


def test_multiplier_of_a_shuffled_row_cover_is_fast():
    # a stem cover of G4(3,3) built with its 97 tails rows shuffled by
    # random.Random(2) before the SNF; the integer SNF of this cover's
    # own 355 x 120 tails matrix did not finish in 60 s
    E = catalog.load(SHUFFLED_COVER)
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        M = schur_multiplier(E)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert (E.ngens, len(tails_system(E).relation_matrix)) == (15, 355)
    assert M == AbelianType.from_divisors([27, 27, 9])


def test_a_multiplier_never_builds_u(monkeypatch):
    # M(G) reads the diagonal and V of the tails SNF only, so its log of
    # row operations is never replayed onto identity rows to build U;
    # the epicenter reads U, which shows that the count sees it
    replay = pgh.snf._replay
    built = []

    def counted(log, rows, q):
        if all(row == {i: 1} for i, row in enumerate(rows)):
            built.append(len(rows))
        return replay(log, rows, q)

    monkeypatch.setattr(pgh.snf, "_replay", counted)
    P = catalog.g4(3, 3)
    assert schur_multiplier(P) == AbelianType.from_divisors([27, 27])
    assert built == []
    assert not epicenter(P).basis
    assert built


def test_tails_system_holds_no_dense_square():
    # a dense U and V for EA(3,24)'s 276 x 300 tails matrix hold 276^2 +
    # 300^2 references of 8 bytes, 1.3 MiB; a dense tails system holds
    # 2.8 MiB in all, and the sparse one 0.2 MiB
    P = catalog.elementary_abelian(3, 24)
    tracemalloc.start()
    try:
        ts = tails_system(P)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows, cols = len(ts.relation_matrix), ts.tail_count
    assert (rows, cols) == (276, 300)
    assert held < (rows ** 2 + cols ** 2) * 8 / 4


# -- stem-cover self-checks -------------------------------------------


def test_stem_extension_checks_agree_with_the_closure_route():
    # stem_cover reads M <= E' and M <= Z(E) off the presentation; here
    # the derived subgroup is closed and every [b, g] is collected instead
    for P in _digest_groups():
        for variant in (0, 1):
            cover = stem_cover(P, variant)
            E = cover.E
            der = derived_subgroup(E)
            assert abelianization_type(E).order * der.order == E.order
            assert cover.M.issubset(der)
            for b in cover.M.basis:
                for g in E.gens():
                    assert E.commutator(b, g) == E.identity()


def _epicenter_via_section(cover):
    # capability.epicenter as it was when it read M's coordinates from
    # AbelianSection(E, M) rather than from the cover's chains
    P, E = cover.base, cover.E
    zsec = AbelianSection(P, center(P))
    zs = zsec.representatives()
    phi = set(frattini_subgroup(P).leading_indices())
    gs = [cover.lift(P.gen(i)) for i in range(P.ngens) if i not in phi]
    msec = AbelianSection(E, cover.M)
    N = max(msec.divisors, default=1)
    rows = []
    for z in zs:
        zhat = cover.lift(z)
        row = []
        for g in gs:
            c = msec.coords(E.commutator(zhat, g))
            row.extend(ci * (N // d) for ci, d in zip(c, msec.divisors))
        rows.append({j: x for j, x in enumerate(row) if x})
    snf = smith_normal_form(rows, ncols=len(gs) * len(msec.divisors),
                            p=P.p,
                            e=log_p(max((N, *zsec.divisors)), P.p) + 1)
    diag = snf.diagonal + [0] * (len(zs) - snf.rank)
    gens = []
    for u, d in zip(snf.U, diag):
        scale = N // math.gcd(N, d)
        z = P.identity()
        for j, (zj, order) in enumerate(zip(zs, zsec.divisors)):
            z = P.mult(z, P.pow(zj, scale * u.get(j, 0) % order))
        gens.append(z)
    return subgroup_closure(P, gens)


def test_multiplier_coords_agree_with_the_section_route():
    # stem_cover lays M out as chains and reads coordinates off them; here
    # M is rebuilt as a general abelian section of E, which re-proves M
    # abelian and sifts its basis, and the epicenter is recomputed from it
    for P in _digest_groups():
        for variant in (0, 1):
            cover = stem_cover(P, variant)
            E, ds = cover.E, cover.divisors
            assert AbelianSection(E, cover.M).type == AbelianType.from_divisors(cover.divisors)
            for j, chain in enumerate(cover.chains):
                assert cover.multiplier_coords(E.gen(chain[0])) == tuple(
                    int(i == j) for i in range(len(ds)))
            coords = {b: cover.multiplier_coords(b) for b in cover.M.basis}
            for a, b in itertools.product(cover.M.basis, repeat=2):
                assert cover.multiplier_coords(E.mult(a, b)) == tuple(
                    (x + y) % d for x, y, d in zip(coords[a], coords[b], ds))
            want = _epicenter_via_section(cover)
            got = epicenter(P, variant)
            assert got.issubset(want) and want.issubset(got)


def test_multiplier_coords_reject_elements_outside_m():
    cover = stem_cover(catalog.g4(3, 2))
    with pytest.raises(ValueError, match="not in the multiplier"):
        cover.multiplier_coords(cover.lift(cover.base.gen(0)))


def test_stem_extension_checks_reject_mutants():
    # G = C_3^3; E is the free class-2 group on three generators, and M
    # is spanned by its last three generators [g2, g1], [g3, g1], [g3, g2]
    P = catalog.elementary_abelian(3, 3)
    E = stem_cover(P).E
    assert (P.ngens, E.ngens) == (3, 6)
    _check_stem_extension(P, E)
    # E x C_3: the extra central generator has no tail, so M is not in E'
    wider = direct_product(E, catalog.cyclic(3, 1))
    assert not derived_subgroup(wider).contains(wider.gen(6))
    with pytest.raises(AssertionError, match="M is not contained in E'"):
        _check_stem_extension(P, wider)
    # [g4, g1] = g5 added (a consistent presentation): M is not central
    bad = PcPresentation(3, 6, E.power, {**E.comm, (3, 0): ((4, 1),)})
    assert bad.commutator(bad.gen(3), bad.gen(0)) == bad.gen(4)
    with pytest.raises(AssertionError, match="M is not central in E"):
        _check_stem_extension(P, bad)
