"""Polycyclic presentations: collection, consistency, subgroup and
series machinery, quotients, and abelian invariants."""

import collections
import functools
import importlib.util
import itertools
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgh import catalog, homology, pcp
from pgh.cli import _catalog_groups
from pgh.homology import stem_cover, tails_system
from pgh.pcp import (AbelianType, PcPresentation, Subgroup, _leading,
                     _overlaps, _tail_count, _tail_slot, abelian_invariants,
                     abelianization_type, center, check_prime,
                     derived_subgroup, direct_product, frattini_subgroup,
                     full_subgroup, log_p, lower_central_series,
                     nilpotency_class, quotient, structure_stats,
                     subgroup_closure)

SMALL_TABLES = [P for p in (2, 3, 5) for e in (3, 4)
                for P in catalog.small_group_table(p, e)]


@pytest.fixture
def d8():
    return catalog.dihedral8()


@pytest.fixture
def q8():
    return catalog.quaternion8()


@pytest.fixture
def e1():
    return catalog.extraspecial_e1(3)


def test_order_property(d8, e1):
    assert d8.order == 8
    assert e1.order == 27


def test_identity_and_inverse(e1):
    for x in [e1.gen(0), e1.gen(1), e1.mult(e1.gen(0), e1.gen(1))]:
        assert e1.mult(x, e1.inv(x)) == e1.identity()
        assert e1.mult(e1.inv(x), x) == e1.identity()


def _element_order(P, x):
    """The order of x: p^k for the least k with x^(p^k) = 1."""
    k = 1
    while x != P.identity():
        x = P.pow(x, P.p)
        k *= P.p
    return k


def test_element_orders_d8(d8):
    # [TRIVIAL] D8: reflection s has order 2, rotation r has order 4
    assert _element_order(d8, d8.gen(1)) == 2
    assert _element_order(d8, d8.gen(0)) == 4


def test_q8_unique_involution(q8):
    # [TRIVIAL] Q8 has exactly one element of order 2
    involutions = 0
    import itertools
    for vec in itertools.product(range(2), repeat=3):
        if _element_order(q8, vec) == 2:
            involutions += 1
    assert involutions == 1


def test_commutator_convention(e1):
    # [x, y] = x^-1 y^-1 x y; in E1, [b, a] = c^-1 per the stored rule
    a, b = e1.gen(0), e1.gen(1)
    lhs = e1.commutator(b, a)
    assert lhs == e1.inv(e1.gen(2))


def test_inconsistent_presentation_rejected():
    # g2 central of order p but g1^p = g2 forces order p^2 on g1's image:
    # inconsistent power overlap must be detected
    with pytest.raises(ValueError):
        PcPresentation(3, 2, [((1, 1),), ()], {(1, 0): ((1, 1),)})


def test_consistency_checks_cover_trivial_group():
    P = catalog.extraspecial_e1(5)
    for tag, lhs, rhs in P.consistency_checks():
        assert lhs == rhs


def test_center_of_extraspecial(e1):
    z = center(e1)
    assert z.order == 3
    assert z.basis == derived_subgroup(e1).basis


def test_center_of_d8(d8):
    assert center(d8).order == 2


def test_lower_central_series_q8(q8):
    series = lower_central_series(q8)
    assert [s.order for s in series] == [8, 2, 1]
    assert nilpotency_class(q8) == 2


def test_frattini_subgroup_elementary_abelian():
    P = catalog.elementary_abelian(5, 3)
    assert frattini_subgroup(P).order == 1


def test_frattini_subgroup_d8(d8):
    assert frattini_subgroup(d8).order == 2


def test_subgroup_closure_normal(e1):
    sub = subgroup_closure(e1, [e1.gen(0)])
    # <a> has order 3; its normal closure picks up the commutators
    normal = subgroup_closure(e1, [e1.gen(0)], normal=True)
    assert sub.order == 3
    assert normal.order == 9


def test_subgroups_compare_by_content():
    P = catalog.elementary_abelian(3, 2)
    a, b = P.gen(0), P.gen(1)
    ab = P.mult(a, b)
    assert Subgroup(P, [a, b]) == Subgroup(P, [ab, b])
    assert hash(Subgroup(P, [a, b])) == hash(Subgroup(P, [ab, b]))
    assert Subgroup(P, [a]) != Subgroup(P, [ab])
    assert Subgroup(P, [b]) != Subgroup(P, [a])
    assert Subgroup(P, [a]) != Subgroup(catalog.elementary_abelian(3, 2), [a])


def test_subgroup_membership(e1):
    der = derived_subgroup(e1)
    assert der.contains(e1.gen(2))
    assert not der.contains(e1.gen(0))


def projection(P, N):
    """The map P -> P/N onto quotient(P, N): the exponents of x, sifted
    through N, on the generators that N does not lead."""
    dead = set(N.leading_indices())
    keep = [i for i in range(P.ngens) if i not in dead]

    def proj(x):
        rep = N.sift(x)
        assert all(rep[i] == 0 for i in dead)
        return tuple(rep[i] for i in keep)
    return proj


def test_quotient_central(e1):
    Q = quotient(e1, center(e1))
    proj = projection(e1, center(e1))
    assert Q.order == 9
    assert abelianization_type(Q).divisors == (3, 3)
    x = proj(e1.gen(0))
    assert _element_order(Q, x) == 3


def test_quotient_projection_is_homomorphism(q8):
    Q = quotient(q8, derived_subgroup(q8))
    proj = projection(q8, derived_subgroup(q8))
    for x in q8.gens():
        for y in q8.gens():
            assert proj(q8.mult(x, y)) == Q.mult(proj(x), proj(y))


def test_abelian_invariants_of_section():
    P = catalog.homocyclic(3, 2, 2)
    t = abelian_invariants(P, full_subgroup(P))
    assert t.divisors == (9, 9)


def test_structure_stats_g2():
    st_ = structure_stats(catalog.g2(3, 2))
    assert (st_.n, st_.k, st_.d) == (5, 1, 2)
    assert st_.nilpotency_class == 2
    assert st_.quotient_type.divisors == (9, 9)


def test_direct_product_orders():
    P = direct_product(catalog.dihedral8(), catalog.cyclic(2, 2))
    assert P.order == 32
    assert nilpotency_class(P) == 2


def test_abelian_type_validation():
    with pytest.raises(ValueError):
        AbelianType((3, 9))
    t = AbelianType.from_divisors([3, 9, 1])
    assert t.divisors == (9, 3)
    assert t.order == 27
    assert t.exponent == 9
    assert not t.is_homocyclic()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 3))
def test_homocyclic_structure(p, e, r):
    P = catalog.homocyclic(p, e, r)
    assert P.order == p ** (e * r)
    assert center(P).order == P.order
    t = abelian_invariants(P, full_subgroup(P))
    assert t.divisors == tuple([p ** e] * r)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(0, 26), st.integers(0, 26))
def test_collection_agrees_with_symmetric_group_model(p, i, j):
    # associativity spot check in E1(p): (xy)z == x(yz) for random triples
    P = catalog.extraspecial_e1(p)
    x = (i % p, (i // p) % p, (i // p // p) % p)
    y = (j % p, (j // p) % p, (j // p // p) % p)
    z = P.gen(0)
    assert P.mult(P.mult(x, y), z) == P.mult(x, P.mult(y, z))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_tailed_collection_keeps_the_normal_form(data):
    # tails_system relies on this when it asserts that both sides of a
    # tailed overlap agree on the base group
    P = data.draw(st.sampled_from(SMALL_TABLES))
    letter = st.tuples(st.integers(0, P.ngens - 1),
                       st.integers(-2 * P.p, 2 * P.p))
    word = data.draw(st.lists(letter, max_size=12))
    vec = [0] * P.ngens
    P._collect_into(vec, word, [0] * _tail_count(P.ngens))
    assert tuple(vec) == P.collect(word)


# -- the arithmetic that left division replaced ----------------------------
# (PcPresentation.inv, commutator and conjugate before they became left
# divisions, taking the presentation as `self`; the commutator and the
# conjugate call the reference inverse)


def _reference_inv(self, x):
    word = []
    acc = list(x)
    for i in range(self.ngens):
        e = acc[i]
        if e:
            self._collect_into(acc, [(i, -e)])
            word.append((i, -e))
    assert not any(acc), "inverse computation failed"
    return self.collect(word)


def _reference_commutator(self, x, y):
    """[x, y] = x^-1 y^-1 x y."""
    xy = self.mult(x, y)
    yx = self.mult(y, x)
    return self.mult(_reference_inv(self, yx), xy)


def _reference_conjugate(self, x, y):
    """x^y = y^-1 x y."""
    return self.mult(_reference_inv(self, y), self.mult(x, y))


def _reference_sift(S, x):
    """Subgroup.coords's loop before it solved, returning (coordinates,
    residue); pow(b, -c) was pow(inv(b), c)."""
    out = []
    for b in S.basis:
        c = x[_leading(b)]
        out.append(c)
        if c:
            x = S.amb.mult(S.amb.pow(_reference_inv(S.amb, b), c), x)
    return tuple(out), x


@functools.cache
def _solve_groups():
    """SMALL_TABLES, two stem covers of 14 and 15 generators, Z_9^3, where
    the whole vector is the trailing central block, and the stem cover of
    E1(7), where M's letters run past what p = 3 allows."""
    return SMALL_TABLES + [stem_cover(catalog.g5(3)).E,
                           stem_cover(catalog.g4(3, 3)).E,
                           catalog.homocyclic(3, 2, 3),
                           stem_cover(catalog.extraspecial_e1(7)).E]


def test_solve_groups_reach_the_central_block():
    homocyclic, cover = _solve_groups()[-2:]
    assert homocyclic._central_start == 0
    assert (cover.p, cover.ngens, cover._central_start) == (7, 5, 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_left_division_matches_the_reference_arithmetic(data):
    P = data.draw(st.sampled_from(_solve_groups()))
    element = st.tuples(*[st.integers(0, P.p - 1)] * P.ngens)
    x, y = data.draw(element), data.draw(element)
    assert P.mult(x, P.solve(x, y)) == y
    assert P.inv(x) == _reference_inv(P, x)
    assert P.commutator(x, y) == _reference_commutator(P, x, y)
    assert P.conjugate(x, y) == _reference_conjugate(P, x, y)
    D = derived_subgroup(P)
    coords, residue = _reference_sift(D, x)
    assert D.sift(x) == residue
    if residue == P.identity():
        assert D.coords(x) == coords
    else:
        with pytest.raises(ValueError, match="not in the subgroup"):
            D.coords(x)
    c = data.draw(st.tuples(*[st.integers(0, P.p - 1)] * len(D.basis)))
    member = D.from_coords(c)
    assert D.coords(member) == _reference_sift(D, member)[0] == c
    assert D.sift(member) == P.identity()


def _record_collector(P):
    """Wrap P._collect_into so that it records every word it is given."""
    words = []
    collect_into = P._collect_into

    def recorder(vec, word, tails=None):
        word = list(word)
        words.append(word)
        collect_into(vec, word, tails)

    P._collect_into = recorder
    return words


def test_no_negative_exponent_reaches_the_collector():
    P = catalog.g4(3, 2)    # fresh, so no invariant is cached on it yet
    words = _record_collector(P)
    x, y = P.mult(P.gen(0), P.gen(4)), P.mult(P.gen(1), P.gen(3))
    P.inv(x)
    P.commutator(x, y)
    P.conjugate(x, y)
    D = derived_subgroup(P)
    D.sift(x)
    D.coords(D.from_coords((1,) * len(D.basis)))
    subgroup_closure(P, [x, y])
    center(P)
    structure_stats(P)
    assert len(words) > 100
    assert [w for w in words if any(e < 0 for _, e in w)] == []


# -- the collector and the overlap enumeration before the overlap products
# were shared (PcPresentation._collect_into, taking the presentation as
# `self`, and pcp._overlaps, verbatim but for their names)


def _reference_collect_into(self, vec, word, tails=None):
    """Multiply the normal form `vec` (a list, modified in place) by `word`.

    With a `tails` list, collection runs in the covering presentation,
    whose rules each carry one central tail (laid out by `_tail_slot`),
    and `tails` counts in place the tails of the rules applied.
    """
    p = self.p
    n = self.ngens
    power = self.power
    comm = self.comm
    stack = [(g, e) for g, e in reversed(list(word))]
    while stack:
        g, e = stack.pop()
        if e == 0:
            continue
        if g < 0 or g >= n:
            raise IndexError(f"generator index {g} out of range")
        if e < 0:
            # g^-1 = g^(p-1) * (g^p)^-1, where g^p = w * t_g
            if e < -1:
                stack.append((g, e + 1))
            if tails is not None:
                tails[g] -= 1
            pw = power[g]
            if pw:
                stack.extend((h, -f) for h, f in pw)
            stack.append((g, p - 1))
            continue
        tail = [(t, vec[t]) for t in range(g + 1, n) if vec[t]]
        if not tail:
            # no rule fires before g^p wraps: take the run up to it at once
            k = min(e, p - vec[g])
            if e > k:
                stack.append((g, e - k))
            vec[g] += k
            if vec[g] == p:
                vec[g] = 0
                if tails is not None:
                    tails[g] += 1
                if power[g]:
                    stack.extend(reversed(power[g]))
            continue
        if e > 1:
            stack.append((g, e - 1))
        # multiply by a single g, moving it left past the tail
        for t, _ in tail:
            vec[t] = 0
        vec[g] += 1
        pending = []
        if vec[g] == p:
            vec[g] = 0
            if tails is not None:
                tails[g] += 1
            pending.extend(power[g])
        if tails is not None:
            # [g_t, g] = w * t_(t,g) applies once per unit of g_t
            for t, ct in tail:
                tails[_tail_slot(n, t, g)] += ct
        for t, ct in tail:
            cw = comm.get((t, g))
            if cw:
                for _ in range(ct):
                    pending.append((t, 1))
                    pending.extend(cw)
            else:
                pending.append((t, ct))
        stack.extend(reversed(pending))


def _reference_overlaps(p, gens, mult, collect):
    """Yield (tag, lhs, rhs) for every overlap test, in a fixed order.

    `gens` are the generators, `mult` multiplies two elements and
    `collect` turns a word into an element.  Both the consistency check
    and the tails relations of the covering group run this enumeration.
    """
    n = len(gens)
    for k in range(2, n):
        for j in range(1, k):
            gkj = mult(gens[k], gens[j])
            for i in range(j):
                yield (("assoc", k, j, i), mult(gkj, gens[i]),
                       mult(gens[k], mult(gens[j], gens[i])))
    gp = [collect(((i, p),)) for i in range(n)]
    gq = [collect(((i, p - 1),)) for i in range(n)]
    for j in range(1, n):
        for i in range(j):
            yield (("power_left", j, i), mult(gp[j], gens[i]),
                   mult(gq[j], mult(gens[j], gens[i])))
    for j in range(1, n):
        for i in range(j):
            yield (("power_right", j, i), mult(gens[j], gp[i]),
                   mult(mult(gens[j], gens[i]), gq[i]))
    for i in range(n):
        yield ("power_self", i), mult(gens[i], gp[i]), mult(gp[i], gens[i])


# _overlaps yields the blocks smallest first, each in the reference order
BLOCK_ORDER = ("power_self", "power_left", "power_right", "assoc")


def _in_block_order(overlaps):
    return sorted(overlaps, key=lambda test: BLOCK_ORDER.index(test[0][0]))


def _with_reference_collector(P):
    """A copy of P whose arithmetic runs _reference_collect_into."""
    R = PcPresentation(P.p, P.ngens, P.power, P.comm, check_consistent=False)
    R._collect_into = functools.partial(_reference_collect_into, R)
    return R


class _Enumerated(Exception):
    pass


def _tailed_overlaps(P, overlaps):
    """The tailed enumeration tails_system(P) consumes, run by `overlaps`;
    the relation matrix is not built, so P need not be consistent."""
    seen = []

    def record(*args):
        seen.extend(overlaps(*args))
        raise _Enumerated

    with mock.patch.object(homology, "_overlaps", record):
        with pytest.raises(_Enumerated):
            tails_system.__wrapped__(P)
    return seen


def _reference_tailed_overlaps(R):
    """The tests tails_system collects, in the reference order."""
    return _tailed_overlaps(R, _reference_overlaps)


def _every_tailed_overlap(R):
    """Every overlap test of R in the reference order, collected with
    tails_system's tailed arithmetic, the central block's included."""
    def every_test(p, gens, mult, collect):
        gens = [collect(((i, 1),)) for i in range(R.ngens)]
        return _reference_overlaps(p, gens, mult, collect)
    return _tailed_overlaps(R, every_test)


def _tailed_row(lhs, rhs):
    """The relation row of a tailed overlap: the sorted nonzero
    (slot, value) pairs of the difference of the two sides' tails."""
    diff = collections.Counter(lhs[1])
    diff.subtract(rhs[1])
    return tuple(sorted((slot, v) for slot, v in diff.items() if v))


# the chief-series candidate spaces of orders 16, 27 and 81 that
# tests/test_table_enumeration.py walks
CANDIDATE_SPACES = [(2, 4), (3, 3), (3, 4)]


def _draw_candidate(data, spaces=CANDIDATE_SPACES):
    """A random candidate presentation, most often an inconsistent one."""
    p, n = data.draw(st.sampled_from(spaces))

    def word(low):
        exps = data.draw(st.tuples(*[st.integers(0, p - 1)] * (n - 1 - low)))
        return tuple((g, e) for g, e in enumerate(exps, low + 1) if e)

    power = [word(i) for i in range(n)]
    comm = {(j, i): word(j) for j in range(1, n) for i in range(j)}
    return PcPresentation(p, n, power, comm, check_consistent=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_collector_matches_the_reference_collector(data):
    P = data.draw(st.sampled_from(_solve_groups()))
    x = data.draw(st.tuples(*[st.integers(0, P.p - 1)] * P.ngens))
    letter = st.tuples(st.integers(0, P.ngens - 1),
                       st.integers(-2 * P.p, 2 * P.p))
    word = data.draw(st.lists(letter, max_size=12))
    for tails in (None, [0] * _tail_count(P.ngens)):
        vec, ref_vec = list(x), list(x)
        ref_tails = None if tails is None else list(tails)
        P._collect_into(vec, word, tails)
        _reference_collect_into(P, ref_vec, word, ref_tails)
        assert vec == ref_vec
        assert tails == ref_tails


@functools.cache
def _large_p_covers():
    """Stem covers at p = 5, 7 and 101, each with commutator rules whose
    words lie in the central block M."""
    return [stem_cover(G).E for G in (
        catalog.extraspecial_e1(5), catalog.g5(5), catalog.g3(7),
        catalog.g4(7, 2), catalog.g3(101), catalog.g1(101, 4))]


def _draw_block_candidate(data):
    """A random candidate at p = 5, 7 or 101 with central block
    g_(c+1) ... g_n, c >= 2, and the rule [g_c, g_1] in it; most are
    inconsistent."""
    p = data.draw(st.sampled_from((5, 7, 101)))
    n = data.draw(st.integers(3, 5))
    c = data.draw(st.integers(2, n - 1))
    exponent = st.one_of(st.just(0), st.integers(1, p - 1))

    def word(low):
        exps = data.draw(st.tuples(*[exponent] * (n - 1 - low)))
        return tuple((g, e) for g, e in enumerate(exps, low + 1) if e)

    power = [word(i) for i in range(n)]
    comm = {(j, i): word(j) for j in range(1, c) for i in range(j)}
    first = data.draw(st.integers(1, p - 1))
    comm[(c - 1, 0)] = ((c, first),) + word(c)
    return PcPresentation(p, n, power, comm, check_consistent=False)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_runs_past_central_rules_match_the_reference_collector(data):
    # the untailed collector queues g_t^ct and ct times the rule word of
    # [g_t, g] when that word lies in the central block, in place of ct
    # copies of both; the reference queues the copies.  Exactness does not
    # need consistency, so inconsistent candidates are drawn too.  The
    # tailed collector walks the block and must match the reference
    # application for application.  At p = 101 the head letters keep
    # small exponents, since the reference's cost grows with their
    # product; the block's letters and the rule words keep the full range,
    # so ct times a rule exponent still passes p.
    if data.draw(st.booleans()):
        P = data.draw(st.sampled_from(_large_p_covers()))
    else:
        P = _draw_block_candidate(data)
    p, c = P.p, P._central_start
    assert any(w[0][0] >= c for w in P.comm.values())
    head = min(p - 1, 8)
    x = data.draw(st.tuples(*[st.integers(0, p - 1 if i >= c else head)
                              for i in range(P.ngens)]))
    exponent = (st.integers(-2 * p, 2 * p) if head == p - 1
                else st.integers(0, 2 * head))
    letter = st.tuples(st.integers(0, P.ngens - 1), exponent)
    word = data.draw(st.lists(letter, max_size=8))
    for tails in (None, [0] * _tail_count(P.ngens)):
        vec, ref_vec = list(x), list(x)
        ref_tails = None if tails is None else list(tails)
        P._collect_into(vec, word, tails)
        _reference_collect_into(P, ref_vec, word, ref_tails)
        assert vec == ref_vec
        assert tails == ref_tails


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_overlaps_match_the_reference_enumeration(data):
    if data.draw(st.booleans()):
        P = data.draw(st.sampled_from(SMALL_TABLES))
    else:
        P = _draw_candidate(data)
    R = _with_reference_collector(P)
    reference = list(_reference_overlaps(R.p, R.gens(), R.mult, R.collect))
    assert list(P.consistency_checks()) == _in_block_order(reference)
    assert P.is_consistent() == all(lhs == rhs for _, lhs, rhs in reference)
    assert _tailed_overlaps(P, _overlaps) == _in_block_order(
        _reference_tailed_overlaps(R))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_central_rows_are_the_collected_rows(data):
    # the proof in tails_system's docstring, run on the reference tailed
    # enumeration: each test with a letter of the central block, that is
    # of largest index c or more, holds in the base group and has the
    # closed-form row, test by test and in order, and the assoc tests
    # (k, j, i) with j >= c have zero rows.  The proof does not use
    # consistency, so every drawn candidate is tested, at p up to 7.
    source = data.draw(st.sampled_from(("table", "candidate", "cover")))
    if source == "table":
        P = data.draw(st.sampled_from(SMALL_TABLES))
    elif source == "candidate":
        P = _draw_candidate(data, CANDIDATE_SPACES + [(5, 3), (5, 4), (7, 3),
                                                      (7, 4)])
    else:
        P = data.draw(st.sampled_from(_solve_groups()[len(SMALL_TABLES):]))
    c = P._central_start
    central, skipped = [], []
    for tag, lhs, rhs in _every_tailed_overlap(_with_reference_collector(P)):
        if tag[0] == "assoc" and tag[2] >= c:
            skipped.append(_tailed_row(lhs, rhs))
        elif max(tag[1:]) >= c:
            assert lhs[0] == rhs[0]
            central.append((tag, _tailed_row(lhs, rhs)))
    assert [(tag, tuple(sorted(pairs)))
            for tag, pairs in homology._central_rows(P)] == _in_block_order(
                central)
    assert not any(skipped)


def test_the_closed_form_rows_stop_at_the_central_block():
    # c is the exact boundary: with c - 1 in its place, the closed form
    # gives some test of largest index c - 1 a row that collection does not
    wrong = []
    for P in _solve_groups():
        c = P._central_start
        if c == 0:
            continue
        below = {tag: _tailed_row(lhs, rhs) for tag, lhs, rhs in
                 _every_tailed_overlap(_with_reference_collector(P))
                 if max(tag[1:]) == c - 1}
        with mock.patch.object(P, "_central_start", c - 1):
            closed = {tag: tuple(sorted(pairs))
                      for tag, pairs in homology._central_rows(P)}
        wrong += [tag for tag, row in below.items() if closed[tag] != row]
    assert wrong


def _collector_calls(P, run):
    """How many times run(P) calls P._collect_into."""
    words = _record_collector(P)
    run(P)
    return len(words)


def test_consistency_collector_call_counts():
    # Exact counts on fresh presentations, so that a silent drop, which
    # could mean a skipped overlap, fails too.  A change that moves a count
    # updates it here and says why in CHANGES.md.
    assert sum(_collector_calls(P, PcPresentation.is_consistent)
               for P in catalog.small_group_table(3, 4)) == 194
    # is_consistent skips the assoc tests whose three rule words lie in the
    # central block: the next two read 384 and 139 before it did
    E = stem_cover(catalog.g4(3, 3)).E
    assert _collector_calls(E, PcPresentation.is_consistent) == 284
    assert _collector_calls(catalog.g6(), PcPresentation.is_consistent) == 119
    # tails_system collects only the tests among g_1 ... g_c and reads
    # the rows of the others off the rule words: these read 210, 390, 180
    # and 1,200 while it collected every test but the assoc tests of two
    # central letters, and 830, 292 and 1,510 for the last three before
    # that; an abelian group has c = 0 and collects nothing
    assert _collector_calls(catalog.g6(), tails_system) == 145
    assert _collector_calls(catalog.homocyclic(3, 3, 4), tails_system) == 0
    assert _collector_calls(catalog.elementary_abelian(3, 8),
                            tails_system) == 0
    rebuilt = PcPresentation(E.p, E.ngens, E.power, E.comm)
    assert _collector_calls(rebuilt, tails_system) == 393


def test_cold_stem_cover_collector_calls():
    # every _collect_into call of building G4(3,3) and its stem cover:
    # G's consistency check and tails system, E's consistency check, and
    # the projection check; M <= E', M <= Z(E) and M's type are read off
    # the presentation and collect nothing.  Same rule as the gate above.
    with mock.patch.object(PcPresentation, "_collect_into", autospec=True,
                           side_effect=PcPresentation._collect_into) as calls:
        stem_cover(catalog.g4(3, 3))
    # 1,128 while tails_system collected every test but the assoc tests of
    # two central letters; 959 since it collects only those among
    # g_1 ... g_c; 799 since E's check skips the assoc tests whose three
    # rule words lie in M
    assert calls.call_count == 799


def test_abelianization_type_matches_the_closure_route():
    covers = [stem_cover(G).E for G in (
        catalog.g1(3, 5), catalog.g2(3, 2), catalog.g3(3), catalog.g4(3, 2),
        catalog.g5(3), catalog.g6())]
    products = [direct_product(G, H) for G, H in (
        (catalog.dihedral8(), catalog.cyclic(2, 2)),
        (catalog.quaternion8(), catalog.homocyclic(2, 2, 2)),
        (catalog.extraspecial_e1(3), catalog.g2(3, 2)),
        (catalog.extraspecial_e1(5), catalog.cyclic(5, 2)))]
    scrambled = [_scrambled(P, seed)
                 for seed, P in enumerate(covers + products)]
    for P in SMALL_TABLES + covers + products + scrambled:
        assert abelianization_type(P) == abelian_invariants(
            P, full_subgroup(P), derived_subgroup(P)), catalog.serialize(P)
        # structure_stats takes d as the rank of G/G' (Burnside)
        assert structure_stats(P).d == P.ngens - len(
            frattini_subgroup(P).basis), catalog.serialize(P)


def test_structure_stats_checks_the_quotient_against_the_derived_subgroup(
        monkeypatch):
    def one_divisor_short(P):
        return AbelianType.from_divisors(abelianization_type(P).divisors[1:])

    monkeypatch.setattr(pcp, "abelianization_type", one_divisor_short)
    with pytest.raises(AssertionError, match="do not multiply"):
        structure_stats(catalog.g2(3, 2))


def _candidates(p, n):
    """Every chief-series candidate presentation of order p^n, unchecked."""
    def words(low):
        for exps in itertools.product(range(p), repeat=n - 1 - low):
            yield tuple((g, e) for g, e in enumerate(exps, low + 1) if e)

    pairs = [(j, i) for j in range(1, n) for i in range(j)]
    for power in itertools.product(*[list(words(i)) for i in range(n)]):
        for comms in itertools.product(*[list(words(j)) for j, _ in pairs]):
            yield PcPresentation(p, n, power, dict(zip(pairs, comms)),
                                 check_consistent=False)


def test_rejection_collector_call_counts():
    # Exact counts over the full candidate spaces of orders 16 (808 of
    # 1,024 rejected) and 125 (400 of 625), where most candidates fail a
    # power test: a count that grows means the check reaches the cubic
    # assoc block before the power tests again.  Order 16 read 8,448 before
    # is_consistent skipped the assoc tests of three central rule words.
    for (p, n), calls in {(2, 4): 8320, (5, 3): 2500}.items():
        assert sum(_collector_calls(P, PcPresentation.is_consistent)
                   for P in _candidates(p, n)) == calls


def _overlap_generators(P):
    """How many generators is_consistent() runs the overlap tests over."""
    with mock.patch.object(pcp, "_overlaps", wraps=pcp._overlaps) as overlaps:
        P.is_consistent()
    return len(overlaps.call_args.args[1])


def test_inconsistent_associativity_rejected():
    # every power test holds; the only failing overlap is ("assoc", 3, 1, 0)
    power = [((4, 1),), (), (), (), ()]
    comm = {(1, 0): ((2, 1), (4, 1)), (3, 0): ((4, 1),), (3, 2): ((4, 1),)}
    P = PcPresentation(2, 5, power, comm, check_consistent=False)
    # [g_4, g_3] is the last commutator rule, so the check runs over
    # g_1 ... g_4, which the failing overlap lies in
    assert _overlap_generators(P) == 4
    assert [tag for tag, lhs, rhs in P.consistency_checks()
            if lhs != rhs] == [("assoc", 3, 1, 0)]
    with pytest.raises(ValueError):
        PcPresentation(2, 5, power, comm)


def test_the_assoc_skip_needs_all_three_central_pairs():
    # the presentation of the test above: its one failing test has two of
    # its three pairs central, so a skip that asked for two would accept it
    power = [((4, 1),), (), (), (), ()]
    comm = {(1, 0): ((2, 1), (4, 1)), (3, 0): ((4, 1),), (3, 2): ((4, 1),)}
    P = PcPresentation(2, 5, power, comm, check_consistent=False)
    assert sorted({(3, 1), (3, 0), (1, 0)} & _central_pairs(P)) == [
        (3, 0), (3, 1)]
    assert not P.is_consistent()


def _consistency_assoc_tests(P):
    """How many assoc tests is_consistent() collects on P."""
    tags = []

    def record(*args):
        for test in _overlaps(*args):
            tags.append(test[0])
            yield test

    with mock.patch.object(pcp, "_overlaps", record):
        assert P.is_consistent()
    return sum(tag[0] == "assoc" for tag in tags)


def test_cover_consistency_skips_the_assoc_tests_of_central_rules():
    # (assoc tests collected, assoc tests among g_1 ... g_c) for the stem
    # covers of the benchmark's groups; the difference is the tests whose
    # three rule words lie in M.  Exact, as the call-count gates are.
    covers = {
        "EA(3,8)": (catalog.elementary_abelian(3, 8), 0, 56),
        "homocyclic(3,3,4)": (catalog.homocyclic(3, 3, 4), 0, 220),
        "G1(3,9)": (catalog.g1(3, 9), 7, 84),
        "G4(3,4)": (catalog.g4(3, 4), 80, 220),
        "G6": (catalog.g6(), 22, 35),
        "G4(3,3)": (catalog.g4(3, 3), 34, 84),
        "G5(3)": (catalog.g5(3), 10, 20),
        "G1(3,7)": (catalog.g1(3, 7), 5, 35),
    }
    for name, (G, collected, among) in covers.items():
        E = stem_cover(G).E
        c = E._central_start
        assert (_consistency_assoc_tests(E),
                c * (c - 1) * (c - 2) // 6) == (collected, among), name


def _full_check(P):
    """The verdict of every overlap test, the central block's included."""
    return all(lhs == rhs for _, lhs, rhs in P.consistency_checks())


@pytest.mark.slow
def test_central_block_check_matches_the_full_check_on_all_candidates():
    # the whole candidate spaces of orders 16, 125 and 81 (60,698
    # presentations); 3,546 of them are consistent
    verdicts = [(P.is_consistent(), _full_check(P))
                for p, n in ((2, 4), (5, 3), (3, 4)) for P in _candidates(p, n)]
    assert len(verdicts) == 60698
    assert [v for v in verdicts if v[0] != v[1]] == []
    assert sum(full for _, full in verdicts) == 3546


def _add_letter(word, g, e, p):
    """The rule word `word` with the exponent of g_g raised by e, mod p."""
    exps = dict(word)
    exps[g] = (exps.get(g, 0) + e) % p
    return tuple((h, f) for h, f in sorted(exps.items()) if f)


@functools.cache
def _block_covers():
    """(E, c) for stem covers E whose generators from c on span M."""
    covers = []
    for G in (catalog.g4(3, 3), catalog.g5(3), catalog.g6(), catalog.g1(3, 5)):
        E = stem_cover(G).E
        c = 1 + max(j for j, _ in E.comm)
        assert c == G.ngens < E.ngens
        covers.append((E, c))
    return covers


def test_central_block_deletion_commutes_with_collection():
    # step (a) of the lemma in PcPresentation.is_consistent: E collects a
    # word of the first c generators as the quotient Q collects it, times
    # the tails in M of the rules Q's collector applied
    rng = random.Random(7)
    for E, c in _block_covers():
        def base(w):
            return tuple((g, e) for g, e in w if g < c)

        def tail(w):
            return E.collect([(g, e) for g, e in w if g >= c])

        Q = PcPresentation(E.p, c, [base(w) for w in E.power[:c]],
                           {key: base(w) for key, w in E.comm.items()})
        tails = [tail(E.power[i]) for i in range(c)]
        tails += [tail(E.comm.get((j, i), ())) for j in range(1, c)
                  for i in range(j)]
        assert len(tails) == _tail_count(c)
        for _ in range(100):
            word = [(rng.randrange(c), rng.randrange(-2 * E.p, 2 * E.p))
                    for _ in range(rng.randrange(10))]
            vec, counts = [0] * c, [0] * len(tails)
            Q._collect_into(vec, word, counts)
            x = tuple(vec) + (0,) * (E.ngens - c)
            for t, k in zip(tails, counts):
                x = E.mult(x, E.pow(t, k))
            assert E.collect(word) == x


def test_central_block_check_matches_the_full_check_on_cover_mutants():
    # a random letter of the central block (here, of M) added to one rule
    # of the base generators of a stem cover; most mutants are inconsistent
    rng = random.Random(11)
    verdicts = []
    for E, c in _block_covers():
        rules = list(range(c)) + [(j, i) for j in range(1, c)
                                  for i in range(j)]
        for rule in rules:
            for _ in range(3):
                power, comm = list(E.power), dict(E.comm)
                g, e = rng.randrange(c, E.ngens), rng.randrange(1, E.p)
                if isinstance(rule, int):
                    power[rule] = _add_letter(power[rule], g, e, E.p)
                else:
                    comm[rule] = _add_letter(comm.get(rule, ()), g, e, E.p)
                M = PcPresentation(E.p, E.ngens, power, comm,
                                   check_consistent=False)
                verdicts.append((M.is_consistent(), _full_check(M)))
    assert [v for v in verdicts if v[0] != v[1]] == []
    assert 0 < sum(full for _, full in verdicts) < len(verdicts)


def _base_rules(c):
    """The rules of g_1 ... g_c: power rules by index, commutator rules by
    pair."""
    return list(range(c)) + [(j, i) for j in range(1, c) for i in range(j)]


def _cover_mutant(E, rule, g, e):
    """E, unchecked, with e times the letter g_g added to `rule`, as
    in the test above."""
    power, comm = list(E.power), dict(E.comm)
    if isinstance(rule, int):
        power[rule] = _add_letter(power[rule], g, e, E.p)
    else:
        comm[rule] = _add_letter(comm.get(rule, ()), g, e, E.p)
    return PcPresentation(E.p, E.ngens, power, comm, check_consistent=False)


def _central_pairs(P):
    """The pairs (j, i) among g_1 ... g_c, c = `_central_start`, whose
    commutator rule word lies in the central block; an empty word counts."""
    c = P._central_start
    return {(j, i) for j in range(1, c) for i in range(j)
            if all(g >= c for g, _ in P.comm.get((j, i), ()))}


def _central_assoc(tag, central):
    """Whether `tag` is an assoc test (k, j, i) whose pairs (k, j), (k, i)
    and (j, i) are all in `central`."""
    return tag[0] == "assoc" and {tag[1:3], tag[1::2], tag[2:]} <= central


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_assoc_tests_of_three_central_rules_hold(data):
    # part (d) of the lemma in PcPresentation.is_consistent: an assoc test
    # among g_1 ... g_c whose three commutator rules have words in the
    # central block holds, with either untailed collector.  The proof does
    # not use consistency, so every drawn presentation is tested, most
    # candidates and mutants inconsistent.
    source = data.draw(st.sampled_from(("table", "candidate", "cover",
                                        "mutant")))
    if source == "table":
        P = data.draw(st.sampled_from(SMALL_TABLES))
    elif source == "candidate":
        P = _draw_candidate(data, CANDIDATE_SPACES + [(5, 3), (5, 4), (7, 3),
                                                      (7, 4)])
    elif source == "cover":
        P = data.draw(st.sampled_from(_solve_groups()[len(SMALL_TABLES):]))
    else:
        E, c = data.draw(st.sampled_from(_block_covers()))
        P = _cover_mutant(E, data.draw(st.sampled_from(_base_rules(c))),
                          data.draw(st.integers(c, E.ngens - 1)),
                          data.draw(st.integers(1, E.p - 1)))
    central = _central_pairs(P)
    gens = [P.gen(i) for i in range(P._central_start)]
    for Q in (P, _with_reference_collector(P)):
        assert [tag for tag, lhs, rhs in
                _overlaps(Q.p, gens, Q.mult, Q.collect)
                if _central_assoc(tag, central) and lhs != rhs] == []


def test_consistency_check_stops_at_the_last_commutator_rule():
    # no commutator rule: every generator is in the central block
    P = catalog.homocyclic(3, 3, 4)
    assert _overlap_generators(P) == 0
    assert _collector_calls(P, PcPresentation.is_consistent) == 0
    assert P.is_consistent()
    # [g_N, g_i] = 1 always, since its word could only use later
    # generators, so at most g_1 ... g_(N-1) are tested
    assert _overlap_generators(catalog.g6()) == 6


def test_collector_rejects_out_of_range_generators():
    P = catalog.g6()
    for g in (P.ngens, -1):
        for e in (1, 0):
            with pytest.raises(IndexError, match="out of range"):
                P.collect(((g, e),))
            with pytest.raises(IndexError, match="out of range"):
                P._collect_into([0] * P.ngens, ((g, e),),
                                [0] * _tail_count(P.ngens))
    with pytest.raises(IndexError, match="out of range"):
        P.collect(((-1, 0), (0, 1)))


def test_check_prime_matches_trial_division():
    for n in range(-2, 5000):
        prime = n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
        try:
            check_prime(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == prime, n


@pytest.mark.parametrize("n", [
    2047,                        # strong pseudoprime to base 2
    3215031751,                  # ... to bases 2, 3, 5, 7
    3825123056546413051,         # ... to the primes up to 23
    318665857834031151167461,    # ... to the primes up to 37
])
def test_check_prime_rejects_strong_pseudoprimes(n):
    with pytest.raises(ValueError, match="not prime"):
        check_prime(n)


def test_check_prime_large_values():
    check_prime(2 ** 61 - 1)
    check_prime(10 ** 24 + 7)
    for n in (10 ** 30 + 57, 10 ** 400):
        with pytest.raises(ValueError, match="too large"):
            check_prime(n)


def test_log_p():
    assert [log_p(v, 3) for v in (1, 3, 9, 3 ** 20)] == [0, 1, 2, 20]
    # the message names the argument, not what is left of it
    for value, p in ((12, 2), (12, 3), (0, 3), (-1, 3), (-3, 3)):
        with pytest.raises(ValueError,
                           match=f"^{value} is not a power of {p}$"):
            log_p(value, p)


# -- the center before it became a kernel (pcp.center and
# pcp._left_nullspace_mod_p, verbatim but for their names)


def _center_reference(P):
    """The center, by induction along the chain of prime central layers.

    Works layer by layer over GF(p); no element enumeration, so it scales
    to stem covers of order up to ~3^17.
    """
    p = P.p
    n = P.ngens
    gens = P.gens()
    current = full_subgroup(P)
    for k in range(n):
        if not current.basis:
            break
        # current = {x : [x, G] <= H_k}; refine to [x, G] <= H_{k+1}
        rows = []
        for b in current.basis:
            row = []
            for g in gens:
                c = P.commutator(b, g)
                assert not any(c[:k]), "central series invariant violated"
                row.append(c[k])
            rows.append(row)
        null = _reference_left_nullspace_mod_p(rows, p)
        new_gens = [current.from_coords(v) for v in null]
        new_gens += [P.pow(b, p) for b in current.basis]
        for s in range(len(current.basis)):
            for t in range(s + 1, len(current.basis)):
                new_gens.append(P.commutator(current.basis[s], current.basis[t]))
        current = subgroup_closure(P, new_gens)
        assert len(current.basis) == len(null), "center layer computation failed"
    return current


def _reference_left_nullspace_mod_p(rows, p):
    """Basis of {v : v * rows = 0 mod p}; rows is m x q."""
    m = len(rows)
    if m == 0:
        return []
    q = len(rows[0])
    # transpose and row-reduce: solve rows^T * v = 0
    mat = [[rows[i][j] % p for i in range(m)] for j in range(q)]
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, q) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(q):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fcol in free:
        v = [0] * m
        v[fcol] = 1
        for rr, pcol in enumerate(pivots):
            v[pcol] = (-mat[rr][fcol]) % p
        basis.append(tuple(v))
    return basis


def _scrambled(P, seed):
    """P on the pc generators h_i = g_i * (a random element of
    <g_(i+1), ..., g_N>).  The catalog's generators make most central
    elements pc generators; these do not."""
    rng = random.Random(seed)
    n = P.ngens
    hs = [P.mult(P.gen(i), (0,) * (i + 1) + tuple(
        rng.randrange(P.p) for _ in range(n - i - 1))) for i in range(n)]
    pcgs = Subgroup(P, hs)

    def word(x):
        return tuple((j, e) for j, e in enumerate(pcgs.coords(x)) if e)

    return PcPresentation(P.p, n, [word(P.pow(h, P.p)) for h in hs],
                          {(j, i): word(P.commutator(hs[j], hs[i]))
                           for j in range(n) for i in range(j)})


def test_center_matches_the_reference():
    groups = [(f"order {p}^{e} #{i}", P) for p in (2, 3, 5) for e in (3, 4)
              for i, P in enumerate(catalog.small_group_table(p, e))]
    groups += [(f"{name} at p = {p}", P) for p in (2, 3, 5)
               for name, P in _catalog_groups(p, deep=True)]
    groups += [("G4(3,4)", catalog.g4(3, 4)), ("G1(3,9)", catalog.g1(3, 9)),
               ("homocyclic(3,3,4)", catalog.homocyclic(3, 3, 4)),
               ("EA(3,8)", catalog.elementary_abelian(3, 8))]
    groups += [(f"stem cover of {name}", stem_cover(P).E) for name, P in
               (("G4(3,2)", catalog.g4(3, 2)), ("G5(3)", catalog.g5(3)))]
    groups += [(f"{name}, scrambled", _scrambled(P, seed))
               for seed, (name, P) in enumerate(groups)]
    for name, P in groups:
        Z, R = center(P), _center_reference(P)
        assert Z.order == R.order and Z.issubset(R) and R.issubset(Z), name
        assert Z == R, name
        for z in Z.basis:
            for g in P.gens():
                assert P.commutator(z, g) == P.identity(), name
    # not vacuous: centers strictly between 1 and G occur
    assert any(1 < center(P).order < P.order for _, P in groups)


def test_center_commutator_call_counts():
    # Exact counts of one cold center(), with the Frattini subgroup (which
    # picks the Burnside generators) computed first; a change that moves a
    # count updates it here and says why in CHANGES.md.  center() closes
    # no subgroup.
    for build, calls in [(lambda: catalog.homocyclic(3, 3, 4), 48),
                         (lambda: catalog.g4(3, 4), 24),
                         (lambda: catalog.g1(3, 9), 72),
                         (catalog.g6, 21)]:
        P = build()
        frattini_subgroup(P)
        with mock.patch.object(P, "commutator", wraps=P.commutator) as comm, \
                mock.patch.object(pcp, "subgroup_closure",
                                  wraps=pcp.subgroup_closure) as closure:
            center(P)
        assert (comm.call_count, closure.call_count) == (calls, 0)


def test_methods_the_benchmark_tracer_wraps_exist():
    # perfbench/tracer.py replaces these methods on the class by name, so
    # deleting one breaks the traced benchmark run; its module uses only
    # the standard library and runs nothing on import
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = set(tracer.ARITH) | {"__init__", "is_consistent"}
    assert len(wrapped) > 2
    assert wrapped <= set(vars(PcPresentation))
