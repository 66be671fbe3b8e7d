"""Invariants are computed once per presentation and stored on it."""

import gc
import inspect
import pickle
import weakref

from unittest import mock

import pytest

from pgh import catalog, pcp, verify
from pgh.homology import stem_cover, tails_system
from pgh.pcp import (PcPresentation, Subgroup, abelian_invariants,
                     abelian_section, center, derived_subgroup,
                     frattini_subgroup, full_subgroup, lower_central_series,
                     per_presentation, shared_presentations, structure_stats)

MEMOIZED = (derived_subgroup, lower_central_series, frattini_subgroup,
            center, structure_stats, tails_system, stem_cover, verify.report)


def _fresh(P):
    return PcPresentation(P.p, P.ngens, P.power, P.comm, P.labels)


def test_decorator_runs_body_once_per_presentation_and_arguments():
    runs = []

    @per_presentation
    def probe(P, x=0):
        runs.append((P, x))
        return [x]

    P, Q = catalog.g2(3, 2), catalog.g2(3, 2)
    first = probe(P)
    assert probe(P) is first
    assert probe(P, 0) is first and probe(P, x=0) is first
    assert probe(P, 1) is not first
    assert probe(Q) is not first
    assert runs == [(P, 0), (P, 1), (Q, 0)]


def test_call_with_p_alone_binds_no_arguments():
    runs = []

    @per_presentation
    def probe(P, x=0):
        runs.append((P, x))
        return [x]

    P = catalog.g2(3, 2)
    first = probe(P, x=0)
    with mock.patch.object(inspect.Signature, "bind",
                           side_effect=AssertionError("bound")):
        assert probe(P) is first
        Q = catalog.g2(3, 2)
        assert probe(Q) is probe(Q)
    assert probe(Q, 0) is probe(Q)
    assert runs == [(P, 0), (Q, 0)]


@pytest.mark.parametrize("fn", MEMOIZED, ids=lambda fn: fn.__name__)
def test_invariants_are_stored_on_the_presentation(fn):
    # each body returns a new object, so an identical result means the
    # body ran once
    P = catalog.g2(3, 2)
    assert fn(P) is fn(P)


def test_stem_cover_default_variant_shares_one_entry():
    P = catalog.g3(3)
    assert stem_cover(P) is stem_cover(P, variant=0)
    assert stem_cover(P, variant=1) is not stem_cover(P)


def test_abelian_section_is_stored_by_the_bases_of_n_and_m():
    P = catalog.g4(3, 2)
    G, D = full_subgroup(P), derived_subgroup(P)
    section = abelian_section(P, G, D)
    assert abelian_section(P, Subgroup(P, G.basis), Subgroup(P, D.basis)) \
        is section
    F = frattini_subgroup(P)
    assert F.basis != D.basis
    assert abelian_section(P, G, F) is not section
    assert abelian_section(P, D, None) is abelian_section(P, D)
    # an equal N with another basis has other representatives
    other = Subgroup(P, (P.mult(G.basis[0], G.basis[1]),) + G.basis[1:])
    assert other == G and other.basis != G.basis
    assert abelian_section(P, other, D) is not section
    assert abelian_section(P, other, D).type == section.type


def test_abelian_invariants_read_the_stored_section():
    P = catalog.g4(3, 2)
    z = center(P)
    with mock.patch.object(pcp, "AbelianSection",
                           wraps=pcp.AbelianSection) as build:
        t = abelian_invariants(P, z)
        assert abelian_invariants(P, z) == t
        assert abelian_section(P, z).type == t
        assert build.call_count == 1


def test_lower_central_series_is_a_tuple():
    series = lower_central_series(catalog.g6())
    assert isinstance(series, tuple)
    assert len(series) == 4


def test_fresh_presentation_gives_equal_invariants():
    P = catalog.g4(3, 2)
    Q = _fresh(P)
    assert verify.report(Q) == verify.report(P)
    assert verify.report(Q) is not verify.report(P)
    assert structure_stats(Q) == structure_stats(P)
    assert center(Q).basis == center(P).basis
    assert ([S.basis for S in lower_central_series(Q)]
            == [S.basis for S in lower_central_series(P)])
    assert tails_system(Q).relation_matrix == tails_system(P).relation_matrix
    assert stem_cover(Q).E.comm == stem_cover(P).E.comm


def test_stored_invariants_die_with_the_presentation():
    P = catalog.g2(3, 2)
    refs = [weakref.ref(P), weakref.ref(verify.report(P)),
            weakref.ref(stem_cover(P)), weakref.ref(center(P)),
            weakref.ref(abelian_section(P, center(P)))]
    del P
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_presentation_with_stored_invariants_pickles():
    P = catalog.g5(3)
    rep = verify.report(P)
    reps = abelian_section(P, center(P)).representatives()
    Q = pickle.loads(pickle.dumps(P))
    assert verify.report(Q) == rep
    assert verify.report(_fresh(Q)) == rep
    assert abelian_section(Q, center(Q)).representatives() == reps


# -- equal presentations shared within a block ---------------------------

# g1^3 = g2 must commute with g1, but [g2, g1] = g3: fails the check
INCONSISTENT = (3, 3, [((1, 1),), (), ()], {(1, 0): ((2, 1),)})


def _content(P):
    return (P.p, P.ngens, P.power, P.comm, P.labels)


def test_equal_content_inside_the_block_gives_one_object():
    with shared_presentations():
        P = catalog.g2(3, 2)
        rep = verify.report(P)
        Q = catalog.g2(3, 2)
        assert Q is P
        assert _fresh(P) is P
        # the comm dict's order is not part of the content
        assert PcPresentation(P.p, P.ngens, P.power,
                              dict(reversed(list(P.comm.items()))),
                              P.labels) is P
        assert verify.report(Q) is rep


def test_different_labels_give_different_objects():
    with shared_presentations():
        P = catalog.g2(3, 2)
        Q = PcPresentation(P.p, P.ngens, P.power, P.comm, {0: "x"})
        assert Q is not P
        assert PcPresentation(P.p, P.ngens, P.power, P.comm) is not P
        assert PcPresentation(P.p, P.ngens, P.power, P.comm, {0: "x"}) is Q


def test_outside_the_block_every_construction_is_new():
    P = catalog.g2(3, 2)
    verify.report(P)
    Q = catalog.g2(3, 2)
    assert Q is not P
    assert Q._memo == {}
    with shared_presentations():
        assert catalog.g2(3, 2) is not P
    R = catalog.g2(3, 2)
    assert R is not P and R is not Q and R._memo == {}


def test_inconsistent_presentation_raises_every_time_and_is_not_stored():
    with shared_presentations():
        for _ in range(3):
            with pytest.raises(ValueError, match="consistency check"):
                PcPresentation(*INCONSISTENT)
        assert pcp._shared.get() == {}


def test_unchecked_object_runs_the_check_when_requested_checked():
    G = catalog.g3(3)
    args = (G.p, G.ngens, G.power, G.comm, G.labels)
    with shared_presentations():
        bad = PcPresentation(*INCONSISTENT, check_consistent=False)
        assert PcPresentation(*INCONSISTENT, check_consistent=False) is bad
        for _ in range(2):
            with pytest.raises(ValueError, match="consistency check"):
                PcPresentation(*INCONSISTENT)

        with mock.patch.object(
                PcPresentation, "is_consistent", autospec=True,
                side_effect=PcPresentation.is_consistent) as run:
            P = PcPresentation(*args, check_consistent=False)
            assert run.call_count == 0
            assert PcPresentation(*args) is P
            assert run.call_count == 1
            # checked once, so a later checked request does not run it again
            assert PcPresentation(*args) is P
            assert PcPresentation(*args, check_consistent=False) is P
            assert run.call_count == 1


def test_the_block_is_reset_after_an_exception():
    assert pcp._shared.get() is None
    with pytest.raises(RuntimeError):
        with shared_presentations():
            P = catalog.g3(3)
            assert catalog.g3(3) is P
            raise RuntimeError("inside the block")
    assert pcp._shared.get() is None
    assert catalog.g3(3) is not catalog.g3(3)


def test_blocks_nest_and_restore_the_outer_table():
    with shared_presentations():
        P = catalog.g3(3)
        with shared_presentations():
            assert catalog.g3(3) is not P
        assert catalog.g3(3) is P


def test_pickle_round_trip_of_a_shared_object_gives_a_fresh_equal_one():
    with shared_presentations():
        P = catalog.g5(3)
        rep = verify.report(P)
        Q = pickle.loads(pickle.dumps(P))
        assert Q is not P
        assert _content(Q) == _content(P)
        assert verify.report(Q) == rep
        # unpickling bypasses the table, which still holds P
        assert catalog.g5(3) is P
