"""Invariants are computed once per presentation and stored on it."""

import gc
import pickle
import weakref

import pytest

from pgh import catalog, verify
from pgh.homology import stem_cover, tails_system
from pgh.pcp import (PcPresentation, center, derived_subgroup,
                     frattini_subgroup, lower_central_series,
                     per_presentation, structure_stats)

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
            weakref.ref(stem_cover(P)), weakref.ref(center(P))]
    del P
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_presentation_with_stored_invariants_pickles():
    P = catalog.g5(3)
    rep = verify.report(P)
    Q = pickle.loads(pickle.dumps(P))
    assert verify.report(Q) == rep
    assert verify.report(_fresh(Q)) == rep
