"""Exhaustive cross-check of the small-group tables.

Every group of order p^n has a polycyclic presentation refining a chief
series, so enumerating all consistent presentations of that shape and
bucketing by invariant fingerprint must reproduce exactly the
fingerprint set of the embedded tables.
"""

import itertools

import pytest

from pgh import catalog
from pgh.homology import schur_multiplier
from pgh.pcp import (PcPresentation, abelian_invariants, center,
                     structure_stats)
from test_pcp import _element_order


def _words(p, indices):
    """All words on the given generator indices with exponents in 0..p-1."""
    out = []
    for exps in itertools.product(range(p), repeat=len(indices)):
        out.append(tuple((g, e) for g, e in zip(indices, exps) if e))
    return out


def _fingerprint(P):
    hist = {}
    for vec in itertools.product(range(P.p), repeat=P.ngens):
        o = _element_order(P, vec)
        hist[o] = hist.get(o, 0) + 1
    st = structure_stats(P)
    return (tuple(sorted(hist.items())), st.k, st.d, st.nilpotency_class,
            st.quotient_type.divisors,
            abelian_invariants(P, center(P)).divisors,
            schur_multiplier(P).divisors)


def _enumerate_fingerprints(p, n):
    tails = [list(range(i + 1, n)) for i in range(n)]
    power_choices = [_words(p, tails[i]) for i in range(n)]
    comm_pairs = [(j, i) for j in range(1, n) for i in range(j)]
    comm_choices = [_words(p, tails[j]) for j, i in comm_pairs]
    seen = set()
    for powers in itertools.product(*power_choices):
        for comms in itertools.product(*comm_choices):
            comm = {pair: w for pair, w in zip(comm_pairs, comms) if w}
            try:
                P = PcPresentation(p, n, list(powers), comm)
            except ValueError:
                continue
            seen.add(_fingerprint(P))
    return seen


@pytest.mark.slow
@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4)])
def test_enumeration_matches_table(p, n):
    table_fps = {_fingerprint(P) for P in catalog.small_group_table(p, n)}
    assert len(table_fps) == len(catalog.small_group_table(p, n))
    assert _enumerate_fingerprints(p, n) == table_fps


@pytest.mark.slow
def test_enumeration_matches_table_order_81():
    table_fps = {_fingerprint(P) for P in catalog.small_group_table(3, 4)}
    assert len(table_fps) == 15
    assert _enumerate_fingerprints(3, 4) == table_fps
