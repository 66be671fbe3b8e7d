"""The four pgh benchmark workloads.

Each workload has a `setup(pgh, seed, goldens)` that builds its inputs and
returns a list of `Item`s; one pass runs every item once.  An item checks
its own output against the goldens recorded in `goldens.json` and returns
(attempted, failed).  pgh is exact and deterministic, so any output that
differs from its golden is a failure, never a tolerance question.

All calls into pgh go through module attributes at call time (never names
bound at import), so the traced run sees every call.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import traceback
from pathlib import Path

GOLDENS = Path(__file__).with_name("goldens.json")

VERIFY_PRIMES = (2, 3, 5)

# (name, catalog constructor, arguments)
LARGE_GROUPS = (
    ("g4(3,4)", "g4", (3, 4)),
    ("g1(3,9)", "g1", (3, 9)),
    ("homocyclic(3,3,4)", "homocyclic", (3, 3, 4)),
    ("elementary_abelian(3,8)", "elementary_abelian", (3, 8)),
)
COVER_GROUPS = (
    ("G6", "g6", ()),
    ("G4(3,3)", "g4", (3, 3)),
    ("G5(3)", "g5", (3,)),
    ("G1(3,7)", "g1", (3, 7)),
)

# (p, n): orders 16 and 125 are enumerated in full, order 81 is sampled.
ENUM_SPACES = ((2, 4), (5, 3), (3, 4))
SAMPLED_SPACE = (3, 4)
SAMPLE_SIZE = 20000


class Item:
    """One unit of a pass: `size` outcomes, checked by `run`."""

    def __init__(self, name, size, run):
        self.name = name
        self.size = size
        self.run = run

    def __call__(self):
        """(attempted, failed); an escaping exception fails the whole item."""
        try:
            return self.run()
        except Exception:
            print(f"item {self.name} raised:", file=sys.stderr)
            traceback.print_exc()
            return self.size, self.size


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def jsonable(value):
    return json.loads(json.dumps(value))


def clone(pgh, P):
    """A fresh presentation object, so no pass can reuse state cached on
    the inputs by an earlier pass."""
    return pgh.pcp.PcPresentation(P.p, P.ngens, P.power, P.comm, P.labels,
                                  check_consistent=False)


def build(pgh, constructor, args):
    return getattr(pgh.catalog, constructor)(*args)


def seeded_order(groups, seed):
    groups = list(groups)
    random.Random(seed).shuffle(groups)
    return groups


# -- outputs compared with goldens ---------------------------------------


def verify_output(pgh, p):
    """(exit code, stdout) of `pgh verify --suite all --p p --deep --format json`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pgh.cli.main(["verify", "--suite", "all", "--p", str(p), "--deep",
                           "--format", "json"])
    return rc, buf.getvalue()


def report_record(pgh, name, P):
    return jsonable(pgh.verify.report(P).to_json_dict(name))


def cover_multiplier(pgh, P):
    """M(E) of a stem cover E of P, after a serialize/parse round trip."""
    E = pgh.homology.stem_cover(P).E
    E = pgh.catalog.parse(pgh.catalog.serialize(E))
    return list(pgh.homology.schur_multiplier(E).divisors)


def fingerprint(pgh, P):
    """(k, d, class, G/G', M(G)) of a consistent presentation."""
    st = pgh.pcp.structure_stats(P)
    mult = pgh.homology.schur_multiplier(P)
    return (st.k, st.d, st.nilpotency_class, tuple(st.quotient_type.divisors),
            tuple(mult.divisors))


def space_key(p, n):
    return str(p ** n)


class CandidateSpace:
    """Every chief-series candidate presentation of order p^n.

    Candidate i is the i-th element of the product (power words of g_1..g_n,
    then commutator words of the pairs (j, i), j > i), in itertools.product
    order; each word runs over all normal forms in the generators of larger
    index.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.pairs = [(j, i) for j in range(1, n) for i in range(j)]
        later = [list(range(i + 1, n)) for i in range(n)]
        self.factors = ([self._words(later[i]) for i in range(n)]
                        + [self._words(later[j]) for j, _ in self.pairs])
        self.size = 1
        for f in self.factors:
            self.size *= len(f)

    def _words(self, indices):
        return [tuple((g, e) for g, e in zip(indices, exps) if e)
                for exps in itertools.product(range(self.p), repeat=len(indices))]

    def candidate(self, index):
        """(power words, commutator rules) of candidate `index`."""
        choice = []
        for f in reversed(self.factors):
            index, r = divmod(index, len(f))
            choice.append(f[r])
        choice.reverse()
        powers = choice[:self.n]
        comm = {pair: w for pair, w in zip(self.pairs, choice[self.n:]) if w}
        return powers, comm


# -- workloads -------------------------------------------------------------


def setup_verify_suites(pgh, seed, goldens):
    items = []
    for p in VERIFY_PRIMES:
        want = goldens["verify_suites"][str(p)]

        def run(p=p, want=want):
            rc, text = verify_output(pgh, p)
            digest = hashlib.sha256(text.encode()).hexdigest()
            return 1, int(rc != 0 or digest != want["sha256"])
        items.append(Item(f"verify p={p}", 1, run))
    return items


def setup_large_groups(pgh, seed, goldens):
    items = []
    for name, constructor, args in seeded_order(LARGE_GROUPS, seed):
        P = build(pgh, constructor, args)
        want = goldens["large_groups"][name]

        def run(name=name, P=P, want=want):
            return 1, int(report_record(pgh, name, clone(pgh, P)) != want)
        items.append(Item(f"report {name}", 1, run))
    return items


def setup_cover_multiplier(pgh, seed, goldens):
    items = []
    for name, constructor, args in seeded_order(COVER_GROUPS, seed):
        P = build(pgh, constructor, args)
        want = goldens["cover_multiplier"][name]

        def run(P=P, want=want):
            return 1, int(cover_multiplier(pgh, clone(pgh, P)) != want)
        items.append(Item(f"cover {name}", 1, run))
    return items


def sample_indices(space, consistent, seed):
    """SAMPLE_SIZE candidate indices, stratified so that the share of
    consistent candidates is the same as in the whole space; the pass time
    then does not drift with the seed."""
    rng = random.Random(seed)
    cons = sorted(consistent)
    k = round(SAMPLE_SIZE * len(cons) / space.size)
    rest = [i for i in range(space.size) if i not in consistent]
    picked = rng.sample(cons, k) + rng.sample(rest, SAMPLE_SIZE - k)
    rng.shuffle(picked)
    return picked


def setup_enumerate_p4(pgh, seed, goldens):
    items = []
    for p, n in ENUM_SPACES:
        golden = goldens["enumerate_p4"][space_key(p, n)]
        consistent = set(golden["consistent"])
        table = {tuple(tuple(x) if isinstance(x, list) else x for x in fp)
                 for fp in golden["table"]}
        space = CandidateSpace(p, n)
        complete = (p, n) != SAMPLED_SPACE
        if complete:
            indices = range(space.size)
        else:
            indices = sample_indices(space, consistent, seed)

        def run(p=p, n=n, space=space, indices=indices, consistent=consistent,
                table=table, complete=complete):
            failed = 0
            seen = set()
            for index in indices:
                powers, comm = space.candidate(index)
                try:
                    try:
                        P = pgh.pcp.PcPresentation(p, n, powers, comm)
                    except ValueError:
                        # rejection is an outcome; a wrong one is a failure
                        failed += index in consistent
                        continue
                    if index not in consistent:
                        failed += 1
                        continue
                    fp = fingerprint(pgh, P)
                    seen.add(fp)
                    failed += fp not in table
                except Exception:
                    print(f"candidate {index} of order {p}^{n} raised:",
                          file=sys.stderr)
                    traceback.print_exc()
                    failed += 1
            attempted = len(indices)
            if complete:
                # the full space must reach every table fingerprint
                attempted += 1
                failed += seen != table
            return attempted, failed
        items.append(Item(f"enumerate {p}^{n}", len(indices) + complete, run))
    return items


WORKLOADS = {
    "verify_suites": setup_verify_suites,
    "large_groups": setup_large_groups,
    "cover_multiplier": setup_cover_multiplier,
    "enumerate_p4": setup_enumerate_p4,
}
