"""Record the benchmark goldens from the pgh tree next to this directory.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens.json.  The goldens are a correctness reference:
record them only from a tree whose outputs are trusted, never to make a
failing benchmark pass.  This takes about two minutes (the order-81 space
is enumerated in full).
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pgh  # noqa: E402
import pgh.cli  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    goldens = {"pgh_version": pgh.__version__}

    verify = {}
    for p in wl.VERIFY_PRIMES:
        rc, text = wl.verify_output(pgh, p)
        if rc != 0:
            raise SystemExit(f"verify at p={p} exited {rc}")
        verify[str(p)] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                          "bytes": len(text.encode())}
    goldens["verify_suites"] = verify

    goldens["large_groups"] = {
        name: wl.report_record(pgh, name, wl.build(pgh, c, args))
        for name, c, args in wl.LARGE_GROUPS}

    goldens["cover_multiplier"] = {
        name: wl.cover_multiplier(pgh, wl.build(pgh, c, args))
        for name, c, args in wl.COVER_GROUPS}

    spaces = {}
    for p, n in wl.ENUM_SPACES:
        table = {wl.fingerprint(pgh, P) for P in pgh.catalog.small_group_table(p, n)}
        space = wl.CandidateSpace(p, n)
        consistent = []
        for i in range(space.size):
            powers, comm = space.candidate(i)
            try:
                P = pgh.pcp.PcPresentation(p, n, powers, comm)
            except ValueError:
                continue
            consistent.append(i)
            if wl.fingerprint(pgh, P) not in table:
                raise SystemExit(f"candidate {i} of order {p}^{n} is not in the table")
        spaces[wl.space_key(p, n)] = {"consistent": consistent,
                                      "table": sorted(wl.jsonable(sorted(table)))}
    goldens["enumerate_p4"] = spaces

    with open(wl.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
