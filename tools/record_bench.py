"""Record benchmark runs of two pgh checkouts into a BENCH_*.json file.

    python3 tools/record_bench.py --out BENCH_8.json \
        --checkout parent=../parent --checkout change=. \
        --workload enumerate_p4 verify_suites --seeds 801 802 \
        --seconds 25 --trace 0

For each seed it runs `python3 perfbench/run.py` unchanged in every
checkout, alternating which one runs first, and appends one record per run
(checkout, workload, seed, trace, position in the pair and the result line)
to the JSON list in --out, which is rewritten after every run.  At the end
it prints, per workload, the median wall_s of each checkout over this
run's seeds and in how many pairs each later checkout beat the first one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["verify_suites", "large_groups", "cover_multiplier", "enumerate_p4"]


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(records, names):
    """Print, per workload, the median wall_s of each checkout and the pairs
    (runs with the same seed) each later checkout won against names[0]."""
    walls = {}
    for r in records:
        wall = r["result"]["metrics"].get("wall_s")
        if wall is not None:
            walls.setdefault(r["workload"], {}).setdefault(
                r["checkout"], {})[r["seed"]] = wall["value"]
    for workload, by_name in walls.items():
        line = [f"{workload}: median wall_s"]
        for name in names:
            if name in by_name:
                line.append(f"{name} {statistics.median(by_name[name].values()):.3f}")
        base = by_name.get(names[0], {})
        for name in names[1:]:
            seeds = base.keys() & by_name.get(name, {}).keys()
            won = sum(by_name[name][s] < base[s] for s in seeds)
            line.append(f"{name} won {won}/{len(seeds)}")
        print("  ".join(line), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--checkout", action="append", required=True,
                        help="NAME=PATH, once per checkout, in pair order")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    checkouts = [c.split("=", 1) for c in args.checkout]
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    first_new = len(records)
    for workload in args.workload or WORKLOADS:
        for k, seed in enumerate(args.seeds):
            order = checkouts if k % 2 == 0 else checkouts[::-1]
            for position, (name, path) in enumerate(order, 1):
                result = run(path, workload, seed, args.seconds, args.trace)
                records.append({"checkout": name, "workload": workload,
                                "seed": seed, "trace": args.trace,
                                "position": position, "seconds": args.seconds,
                                "result": result})
                args.out.write_text(json.dumps(records, indent=1) + "\n")
                print(name, workload, seed, args.trace, position,
                      json.dumps(result["metrics"].get("wall_s")), flush=True)
    summarize(records[first_new:], [name for name, _ in checkouts])


if __name__ == "__main__":
    main()
