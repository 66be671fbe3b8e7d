"""Record benchmark runs of two pgh checkouts into a BENCH_*.json file.

    python3 tools/record_bench.py --out BENCH_8.json \
        --checkout parent=../parent --checkout change=. \
        --workload enumerate_p4 verify_suites --seeds 801 802 \
        --seconds 25 --trace 0

For each seed it runs `python3 perfbench/run.py` unchanged in every
checkout, alternating which one runs first, and appends one record per run
(checkout, workload, seed, trace, position in the pair and the result line)
to the JSON list in --out, which is rewritten after every run.  At the end
it prints, per workload and per end-to-end metric of BENCHMARK.json
(wall_s, setup_s, peak_rss_mib), the median and interquartile range of
each checkout over this run's seeds, each later checkout's median as a
ratio of the first one's (such as `change/parent 0.877`) and in how many
pairs each later checkout beat the first one, then the number of failed
operations of each checkout.  A difference of medians within the first
checkout's interquartile range reads as level or unresolved.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = BENCHMARK["end_to_end"]


def run(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(records, names):
    """Print, per workload, the median and the interquartile range (the
    distance between the inclusive quartiles; 0 for a single run) of each
    end-to-end metric of BENCHMARK.json for each checkout, each later
    checkout's median over names[0]'s, the pairs (runs with the same seed)
    each later checkout won on it against names[0], and the sum of
    `failed` per checkout."""
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, runs in by_workload.items():
        for metric in END_TO_END:
            values = {}
            for r in runs:
                m = r["result"]["metrics"].get(metric["name"])
                if m is not None:
                    values.setdefault(r["checkout"], {})[r["seed"]] = m["value"]
            medians = {name: statistics.median(values[name].values())
                       for name in names if name in values}
            line = [f"{workload}: median {metric['name']}"]
            for name, median in medians.items():
                line.append(f"{name} {median:.3f}"
                            f" iqr {iqr(list(values[name].values())):.3g}")
            base = values.get(names[0], {})
            lower = metric["better"] == "lower"
            for name in names[1:]:
                if medians.get(names[0]) and name in medians:
                    line.append(f"{name}/{names[0]} "
                                f"{medians[name] / medians[names[0]]:.3f}")
                seeds = base.keys() & values.get(name, {}).keys()
                won = sum(values[name][s] < base[s] if lower
                          else values[name][s] > base[s] for s in seeds)
                line.append(f"{name} won {won}/{len(seeds)}")
            print("  ".join(line), flush=True)
        failed = {}
        for r in runs:
            failed[r["checkout"]] = failed.get(r["checkout"], 0) + r["result"]["failed"]
        print(f"{workload}: failed  " + "  ".join(
            f"{name} {failed[name]}" for name in names if name in failed), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--checkout", action="append", required=True,
                        help="NAME=PATH, once per checkout, in pair order")
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=WORKLOADS,
                        help="default: every workload of BENCHMARK.json")
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
