"""Record benchmark runs of two pgh checkouts into a BENCH_*.json file.

    python3 tools/record_bench.py --out BENCH_8.json \
        --checkout parent=../parent --checkout change=. \
        --workload enumerate_p4 --seeds 801 802 --seconds 25 --trace 0

For each seed it runs `python3 perfbench/run.py` unchanged in every
checkout, alternating which one runs first, and appends one record per run
(checkout, workload, seed, trace, position in the pair and the result line)
to the JSON list in --out, which is rewritten after every run.
"""

import argparse
import json
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--checkout", action="append", required=True,
                        help="NAME=PATH, once per checkout, in pair order")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    checkouts = [c.split("=", 1) for c in args.checkout]
    records = json.loads(args.out.read_text()) if args.out.exists() else []
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


if __name__ == "__main__":
    main()
