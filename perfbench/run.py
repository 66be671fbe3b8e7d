"""Run one workload of the pgh benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a pgh checkout: pgh is imported from the
checkout's src/ with no install, in this one process, with no --jobs.
The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics; progress and the traced breakdown go to stderr.

--trace 0 sets up SETUP_REPEATS times (setup_s is the median), then runs
passes over the workload's inputs until the next pass would end after
--seconds (at least one pass); wall_s is the median pass time.  Both are
scaled to the reference speed by the speed probe (see speed.py), which keeps
them steady on a machine whose speed drifts with its neighbours' load; the
unscaled times go to stderr.

--trace 1 runs one untraced set-up and pass, then wraps pgh's public
functions (see tracer.py), runs one traced set-up and pass, and reports the
per-layer metrics of the traced ones.  Counts repeat exactly for a given
commit and seed.
"""

import argparse
import contextlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads
from speed import SpeedProbe

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 15


def import_pgh():
    """A fresh import of pgh and pgh.cli from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "pgh" or n.startswith("pgh.")]:
        del sys.modules[name]
    pgh = importlib.import_module("pgh")
    importlib.import_module("pgh.cli")
    if Path(pgh.__file__).resolve().parent != SRC / "pgh":
        raise ImportError(f"pgh was imported from {pgh.__file__}, not from {SRC}")
    return pgh


def build_items(pgh, workload, seed):
    return workloads.WORKLOADS[workload](pgh, seed, workloads.load_goldens())


def run_pass(items, tr=None):
    attempted = failed = 0
    for item in items:
        with tr.region("bench.item") if tr else contextlib.nullcontext():
            a, f = item()
        attempted += a
        failed += f
        if f:
            print(f"FAILED: {item.name} ({f} of {a})", file=sys.stderr)
    return attempted, failed


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def result(attempted, failed, metrics):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_untraced(args, items, raw_setup, setup_times, probe):
    raw, times = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        (a, f), t, scaled = probe.scaled(lambda: run_pass(items))
        raw.append(t)
        times.append(scaled)
        attempted += a
        failed += f
        if time.perf_counter() - start + statistics.median(raw) > args.seconds:
            break
    print(f"{args.workload}: {len(times)} passes, "
          + ", ".join(f"{t:.3f}" for t in raw) + " s; set-up "
          + ", ".join(f"{t:.4f}" for t in raw_setup) + " s (unscaled); "
          f"machine at {probe.speed():.3f} of reference speed "
          f"({len(probe.samples)} samples)", file=sys.stderr)
    return result(attempted, failed, {
        "wall_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    })


def run_traced(args, pgh):
    t0 = time.perf_counter()
    a1, f1 = run_pass(build_items(pgh, args.workload, args.seed))
    untraced_s = time.perf_counter() - t0

    tr = tracer.Tracer()
    tr.install()
    with tr.region("bench.setup"):
        items = build_items(pgh, args.workload, args.seed)
    a2, f2 = run_pass(items, tr)

    for module in tracer.MODULES:
        share = tr.module_self_s(module) / tr.traced_s()
        print(f"{args.workload}: {module:10s} self {tr.module_self_s(module):8.3f} s"
              f" ({share:6.1%})", file=sys.stderr)
    metrics = tracer.per_layer_metrics(tr, {"untraced_s": untraced_s})
    return result(a1 + a2, f1 + f2, metrics)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(args, probe):
    """(items, unscaled set-up times, scaled set-up times), set up
    SETUP_REPEATS times."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        items, t, ts = probe.scaled(
            lambda: build_items(import_pgh(), args.workload, args.seed))
        raw.append(t)
        scaled.append(ts)
    return items, raw, scaled


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.trace:
            try:
                out = run_traced(args, import_pgh())
            except tracer.AliasError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        else:
            with SpeedProbe() as probe:
                items, raw_setup, setup_times = set_up(args, probe)
                out = run_untraced(args, items, raw_setup, setup_times, probe)
    except ImportError as exc:
        print(f"error: cannot import pgh: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
