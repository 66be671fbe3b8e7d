"""Checks of the benchmark harness itself.

    python3 -m pytest perfbench

test_counts_repeat makes two traced runs of every workload, about five
minutes in all; the other tests take seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload, trace, seed=bench.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _counts(out):
    return {name: m["value"] for name, m in out["metrics"].items()
            if m["unit"] in ("count", "bytes")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat(workload):
    """Counts are the hardware-independent regression gate, so two traced
    runs of one commit and seed must agree on every one of them."""
    first = _run(workload, trace=1)
    second = _run(workload, trace=1)
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
    assert _counts(first) == _counts(second)
    assert _counts(first)["pcp.arith_calls"] > 0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [row[:3] for row in tracer.PER_LAYER])
    assert ({m["name"] for m in spec["end_to_end"]}
            == {"wall_s", "setup_s", "peak_rss_mib"})
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_direct_aliases_are_replaced():
    pgh = bench.import_pgh()
    original = pgh.pcp.center
    pgh.verify.extra_alias = original
    tracer.Tracer().install()
    assert pgh.pcp.center is not original
    assert pgh.verify.center is pgh.pcp.center
    assert pgh.verify.extra_alias is pgh.pcp.center
    assert pgh.center is pgh.pcp.center


def test_unreachable_alias_fails_the_install():
    pgh = bench.import_pgh()
    pgh.cli._SUITES["planted"] = (pgh.pcp.center,)
    with pytest.raises(tracer.AliasError, match=r"pgh\.cli\._SUITES"):
        tracer.Tracer().install()


def test_wrong_answer_counts_as_failure():
    pgh = bench.import_pgh()
    order16 = workloads.setup_enumerate_p4(pgh, bench.DEFAULT_SEED,
                                           workloads.load_goldens())[0]
    attempted, failed = order16()
    assert attempted == 1025 and failed == 0

    trivial = pgh.pcp.AbelianType()
    pgh.homology.schur_multiplier = lambda P: trivial
    attempted, failed = order16()
    assert attempted == 1025 and failed > 0


def test_reference_work_is_pgh_arithmetic():
    """The probe's frozen collector and matrix product compute what pgh and
    plain arithmetic compute, so the probe times real work of that shape."""
    pgh = bench.import_pgh()
    E = pgh.catalog.parse((HERE / "reference_group.json").read_text())
    _, pairs, m = speed.reference_data()
    products, cube = speed.reference_work()
    assert products == [E.mult(x, y) for x, y in pairs]
    n = len(m)
    square = [[sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
    assert cube == [[sum(square[i][k] * m[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]


def test_probe_scales_by_mean_speed():
    probe = speed.SpeedProbe()
    probe.samples = [speed.REFERENCE_S, speed.REFERENCE_S / 2]
    assert probe.speed() == pytest.approx(1.5)
    assert probe.speed(since=1) == pytest.approx(2.0)
    with probe:
        _, t, scaled = probe.scaled(lambda: sum(range(10 ** 6)))
    assert len(probe.samples) >= 3
    assert scaled == pytest.approx(t * probe.speed(since=2))
