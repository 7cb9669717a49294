"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload end to end at tiny input sizes through
the same command line the benchmark is driven by.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from layers import END_TO_END, PER_LAYER, next_config_ms, timed_layer_metrics
from pace import NOMINAL_S, WINDOW, Pace
from spans import Span, Tracer, covered, descendants, self_times

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("tune-bo", "sweep", "surrogate", "service")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


# ----------------------------------------------------------------------
# metric catalogue
# ----------------------------------------------------------------------
def test_metric_names_and_units_match_benchmark_json():
    spec = load_benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ----------------------------------------------------------------------
# span arithmetic on a synthetic trace
# ----------------------------------------------------------------------
def synthetic_trace():
    # root [0, 10] has children A [1, 4] and B [3, 6] (overlapping) and
    # C [9, 12], which runs past the root's end; A has a child [2, 3].
    return [
        Span("bench.round", 0.0, 10.0, -1, "r0"),
        Span("tuning.session", 1.0, 4.0, 0, "s0"),
        Span("dbms.eval", 2.0, 3.0, 1, "s0"),
        Span("tuning.session", 3.0, 6.0, 0, "s1"),
        Span("optimizers.suggest", 9.0, 12.0, 0, "s2", {"optimizer": "ga"}),
    ]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (9, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(5, 5), (11, 12)], 0, 10) == 0.0


def test_self_time_is_span_minus_covered_child_time():
    selfs = self_times(synthetic_trace())
    assert selfs == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0])


def test_descendants_follow_parent_links():
    spans = synthetic_trace()
    assert descendants(spans, 0) == [1, 2, 3, 4]
    assert descendants(spans, 1) == [2]


def test_timed_layer_metrics_on_synthetic_trace():
    metrics = timed_layer_metrics(synthetic_trace(), [0])
    assert metrics["tuning.self_s"] == pytest.approx(5.0)
    assert metrics["dbms.evals"] == 1
    assert metrics["dbms.eval_s"] == pytest.approx(1.0)
    assert metrics["optimizers.suggest_calls"] == 1
    assert metrics["optimizers.ga.suggest_s"] == pytest.approx(3.0)
    assert metrics["trace.timed_wall_s"] == pytest.approx(10.0)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.4)


def test_tracer_nests_and_rejects_out_of_order_close():
    tracer = Tracer(enabled=True)
    tracer.study = "s"
    outer = tracer.open("tuning.session", 0.0)
    inner = tracer.open("dbms.eval", 1.0)
    with pytest.raises(RuntimeError):
        tracer.close(outer, 2.0)
    tracer.close(inner, 2.0, failed=False)
    tracer.close(outer, 3.0)
    assert [(s.name, s.parent, s.study) for s in tracer.spans] == [
        ("tuning.session", -1, "s"),
        ("dbms.eval", 0, "s"),
    ]
    assert tracer.spans[1].attrs == {"failed": False}


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("selection.rank"):
        pass
    assert tracer.spans == []


# ----------------------------------------------------------------------
# next-configuration percentiles and host-speed scaling
# ----------------------------------------------------------------------
def test_next_config_is_geometric_mean_of_per_optimizer_percentiles():
    # "fast" waits 1-3 ms, "slow" waits 100-300 ms; pooled, the median
    # would sit in whichever cluster holds more samples.
    samples = [("fast", s / 1e3, 1.0) for s in (1, 2, 3)] + [("slow", s / 1e3, 1.0) for s in (100, 200, 300)]
    assert next_config_ms(samples, 50) == pytest.approx((2.0 * 200.0) ** 0.5)
    doubled = [(label, seconds, 0.5) for label, seconds, __ in samples]
    assert next_config_ms(doubled, 50) == pytest.approx((1.0 * 100.0) ** 0.5)
    assert next_config_ms(doubled, 50, scaled=False) == pytest.approx((2.0 * 200.0) ** 0.5)


def test_pace_scale_is_nominal_over_median_probe():
    pace = Pace(Tracer(enabled=False))
    pace.samples = [NOMINAL_S] * WINDOW + [2 * NOMINAL_S] * WINDOW
    assert pace.scale() == pytest.approx(0.5)
    assert pace.scale(since=0) == pytest.approx(NOMINAL_S / (1.5 * NOMINAL_S))
    pace.burst()
    assert len(pace.samples) == 3 * WINDOW and pace.spent > 0


def test_traced_probes_are_spans_of_their_own():
    tracer = Tracer(enabled=True)
    Pace(tracer).probe()
    assert [s.name for s in tracer.spans] == ["bench.pace"]


# ----------------------------------------------------------------------
# end-to-end smoke
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
