"""Metric catalogue, the next-configuration percentiles, and the per-layer
metrics derived from a trace.

``END_TO_END`` and ``PER_LAYER`` map each metric name to its unit; they
must match ``BENCHMARK.json`` (the tests check this).
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

from spans import Span, descendants, self_times

END_TO_END = {
    "setup_s": "s",
    "iters_per_s": "1/s",
    "next_config_p50_ms": "ms",
    "next_config_p90_ms": "ms",
    "best_improvement_pct": "%",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}

OPTIMIZER_LABELS = ("vanilla_bo", "mixed_kernel_bo", "smac", "turbo", "ddpg", "random", "ga", "tpe")
FAILURE_KINDS = ("crash", "unstartable", "timeout", "transient", "evaluation_error")

PER_LAYER = {
    "dbms.evals": "count",
    "dbms.eval_s": "s",
    "dbms.eval_p50_us": "us",
    "dbms.evals_per_s": "1/s",
    "dbms.failed_share": "share",
    "space.encode_rows": "count",
    "space.encode_s": "s",
    "space.sample_s": "s",
    "optimizers.suggest_s": "s",
    "optimizers.observe_s": "s",
    "optimizers.suggest_calls": "count",
    **{f"optimizers.{name}.suggest_s": "s" for name in OPTIMIZER_LABELS},
    "tuning.self_s": "s",
    "selection.rank_s": "s",
    "transfer.repository_s": "s",
    "transfer.suggest_s": "s",
    "surrogate.build_s": "s",
    "surrogate.eval_self_s": "s",
    "ml.predict_calls": "count",
    "ml.predict_s": "s",
    "ml.predict_p50_us": "us",
    "parallel.worker_busy_share": "share",
    "parallel.overhead_s": "s",
    "parallel.attempts": "count",
    "parallel.checkpoint_bytes": "bytes",
    "parallel.resume_reexecuted": "count",
    "resilience.eval_retries": "count",
    **{f"resilience.failure_kinds.{kind}": "count" for kind in FAILURE_KINDS},
    "trace.timed_wall_s": "s",
    "trace.unattributed_share": "share",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "bench.failed_share": "share",
}

#: Spans whose time is spent in set-up, reported as the median per repetition.
SETUP_SPANS = {
    "selection.rank": "selection.rank_s",
    "transfer.repository": "transfer.repository_s",
    "surrogate.build": "surrogate.build_s",
}


def next_config_ms(samples: list[tuple[str, float, float]], q: float, scaled: bool = True) -> float:
    """Geometric mean over optimizers of each one's ``q``-th percentile wait, in ms.

    The optimizers' waits differ by orders of magnitude, so a percentile of
    the pooled samples falls between their clusters and jumps with small
    shifts in the mix; one percentile per optimizer does not.  Each wait is
    multiplied by its host-speed scale unless ``scaled`` is false.
    """
    by_label: dict[str, list[float]] = {}
    for label, seconds, scale in samples:
        by_label.setdefault(label, []).append(seconds * scale if scaled else seconds)
    logs = [np.log(np.percentile(waits, q)) for waits in by_label.values()]
    return 1e3 * float(np.exp(np.mean(logs)))


def timed_layer_metrics(spans: Sequence[Span], roots: Sequence[int]) -> dict[str, float]:
    """Per-layer metrics from the spans nested under the timed round spans."""
    selfs = self_times(spans)
    inside = [i for root in roots for i in descendants(spans, root)]
    by_name: dict[str, list[int]] = {}
    for i in inside:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(name: str, use_self: bool = False) -> float:
        return sum(selfs[i] if use_self else spans[i].duration for i in by_name.get(name, ()))

    evals = by_name.get("dbms.eval", [])
    eval_s = total("dbms.eval")
    suggests = by_name.get("optimizers.suggest", [])
    predicts = by_name.get("ml.predict", [])
    wall = sum(spans[root].duration for root in roots)
    unattributed = sum(selfs[root] for root in roots)
    out = {
        "dbms.evals": len(evals),
        "dbms.eval_s": eval_s,
        "dbms.eval_p50_us": 1e6 * statistics.median(spans[i].duration for i in evals) if evals else 0.0,
        "dbms.evals_per_s": len(evals) / eval_s if eval_s > 0 else 0.0,
        "dbms.failed_share": (
            sum(1 for i in evals if spans[i].attrs and spans[i].attrs.get("failed")) / len(evals)
            if evals
            else 0.0
        ),
        "space.encode_rows": sum(spans[i].attrs["rows"] for i in by_name.get("space.encode", ())),
        "space.encode_s": total("space.encode"),
        "space.sample_s": total("space.sample"),
        "optimizers.suggest_s": total("optimizers.suggest"),
        "optimizers.observe_s": total("optimizers.observe"),
        "optimizers.suggest_calls": len(suggests),
        "tuning.self_s": total("tuning.session", use_self=True),
        "transfer.suggest_s": sum(
            spans[i].duration for i in suggests if spans[i].attrs["optimizer"] == "rgpe_smac"
        ),
        "surrogate.eval_self_s": total("surrogate.eval", use_self=True),
        "ml.predict_calls": len(predicts),
        "ml.predict_s": total("ml.predict"),
        "ml.predict_p50_us": (
            1e6 * statistics.median(spans[i].duration for i in predicts) if predicts else 0.0
        ),
        "trace.timed_wall_s": wall,
        "trace.unattributed_share": unattributed / wall if wall > 0 else 0.0,
    }
    for name in OPTIMIZER_LABELS:
        out[f"optimizers.{name}.suggest_s"] = sum(
            spans[i].duration for i in suggests if spans[i].attrs["optimizer"] == name
        )
    return out


def setup_layer_metrics(spans: Sequence[Span], reps: int) -> dict[str, float]:
    """Median per set-up repetition of each set-up layer's time."""
    out = {}
    for span_name, metric in SETUP_SPANS.items():
        per_rep = [
            sum(s.duration for s in spans if s.name == span_name and s.study == f"setup{rep}")
            for rep in range(reps)
        ]
        out[metric] = statistics.median(per_rep)
    return out
