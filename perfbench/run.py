"""End-to-end tuning benchmark: one workload per invocation.

    python3 perfbench/run.py --workload tune-bo --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones, and the spans are written to ``.perfbench/``.  See
``perfbench/README.md``.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up)
from collections import Counter  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tune-bo", "sweep", "surrogate", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def import_program():
    """Import every layer from this checkout's ``src`` (never from elsewhere)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (imports dbms, space, optimizers, ml, tuning, ...)

    return workloads


def environment() -> dict:
    import numpy
    import scipy
    from repro.perf.treefast import native_kernel

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "tree_engine": "native" if native_kernel() is not None else "numpy",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def warm_up(optimizers) -> None:
    """Exercise lazily initialised paths (forest kernel, optimizer fits) once."""
    import numpy as np
    from repro.dbms.catalog import mysql_knob_space
    from repro.dbms.server import MySQLServer
    from repro.ml.forest import RandomForestRegressor
    from repro.parallel import RegistryOptimizerFactory
    from repro.tuning.objective import DatabaseObjective
    from repro.tuning.session import TuningSession

    rng = np.random.default_rng(0)
    X = rng.random((32, 4))
    RandomForestRegressor(n_estimators=4, seed=0).fit(X, X.sum(axis=1)).predict(X)
    full = mysql_knob_space("B", seed=0)
    space = full.subspace(full.names[:5], seed=0)
    for name in optimizers:
        objective = DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=0), space)
        optimizer = RegistryOptimizerFactory(name)(space, 0)
        TuningSession(objective, optimizer, space, max_iterations=12, seed=0).run()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(os.path.join(WORKDIR, "tmp"), exist_ok=True)
    # Everything the program writes to a temp dir (the compiled forest
    # kernel, executor journals) stays inside the checkout.
    os.environ["TMPDIR"] = os.path.join(WORKDIR, "tmp")
    tempfile.tempdir = None
    # One BLAS thread per process, set before numpy loads: the host's few
    # cores are shared, and the service pool already runs two processes.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    workloads = import_program()
    from layers import END_TO_END, PER_LAYER, next_config_ms, setup_layer_metrics, timed_layer_metrics
    from pace import NOMINAL_S, WINDOW
    from spans import Tracer

    env = environment()
    workload_cls = workloads.WORKLOADS[args.workload]
    warm_up(workload_cls.optimizers)
    ready = time.perf_counter() - PROCESS_START

    run_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=os.path.join(WORKDIR, "tmp"))
    try:
        tracer = Tracer(enabled=bool(args.trace))
        min_rounds = workload_cls.min_rounds if args.size == "full" else 1
        ctx = workloads.Context(tracer, workloads.SIZES[args.size], args.seed, run_dir, min_rounds)
        bench = workload_cls(ctx)

        setup_times, states = [], []
        for rep in range(ctx.size["setup_reps"]):
            tracer.study = f"setup{rep}"
            t0 = time.perf_counter()
            states.append(bench.setup())
            setup_times.append(time.perf_counter() - t0)
        state = states[0]
        identity = bench.identity(state)
        ctx.operation(
            all(bench.identity(s) == identity for s in states[1:]),
            "set-up is not deterministic across repetitions",
        )
        setup_s = ready + statistics.median(setup_times)

        # Timed rounds, each followed by an untimed burst of checkpoint
        # resumes (0.15 of the round's time) so that resume samples
        # spread over the whole run.  Each round and each burst starts
        # from a collected heap.  Host-speed probes bracket every round
        # and run inside it; their time is taken out of the round's.
        r, round_roots, raw_rates, round_rates, round_scales = 0, [], [], [], []
        timed_wall, resume_wall, pace_in_rounds, pace = 0.0, 0.0, 0.0, ctx.pace
        t_rounds = time.perf_counter()
        while r < min_rounds or timed_wall < args.seconds:
            tracer.study = f"r{r}"
            gc.collect()
            pace.burst()
            first_probe, probe_spent = len(pace.samples) - WINDOW, pace.spent
            evals, t0 = ctx.evals, time.perf_counter()
            if tracer.enabled:
                round_roots.append(tracer.open("bench.round", t0))
            bench.run_round(state, r)
            t1 = time.perf_counter()
            if tracer.enabled:
                tracer.close(round_roots[-1], t1)
            timed_wall += t1 - t0
            pace_in_rounds += pace.spent - probe_spent
            work = t1 - t0 - (pace.spent - probe_spent)
            tracing, tracer.enabled = tracer.enabled, False
            pace.burst()
            ctx.round_scale = pace.scale(since=first_probe)
            round_scales.append(ctx.round_scale)
            bench.after_round()
            raw_rates.append((ctx.evals - evals) / work)
            round_rates.append(raw_rates[-1] / ctx.round_scale)
            if r == 0:
                resumer = bench.resumer(state)
            gc.collect()
            t2 = time.perf_counter()
            resumer.burst(ctx.size["resume_share"] * (t1 - t0))
            resume_wall += time.perf_counter() - t2
            tracer.enabled = tracing
            r += 1

        tracer.study = "check"
        t_check = time.perf_counter()
        bench.check(state)
        check_wall = time.perf_counter() - t_check

        improvements = [workloads.improvement_pct(s) for s in ctx.studies]
        end_to_end = {
            "setup_s": setup_s,
            "iters_per_s": statistics.median(round_rates),
            "next_config_p50_ms": next_config_ms(ctx.next_config, 50),
            "next_config_p90_ms": next_config_ms(ctx.next_config, 90),
            "best_improvement_pct": statistics.fmean(improvements),
            "resume_s": statistics.median(resumer.samples),
            "peak_rss_mb": peak_rss_mb(),
        }
        failed = len(ctx.failures)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "environment": env,
            "rounds": r,
            "timed_wall_s": timed_wall,
            "raw": {
                "iters_per_s": statistics.median(raw_rates),
                "next_config_p50_ms": next_config_ms(ctx.next_config, 50, scaled=False),
                "next_config_p90_ms": next_config_ms(ctx.next_config, 90, scaled=False),
                "resume_s": statistics.median(resumer.raw_samples),
            },
            "pace": {
                "nominal_s": NOMINAL_S,
                "probes": len(pace.samples),
                "median_s": statistics.median(pace.samples),
                "share_of_round_wall": pace_in_rounds / timed_wall,
                "round_scales": round_scales,
            },
            "phase_wall_s": {
                "imports_and_warm_up": ready,
                "set_up": sum(setup_times),
                "rounds_and_resumes": t_check - t_rounds,
                "resumes": resume_wall,
                "checks": check_wall,
            },
            "evaluations": ctx.evals,
            "iters_per_s_per_round": round_rates,
            "next_config_samples": dict(Counter(sample[0] for sample in ctx.next_config)),
            "studies_in_improvement": len(improvements),
            "resume_samples": len(resumer.samples),
            "setup_repetitions_s": setup_times,
            "imports_and_warmup_s": ready,
            "failed_share": failed / ctx.attempted,
            "failures": ctx.failures,
        }
        if tracer.enabled:
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(timed_layer_metrics(tracer.spans, round_roots))
            metrics.update(setup_layer_metrics(tracer.spans, ctx.size["setup_reps"]))
            metrics.update(ctx.layer)
            traced_wall, untraced_wall = ctx.replay_pair or (0.0, 0.0)
            metrics["trace.overhead_pct"] = (
                100.0 * (traced_wall - untraced_wall) / untraced_wall if untraced_wall > 0 else 0.0
            )
            metrics["trace.spans"] = len(tracer.spans)
            metrics["bench.failed_share"] = failed / ctx.attempted
            units = PER_LAYER
            trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, {**report, "end_to_end_traced": end_to_end})
            report["trace_file"] = trace_path
        else:
            metrics, units = end_to_end, END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in json.dumps(report, indent=1).splitlines():
        print(f"# {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": ctx.attempted,
                "failed": failed,
                "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
