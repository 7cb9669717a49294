"""The four benchmark workloads and their correctness checks.

Every workload follows one shape, driven by :mod:`run`:

``setup()``
    builds the inputs (spaces, rankings, repositories, surrogates); run a
    few times so set-up time can be reported as a median, and
    ``identity(state)`` must agree across the repetitions.
``run_round(state, r)``
    one fixed batch of studies whose seeds derive from ``(seed, r)``.  The
    timed phase repeats whole rounds until the time budget is spent (and at
    least ``min_rounds`` times), so every run measures the same mix of
    studies and the quality metric always covers the same studies.
    ``after_round()`` does the untimed bookkeeping of a round.
``resumer(state)``
    after round 0, a :class:`Resumer` over a checkpoint of completed
    studies; its resumes run between later rounds.
``check(state)``
    correctness checks outside the timed region: a replay of one round-0
    study must reproduce its history fingerprint, and every suggested
    configuration must round-trip ``encode``/``decode``.

Studies are described by :class:`~repro.parallel.RunSpec` so the same
description drives the harness's own session, the executor replay and the
checkpoint resume.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dbms.catalog import MODELED_KNOBS, mysql_knob_space
from repro.dbms.server import MySQLServer
from repro.optimizers.base import History
from repro.parallel import (
    ParallelExecutor,
    RegistryOptimizerFactory,
    RunSpec,
    TransientObjective,
    derive_run_seeds,
    history_fingerprint,
    result_fingerprint,
    transient_schedule,
)
from repro.resilience import GuardPolicy
from repro.selection.base import collect_samples
from repro.selection.shap import ShapImportance
from repro.space.sampling import LatinHypercubeSampler
from repro.surrogate.benchmark import SurrogateBenchmark
from repro.transfer import RGPESMAC, SourceTask, TransferRepository
from repro.tuning.metrics import improvement_over_default
from repro.tuning.objective import DatabaseObjective, SurrogateObjective
from repro.tuning.session import TuningSession

from layers import FAILURE_KINDS
from pace import Pace
from probes import TimedOptimizer, TracedObjective, traced_evaluate, traced_predictor
from spans import Tracer

#: Input sizes.  ``tiny`` exists only for the smoke tests.
SIZES: dict[str, dict[str, int]] = {
    "full": {
        "setup_reps": 3,
        "resume_share": 0.15,
        "rank_pool": 400,
        "source_iters": 40,
        "bo_iters": 20,
        "rgpe_iters": 15,
        "sweep_pool": 400,
        "sweep_iters": 1000,
        "surrogate_pool": 800,
        "surrogate_ga_iters": 1500,
        "surrogate_random_iters": 1000,
        "surrogate_tpe_iters": 60,
        "service_specs": 16,
        "service_iters": 40,
    },
    "tiny": {
        "setup_reps": 1,
        "resume_share": 0,
        "rank_pool": 40,
        "source_iters": 12,
        "bo_iters": 12,
        "rgpe_iters": 12,
        "sweep_pool": 20,
        "sweep_iters": 30,
        "surrogate_pool": 60,
        "surrogate_ga_iters": 30,
        "surrogate_random_iters": 30,
        "surrogate_tpe_iters": 14,
        "service_specs": 4,
        "service_iters": 15,
    },
}

INSTANCE = "B"
#: Seed of the problem definition (knob ranking, source repository,
#: surrogate), fixed like ``paper_spaces``' default so every run tunes the
#: same problem; ``--seed`` drives the studies and their noise.
PROBLEM_SEED = 17


@dataclass
class Study:
    """One completed study of the timed phase."""

    label: str
    history: History
    default_objective: float
    direction: str
    wall_s: float


@dataclass
class Context:
    """Everything one benchmark run accumulates."""

    tracer: Tracer
    size: dict[str, int]
    seed: int
    workdir: str
    #: Rounds always run; their studies are kept for the quality metric
    #: and the correctness checks.
    min_rounds: int = 1
    #: ``(optimizer label, seconds, host-speed scale)`` per next-configuration wait.
    next_config: list[tuple[str, float, float]] = field(default_factory=list)
    evals: int = 0
    studies: list[Study] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Per-layer values measured from RunResult fields instead of spans.
    layer: dict[str, float] = field(default_factory=dict)
    #: (traced, untraced) wall time of the replayed study, in traced runs.
    replay_pair: tuple[float, float] | None = None
    #: Host-speed probes, and the scale of the round that just ended.
    pace: Pace = field(init=False)
    round_scale: float = 1.0

    def __post_init__(self) -> None:
        self.pace = Pace(self.tracer)

    def operation(self, ok: bool, what: str) -> None:
        """Count one benchmark operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def round_seeds(seed: int, r: int, n: int):
    """Independent per-study seeds for round ``r`` of a run with ``seed``."""
    root = int(np.random.SeedSequence([seed, r]).generate_state(1)[0])
    return derive_run_seeds(root, n)


def _db_objective(spec: RunSpec):
    server = MySQLServer(spec.workload, spec.instance, seed=spec.server_seed)
    return DatabaseObjective(server, spec.space)


def run_study(ctx: Context, label: str, spec: RunSpec, default: float, direction: str) -> Study:
    """Run one spec in-process through the probes (what the timed phase does)."""
    objective = spec.objective if spec.objective is not None else _db_objective(spec)
    span_name = "surrogate.eval" if isinstance(objective, SurrogateObjective) else "dbms.eval"
    optimizer = TimedOptimizer(
        spec.optimizer_factory(spec.space, spec.optimizer_seed), label, ctx.tracer, ctx.pace, ctx.next_config
    )
    session = TuningSession(
        TracedObjective(objective, span_name, ctx.tracer, ctx.pace),
        optimizer,
        spec.space,
        max_iterations=spec.n_iterations,
        n_initial=spec.n_initial,
        seed=spec.session_seed,
    )
    t0 = time.perf_counter()
    with ctx.tracer.span("tuning.session"):
        history = session.run()
    study = Study(label, history, default, direction, time.perf_counter() - t0)
    ctx.operation(len(history) == spec.n_iterations, f"{label}: session stopped early")
    ctx.evals += len(history)
    return study


def keep(ctx: Context, r: int, study: Study) -> None:
    if r < ctx.min_rounds:
        ctx.studies.append(study)


def improvement_pct(study: Study) -> float:
    best = study.history.best().objective
    return 100.0 * improvement_over_default(best, study.default_objective, study.direction)


def check_history(ctx: Context, label: str, history: History) -> None:
    """Suggested configs round-trip encode/decode; successes are finite."""
    space, configs = history.space, history.configs()
    decoded = space.decode_many(space.encode_many(configs))
    bad_roundtrip = sum(1 for a, b in zip(configs, decoded) if a != b)
    ctx.operation(bad_roundtrip == 0, f"{label}: {bad_roundtrip} configs fail encode/decode")
    non_finite = sum(1 for o in history if not o.failed and not np.isfinite(o.objective))
    ctx.operation(non_finite == 0, f"{label}: {non_finite} successes with non-finite objective")


def harness_replay(ctx: Context, study: Study, make_spec: Callable[[], RunSpec]) -> None:
    """Replay a timed study in-process from the same seeds; histories must match.

    In a traced run the study is replayed twice, untraced then traced, and
    the pair of wall times gives ``trace.overhead_pct``: both replays run
    in the same process state, unlike the timed study itself.
    """
    tracing, n_samples, evals = ctx.tracer.enabled, len(ctx.next_config), ctx.evals
    walls = {}
    try:
        for traced in (False, True) if tracing else (False,):
            ctx.tracer.enabled = traced
            replay = run_study(ctx, study.label, make_spec(), study.default_objective, study.direction)
            walls[traced] = replay.wall_s
            ctx.operation(
                history_fingerprint(replay.history) == history_fingerprint(study.history),
                f"{study.label}: harness replay differs",
            )
    finally:
        ctx.tracer.enabled = tracing
    # Replays are not timed work: keep them out of the end-to-end figures.
    ctx.evals = evals
    del ctx.next_config[n_samples:]
    if tracing:
        ctx.replay_pair = (walls[True], walls[False])


def executor_checkpoint(ctx: Context, study: Study, make_spec: Callable[[], RunSpec]) -> "Resumer":
    """Re-run a timed study through the executor into a checkpoint to resume from."""
    ckpt = os.path.join(ctx.workdir, f"replay-{study.label}.ckpt.jsonl")
    fresh = ParallelExecutor(n_workers=1, checkpoint_path=ckpt).run([make_spec()])[0]
    ctx.operation(
        not fresh.failed and history_fingerprint(fresh.history) == history_fingerprint(study.history),
        f"{study.label}: executor replay differs",
    )
    expected = [(result_fingerprint(fresh), fresh.wall_seconds)]
    return Resumer(ctx, [make_spec], expected, ckpt, n_workers=1)


class Resumer:
    """Resumes completed specs from a checkpoint and checks that nothing re-ran.

    ``expected`` holds each completed run's ``(result_fingerprint,
    wall_seconds)``; a re-executed run would come back with a new wall
    time.  The run calls :meth:`burst` between rounds, so the samples
    spread over the whole run, and ``resume_s`` is their median.  One
    sample averages back-to-back resumes over at least ``SAMPLE_S``: a
    single resume of a short study takes one of two distinct times near a
    millisecond, and a median of such samples flips between them.  Each
    sample follows a host-speed probe and is kept raw in ``raw_samples``
    and scaled in ``samples``.
    """

    SAMPLE_S = 0.02

    def __init__(self, ctx: Context, make_specs, expected, ckpt: str, n_workers: int) -> None:
        self.ctx = ctx
        self.make_specs = make_specs
        self.expected = expected
        self.ckpt = ckpt
        self.n_workers = n_workers
        self.samples: list[float] = []
        self.raw_samples: list[float] = []

    def burst(self, budget_s: float) -> None:
        """Take samples until ``budget_s`` is spent; a zero budget resumes once.

        The first resume of a burst is fingerprinted in full; the others
        are checked for re-execution only (fingerprinting costs more than
        the resume itself).
        """
        spent, first, pace = 0.0, True, self.ctx.pace
        while spent == 0.0 or spent < budget_s:
            pace.probe()
            elapsed, count = self._resume_once(first), 1
            first = False
            while budget_s > 0 and elapsed < self.SAMPLE_S:
                elapsed += self._resume_once(False)
                count += 1
            spent += elapsed
            self.raw_samples.append(elapsed / count)
            self.samples.append(elapsed / count * pace.scale())

    def _resume_once(self, fingerprint: bool) -> float:
        specs = [make() for make in self.make_specs]
        t0 = time.perf_counter()
        resumed = ParallelExecutor(n_workers=self.n_workers).run(specs, resume_from=self.ckpt)
        elapsed = time.perf_counter() - t0
        pairs = list(zip(self.expected, resumed))
        reexecuted = sum(1 for (__, wall), res in pairs if res.wall_seconds != wall)
        same = not fingerprint or all(fp == result_fingerprint(res) for (fp, __), res in pairs)
        layer = self.ctx.layer
        layer["parallel.resume_reexecuted"] = layer.get("parallel.resume_reexecuted", 0) + reexecuted
        self.ctx.operation(same and reexecuted == 0, f"resume from {os.path.basename(self.ckpt)} differs")
        return elapsed


def rank_space(ctx: Context):
    """The SHAP-ranked top-20 SYSBENCH space, computed as ``paper_spaces`` does."""
    seed = PROBLEM_SEED
    full = mysql_knob_space(INSTANCE, seed=seed)
    server = MySQLServer("SYSBENCH", INSTANCE, seed=seed)
    configs, scores, default_score = collect_samples(server, full, ctx.size["rank_pool"], seed=seed)
    with ctx.tracer.span("selection.rank"):
        ranking = ShapImportance(full, seed=seed).rank(configs, scores, default_score=default_score)
    return full.subspace(ranking.ranked()[:20], seed=seed)


def _registry_spec(name, workload, space, iterations, seeds, index, **extra) -> RunSpec:
    return RunSpec(
        run_index=index,
        workload=workload,
        instance=INSTANCE,
        space=space,
        n_iterations=iterations,
        optimizer_factory=RegistryOptimizerFactory(name),
        server_seed=seeds.server,
        optimizer_seed=seeds.optimizer,
        session_seed=seeds.session,
        tags={"optimizer": name},
        **extra,
    )


def _default_of(workload: str) -> tuple[float, str]:
    server = MySQLServer(workload, INSTANCE, seed=0)
    return server.default_objective(), server.objective_direction


class Workload:
    """Hooks :mod:`run` calls; see the module docstring for the protocol.

    By default the checks replay the study :meth:`replayed` names, and the
    resumes read a checkpoint the executor writes for that same study.
    """

    name: str
    #: Optimizers the warm-up exercises before anything is timed.
    optimizers: tuple[str, ...]
    min_rounds: int

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def after_round(self) -> None:
        """Untimed bookkeeping after each round."""

    def replayed(self, state) -> tuple[Study, Callable[[], RunSpec]]:
        """A round-0 study and a maker of its spec."""
        raise NotImplementedError

    def resumer(self, state) -> Resumer:
        return executor_checkpoint(self.ctx, *self.replayed(state))

    def check(self, state) -> None:
        for study in self.ctx.studies:
            check_history(self.ctx, study.label, study.history)
        harness_replay(self.ctx, *self.replayed(state))


# ----------------------------------------------------------------------
# tune-bo
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RGPEFactory:
    """Optimizer factory for the RGPE(SMAC) transfer study."""

    repository: TransferRepository

    def __call__(self, space, seed):
        return RGPESMAC(space, self.repository, seed=seed)


class TuneBO(Workload):
    """Serial closed-loop model-based studies; ``suggest`` dominates."""

    name = "tune-bo"
    min_rounds = 3
    optimizers = ("vanilla_bo", "mixed_kernel_bo", "smac", "turbo", "ddpg")
    sources = ("SEATS", "Voter", "TATP")
    replay_label = "turbo"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.defaults = {wl: _default_of(wl) for wl in ("SYSBENCH", "TPC-C")}

    def setup(self):
        ctx, seed = self.ctx, PROBLEM_SEED
        space = rank_space(ctx)
        with ctx.tracer.span("transfer.repository"):
            repository = TransferRepository()
            for i, workload in enumerate(self.sources):
                server = MySQLServer(workload, INSTANCE, seed=seed + i)
                session = TuningSession(
                    DatabaseObjective(server, space),
                    RegistryOptimizerFactory("ga")(space, seed + i),
                    space,
                    max_iterations=ctx.size["source_iters"],
                    seed=seed + i,
                )
                repository.add(SourceTask(workload, session.run()))
        return {"space": space, "repository": repository}

    @staticmethod
    def identity(state) -> Any:
        return (tuple(state["space"].names), [history_fingerprint(t.history) for t in state["repository"]])

    def _spec(self, state, r: int, label: str) -> RunSpec:
        seeds = round_seeds(self.ctx.seed, r, len(self.optimizers) + 1)
        size = self.ctx.size
        if label == "rgpe_smac":
            s = seeds[-1]
            return RunSpec(
                run_index=len(self.optimizers),
                workload="TPC-C",
                instance=INSTANCE,
                space=state["space"],
                n_iterations=size["rgpe_iters"],
                optimizer_factory=RGPEFactory(state["repository"]),
                server_seed=s.server,
                optimizer_seed=s.optimizer,
                session_seed=s.session,
            )
        i = self.optimizers.index(label)
        return _registry_spec(label, "SYSBENCH", state["space"], size["bo_iters"], seeds[i], i)

    def run_round(self, state, r: int) -> None:
        for label in self.optimizers + ("rgpe_smac",):
            self.ctx.tracer.study = f"r{r}.{label}"
            spec = self._spec(state, r, label)
            default, direction = self.defaults[spec.workload]
            keep(self.ctx, r, run_study(self.ctx, label, spec, default, direction))

    def replayed(self, state):
        study = next(s for s in self.ctx.studies if s.label == self.replay_label)
        return study, lambda: self._spec(state, 0, self.replay_label)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class Sweep(Workload):
    """Simulator-bound: offline LHS pools plus long random/GA sessions on 197 knobs."""

    name = "sweep"
    min_rounds = 4
    optimizers = ("random", "ga")
    pool_workloads = ("TPC-C", "JOB")  # the OLTP and the OLAP path
    sessions = (("random", "TPC-C"), ("ga", "JOB"))

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.defaults = {wl: _default_of(wl) for wl in self.pool_workloads}
        #: (workload, encoded pool, per-sample failed flag, objective) per pool.
        self.pools: list[tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []

    def setup(self):
        return {"space": mysql_knob_space(INSTANCE, seed=PROBLEM_SEED)}

    @staticmethod
    def identity(state) -> Any:
        return tuple(state["space"].names)

    def _seeds(self, r: int):
        return round_seeds(self.ctx.seed, r, len(self.pool_workloads) + len(self.sessions))

    def _spec(self, state, r: int, i: int) -> RunSpec:
        name, workload = self.sessions[i]
        seeds = self._seeds(r)[len(self.pool_workloads) + i]
        return _registry_spec(name, workload, state["space"], self.ctx.size["sweep_iters"], seeds, i)

    def run_round(self, state, r: int) -> None:
        ctx, space, n = self.ctx, state["space"], self.ctx.size["sweep_pool"]
        seeds = self._seeds(r)
        for j, workload in enumerate(self.pool_workloads):
            ctx.tracer.study = f"r{r}.pool-{workload}"
            server = MySQLServer(workload, INSTANCE, seed=seeds[j].server)
            with ctx.tracer.span("space.sample"):
                configs = LatinHypercubeSampler(space, seed=seeds[j].session).sample(n)
            results = [traced_evaluate(server, c, ctx.tracer, ctx.pace) for c in configs]
            with ctx.tracer.span("space.encode", rows=n):
                encoded = space.encode_many(configs)
            ctx.evals += n
            failed = np.array([res.failed for res in results])
            objective = np.array([res.objective for res in results], dtype=float)
            self.pools.append((workload, encoded, failed, objective))
        for i, (name, workload) in enumerate(self.sessions):
            ctx.tracer.study = f"r{r}.{name}"
            default, direction = self.defaults[workload]
            keep(ctx, r, run_study(ctx, name, self._spec(state, r, i), default, direction))

    def check(self, state) -> None:
        ctx, space = self.ctx, state["space"]
        for workload, encoded, failed, objective in self.pools:
            ok = (
                encoded.shape == (self.ctx.size["sweep_pool"], space.n_dims)
                and bool(np.all((encoded >= 0.0) & (encoded <= 1.0)))
                and bool(np.all(np.isfinite(objective[~failed])))
            )
            ctx.operation(ok, f"pool {workload}: bad encoding or objective")
        super().check(state)

    def replayed(self, state):
        return self.ctx.studies[0], lambda: self._spec(state, 0, 0)


# ----------------------------------------------------------------------
# surrogate
# ----------------------------------------------------------------------
def modeled_space():
    """The 48 knobs the simulator models, a space that needs no ranking."""
    full = mysql_knob_space(INSTANCE, seed=PROBLEM_SEED)
    return full.subspace([n for n in full.names if n in MODELED_KNOBS], seed=PROBLEM_SEED)


class Surrogate(Workload):
    """The §8 benchmark: one forest fit in set-up, then single-row predicts.

    The surrogate covers the 48 modelled knobs rather than a SHAP-ranked
    subspace, so set-up is the pool and the fit alone (ranking costs ~5 s
    per set-up repetition and is measured by ``tune-bo`` already).
    """

    name = "surrogate"
    min_rounds = 8
    optimizers = ("ga", "random", "tpe")
    workload = "SYSBENCH"

    def setup(self):
        ctx = self.ctx
        space = modeled_space()
        with ctx.tracer.span("surrogate.build"):
            bench = SurrogateBenchmark.build(
                self.workload, space, n_samples=ctx.size["surrogate_pool"], instance=INSTANCE,
                seed=PROBLEM_SEED,
            )
        return {"space": space, "bench": bench, "predictor": traced_predictor(bench.model.predict, ctx.tracer)}

    @staticmethod
    def identity(state) -> Any:
        space, bench = state["space"], state["bench"]
        probe = space.encode_many(LatinHypercubeSampler(space, seed=0).sample(8))
        return (tuple(space.names), bench.model.predict(probe).tolist())

    def _spec(self, state, r: int, i: int) -> RunSpec:
        name = self.optimizers[i]
        bench = state["bench"]
        objective = SurrogateObjective(
            state["space"],
            state["predictor"],
            direction=bench.direction,
            default_objective=bench.default_objective,
            simulated_seconds_per_eval=bench.seconds_per_model_eval,
        )
        seeds = round_seeds(self.ctx.seed, r, len(self.optimizers))[i]
        iters = self.ctx.size[f"surrogate_{name}_iters"]
        return _registry_spec(name, self.workload, state["space"], iters, seeds, i, objective=objective)

    def run_round(self, state, r: int) -> None:
        bench = state["bench"]
        for i, name in enumerate(self.optimizers):
            self.ctx.tracer.study = f"r{r}.{name}"
            spec = self._spec(state, r, i)
            keep(self.ctx, r, run_study(self.ctx, name, spec, bench.default_objective, bench.direction))

    def replayed(self, state):
        return self.ctx.studies[0], lambda: self._spec(state, 0, 0)


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
class Service(Workload):
    """Many short guarded studies through a 2-worker pool, then resumed.

    Tenants tune the 48 knobs the simulator models, and one study in four
    uses TPE: its ``suggest`` costs ~5 ms there (~35 ms on all 197 knobs),
    and more TPE would turn "short studies" into optimizer-bound ones.
    Retry backoff is scaled to the ~0.2 ms simulated evaluations so
    injected transients exercise retries without the run turning into
    sleeps.
    """

    name = "service"
    min_rounds = 8
    optimizers = ("tpe", "ga")
    mix = ("tpe", "ga", "ga", "ga")
    workload = "TPC-C"
    transient_rate = 0.05
    guard = GuardPolicy(backoff_base_seconds=0.001, backoff_cap_seconds=0.01)

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.n_workers = max(1, min(2, len(os.sched_getaffinity(0))))
        self.default = _default_of(self.workload)
        #: Per round: (result fingerprint, wall_seconds) of each run, and the checkpoint.
        self.rounds: list[tuple[list[tuple[str, float]], str]] = []
        self.first_fingerprint = ""
        self.stats: Counter[str] = Counter()
        self.mean_eval_s: list[float] = []

    def setup(self):
        return {"space": modeled_space(), "guard": self.guard}

    @staticmethod
    def identity(state) -> Any:
        return (tuple(state["space"].names), state["guard"].describe())

    def _spec(self, state, r: int, i: int) -> RunSpec:
        iters = self.ctx.size["service_iters"]
        seeds = round_seeds(self.ctx.seed, r, self.ctx.size["service_specs"])[i]
        name = self.mix[i % len(self.mix)]
        server = MySQLServer(self.workload, INSTANCE, seed=seeds.server)
        objective = TransientObjective(
            DatabaseObjective(server, state["space"]),
            fail_calls=transient_schedule(seeds.guard, 2 * iters, rate=self.transient_rate),
        )
        return _registry_spec(
            name, self.workload, state["space"], iters, seeds, i,
            objective=objective, guard=state["guard"], guard_seed=seeds.guard,
        )

    def _makers(self, state, r: int):
        return [
            (lambda i=i: self._spec(state, r, i)) for i in range(self.ctx.size["service_specs"])
        ]

    def run_round(self, state, r: int) -> None:
        ctx = self.ctx
        ctx.tracer.study = f"r{r}.batch"
        specs = [make() for make in self._makers(state, r)]
        ckpt = os.path.join(ctx.workdir, f"service-r{r}.ckpt.jsonl")
        executor = ParallelExecutor(
            n_workers=self.n_workers,
            telemetry_path=os.path.join(ctx.workdir, f"service-r{r}.telemetry.jsonl"),
            checkpoint_path=ckpt,
        )
        t0 = time.perf_counter()
        with ctx.tracer.span("parallel.run"):
            results = executor.run(specs)
        self.stats["executor_wall"] += time.perf_counter() - t0
        self.pending = (r, specs, results, ckpt)

    def after_round(self) -> None:
        ctx = self.ctx
        r, specs, results, ckpt = self.pending
        # Only fingerprints outlive the round (memory stays flat over rounds).
        self.rounds.append(([(result_fingerprint(res), res.wall_seconds) for res in results], ckpt))
        if r == 0:
            self.first_fingerprint = history_fingerprint(results[0].history)
        for spec, result in zip(specs, results):
            ok = not result.failed and result.n_iterations == spec.n_iterations
            ctx.operation(ok, f"service r{r} run {spec.run_index}: {result.error}")
            if result.history is None:
                continue
            ctx.evals += len(result.history)
            # The waits are timed in the workers, where no probe runs, and
            # the probes around a round share the cores with the pool's
            # start and shutdown: the waits stay unscaled.
            label = spec.tags["optimizer"]
            ctx.next_config.extend((label, o.suggest_seconds, 1.0) for o in result.history if o.suggest_seconds > 0)
            keep(ctx, r, Study(spec.tags["optimizer"], result.history, *self.default, result.wall_seconds))
            self._account(result)

    def _account(self, result) -> None:
        """Accumulate per-layer figures from the RunResult fields the executor returns."""
        stats = self.stats
        stats["evals"] += result.n_iterations
        stats["eval_s"] += result.eval_seconds
        stats["suggest_s"] += result.suggest_seconds
        stats[f"suggest_s.{result.tags['optimizer']}"] += result.suggest_seconds
        stats["suggest_calls"] += sum(1 for o in result.history if o.suggest_seconds > 0)
        stats["busy"] += result.wall_seconds
        stats["attempts"] += result.attempts
        stats["retries"] += sum(o.eval_attempts - 1 for o in result.history)
        for kind, count in result.failure_kinds.items():
            stats[f"kind.{kind}"] += count
        self.mean_eval_s.append(result.eval_seconds / result.n_iterations)

    def check(self, state) -> None:
        ctx = self.ctx
        for study in ctx.studies:
            check_history(ctx, study.label, study.history)
        # The round-0 batch is the timed resume; later rounds are only checked.
        for r, (expected, ckpt) in enumerate(self.rounds[1:], start=1):
            Resumer(ctx, self._makers(state, r), expected, ckpt, self.n_workers).burst(0.0)
        # One pooled run replayed in-process must match its pooled history.
        replay = ParallelExecutor(n_workers=1).run([self._spec(state, 0, 0)])[0]
        ctx.operation(
            not replay.failed and history_fingerprint(replay.history) == self.first_fingerprint,
            "service: in-process replay differs from pooled run",
        )
        self._layer_metrics()

    def resumer(self, state) -> Resumer:
        expected, ckpt = self.rounds[0]
        return Resumer(self.ctx, self._makers(state, 0), expected, ckpt, self.n_workers)

    def _layer_metrics(self) -> None:
        stats, wall = self.stats, self.stats["executor_wall"]
        evals, eval_s = stats["evals"], stats["eval_s"]
        layer = self.ctx.layer
        layer.update(
            {
                "dbms.evals": evals,
                "dbms.eval_s": eval_s,
                "dbms.eval_p50_us": 1e6 * statistics.median(self.mean_eval_s),
                "dbms.evals_per_s": evals / eval_s,
                "dbms.failed_share": (stats["kind.crash"] + stats["kind.unstartable"]) / evals,
                "optimizers.suggest_s": stats["suggest_s"],
                "optimizers.suggest_calls": stats["suggest_calls"],
                "tuning.self_s": stats["busy"] - stats["suggest_s"] - eval_s,
                "parallel.worker_busy_share": stats["busy"] / (self.n_workers * wall),
                "parallel.overhead_s": wall - stats["busy"] / self.n_workers,
                "parallel.attempts": stats["attempts"],
                "parallel.checkpoint_bytes": sum(os.path.getsize(ckpt) for __, ckpt in self.rounds),
                "resilience.eval_retries": stats["retries"],
            }
        )
        for name in self.optimizers:
            layer[f"optimizers.{name}.suggest_s"] = stats[f"suggest_s.{name}"]
        for kind in FAILURE_KINDS:
            layer[f"resilience.failure_kinds.{kind}"] = stats[f"kind.{kind}"]


WORKLOADS = {cls.name: cls for cls in (TuneBO, Sweep, Surrogate, Service)}
