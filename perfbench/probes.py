"""Thin delegating wrappers that time the program's public calls from outside.

Each probe forwards to the wrapped object unchanged, so a session driven
through probes produces the same history as one driven without them (the
replay check in :mod:`workloads` asserts exactly that).
"""

from __future__ import annotations

import time
from typing import Any, Callable

import numpy as np

from pace import Pace
from spans import Tracer


class TimedOptimizer:
    """Times ``observe``/``suggest`` of the wrapped optimizer.

    ``next_config`` receives one ``(label, seconds, scale)`` sample per
    ``suggest`` that follows an ``observe``: the wall time from handing the
    optimizer the previous observation to receiving the next configuration
    — what a tenant waits for — and the host-speed scale at that moment.
    It is measured in traced and untraced runs alike.
    """

    def __init__(self, inner, label: str, tracer: Tracer, pace: Pace, next_config: list) -> None:
        self.inner = inner
        self.label = label
        self.tracer = tracer
        self.pace = pace
        self.next_config = next_config
        self.uses_lhs_init = inner.uses_lhs_init
        self._observed_at: float | None = None

    def observe(self, observation) -> None:
        t0 = time.perf_counter()
        if self.tracer.enabled:
            idx = self.tracer.open("optimizers.observe", t0)
            self.inner.observe(observation)
            self.tracer.close(idx, time.perf_counter(), optimizer=self.label)
        else:
            self.inner.observe(observation)
        self._observed_at = t0

    def suggest(self, history):
        t0 = time.perf_counter()
        if self.tracer.enabled:
            idx = self.tracer.open("optimizers.suggest", t0)
            config = self.inner.suggest(history)
            t1 = time.perf_counter()
            self.tracer.close(idx, t1, optimizer=self.label)
        else:
            config = self.inner.suggest(history)
            t1 = time.perf_counter()
        if self._observed_at is not None:
            self.next_config.append((self.label, t1 - self._observed_at, self.pace.scale()))
            self._observed_at = None
        return config


class TracedObjective:
    """Records one span per objective call (``dbms.eval`` / ``surrogate.eval``).

    Before the call it gives the host-speed probe its turn.  Everything else
    (``failure_fallback_score``, ``default_score``, which sessions call) is
    delegated to the wrapped objective.
    """

    def __init__(self, inner, span_name: str, tracer: Tracer, pace: Pace) -> None:
        self.inner = inner
        self.span_name = span_name
        self.tracer = tracer
        self.pace = pace

    def __call__(self, config):
        self.pace.tick()
        if not self.tracer.enabled:
            return self.inner(config)
        idx = self.tracer.open(self.span_name, time.perf_counter())
        obs = self.inner(config)
        self.tracer.close(idx, time.perf_counter(), failed=bool(obs.failed))
        return obs

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.__dict__["inner"], name)


def traced_evaluate(server, config, tracer: Tracer, pace: Pace):
    """``MySQLServer.evaluate`` with a ``dbms.eval`` span, after a probe's turn."""
    pace.tick()
    if not tracer.enabled:
        return server.evaluate(config)
    idx = tracer.open("dbms.eval", time.perf_counter())
    result = server.evaluate(config)
    tracer.close(idx, time.perf_counter(), failed=bool(result.failed))
    return result


def traced_predictor(predict: Callable[[np.ndarray], np.ndarray], tracer: Tracer):
    """Wrap ``RandomForestRegressor.predict`` with an ``ml.predict`` span."""

    def predictor(X: np.ndarray) -> np.ndarray:
        if not tracer.enabled:
            return predict(X)
        idx = tracer.open("ml.predict", time.perf_counter())
        out = predict(X)
        tracer.close(idx, time.perf_counter(), rows=len(X))
        return out

    return predictor
