"""The default-on acceleration layer must leave BO suggestion sequences
byte-for-byte unchanged, and every suggestion must refit the GP from
scratch on the full history (the premise of Figure 9)."""

import numpy as np
import pytest

from repro.optimizers.base import History, Observation
from repro.optimizers.bo import MixedKernelBO, VanillaBO
from repro.space import ConfigurationSpace
from repro.space.parameter import CategoricalKnob, ContinuousKnob, IntegerKnob


def _space():
    return ConfigurationSpace(
        [
            ContinuousKnob("a", 0.0, 1.0, 0.5),
            ContinuousKnob("b", 1e-2, 1e2, 1.0, log=True),
            IntegerKnob("c", 0, 100, 10),
            IntegerKnob("d", 1, 4096, 64, log=True),
            CategoricalKnob("e", ["x", "y", "z"], "x"),
        ]
    )


def _score(space, config):
    x = space.encode(config)
    return -float(np.sum((x - 0.4) ** 2))


def _run(optimizer_cls, space, n_iters, seed, **options):
    """Drive a BO loop on the fixed quadratic; return encoded suggestions
    and the history."""
    optimizer = optimizer_cls(space, seed=seed, **options)
    history = History(space)
    rng = np.random.default_rng(seed + 1)
    for config in space.sample_configurations(3, rng):
        score = _score(space, config)
        history.append(Observation(config=config, objective=score, score=score))
    encoded = []
    for _ in range(n_iters):
        config = optimizer.suggest(history)
        encoded.append(space.encode(config))
        score = _score(space, config)
        history.append(Observation(config=config, objective=score, score=score))
    return np.vstack(encoded), history


@pytest.mark.parametrize("optimizer_cls", [VanillaBO, MixedKernelBO])
def test_accelerated_suggestions_bit_identical(optimizer_cls):
    space = _space()
    fast, _ = _run(optimizer_cls, space, n_iters=8, seed=7, accelerated=True)
    slow, _ = _run(optimizer_cls, space, n_iters=8, seed=7, accelerated=False)
    assert fast.tobytes() == slow.tobytes()


class _OverridingBO(MixedKernelBO):
    """A subclass that replaces the surrogate build, as RGPE does."""

    def _fit_gp(self, X, y):
        return super()._fit_gp(X, y)


@pytest.mark.parametrize("optimizer_cls", [VanillaBO, MixedKernelBO, _OverridingBO])
def test_every_suggest_refits_once_on_full_history(optimizer_cls, monkeypatch):
    """Figure 9 measures cubic overhead growth because each suggestion
    fits an exact GP on the whole history: ``_fit_gp`` must run exactly
    once per suggest, on every observation so far."""
    space = _space()
    fits = []
    fit_gp = optimizer_cls._fit_gp

    def recording_fit_gp(self, X, y):
        fits.append((X.copy(), y.copy()))
        return fit_gp(self, X, y)

    monkeypatch.setattr(optimizer_cls, "_fit_gp", recording_fit_gp)
    optimizer = optimizer_cls(space, seed=5)
    history = History(space)
    rng = np.random.default_rng(6)
    for config in space.sample_configurations(2, rng):
        score = _score(space, config)
        history.append(Observation(config=config, objective=score, score=score))
    for i in range(4):
        config = optimizer.suggest(history)
        assert len(fits) == i + 1
        X, y = fits[-1]
        assert X.tobytes() == history.encoded().tobytes()
        assert y.tobytes() == history.scores().tobytes()
        score = _score(space, config)
        history.append(Observation(config=config, objective=score, score=score))
