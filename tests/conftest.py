"""Shared test objectives, generators and fixtures."""

import sys

import numpy as np
import pytest

import perturbopt.cli  # noqa: F401  (every module that may bind a solver is loaded)
from perturbopt import objective
from perturbopt.btl import btl_objective
from perturbopt.numkit import check_symmetric, contraction_matrix
from perturbopt.objective import SmoothObjective


class ExpSumObjective(SmoothObjective):
    """f(x) = sum_i exp(x_i): closed-form derivatives of every order."""

    def __init__(self, dim):
        self.dim = dim

    def value(self, x):
        return float(np.sum(np.exp(x)))

    def gradient(self, x):
        return np.exp(x)

    def hessian(self, x):
        return np.diag(np.exp(x))

    def third_directional(self, x, a, b, c):
        return float(np.sum(np.exp(x) * np.asarray(a) * np.asarray(b) * np.asarray(c)))


class LogisticSymmetric(SmoothObjective):
    """f(x) = sum_i log(1 + e^{x_i}) - 0.5 sum_i x_i, minimized at the origin."""

    def __init__(self, dim):
        self.dim = dim

    @staticmethod
    def _sig(t):
        e = np.exp(-np.abs(t))
        return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        soft = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        return float(np.sum(soft) - 0.5 * np.sum(x))

    def gradient(self, x):
        return self._sig(np.asarray(x, dtype=float)) - 0.5

    def hessian(self, x):
        s = self._sig(np.asarray(x, dtype=float))
        return np.diag(s * (1.0 - s))

    def third_directional(self, x, a, b, c):
        s = self._sig(np.asarray(x, dtype=float))
        third = s * (1.0 - s) * (1.0 - 2.0 * s)
        return float(np.sum(third * np.asarray(a) * np.asarray(b) * np.asarray(c)))


def random_spd(rng, n, ridge=None):
    """Well-conditioned random SPD matrix."""
    r = rng.standard_normal((n, n))
    if ridge is None:
        ridge = 0.1 * n
    return check_symmetric(r @ r.T + ridge * np.eye(n))


def expected_geometry(graph, penalty, center, split):
    """Block geometry of the expected Fisher matrix at ``center``, as the l2 constants read it."""
    fisher = btl_objective(graph, penalty, mode="expected", truth=center).hessian(center)
    return contraction_matrix(fisher, split)


@pytest.fixture()
def solver_calls(monkeypatch):
    """The keyword arguments of each ``newton_minimize`` and ``partial_minimize`` call,
    by name; each is spied on wherever a perturbopt module binds it."""
    calls = {"newton_minimize": [], "partial_minimize": []}
    modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("perturbopt.")]
    for name in calls:
        original = getattr(objective, name)

        def spy(*args, _record=calls[name].append, _solve=original, **kwargs):
            _record(kwargs)
            return _solve(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    return calls
