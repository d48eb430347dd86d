"""Shared test objectives and generators."""

import numpy as np

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
