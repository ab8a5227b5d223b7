"""Proximal coordinate-descent solver — an independent second opinion.

Minimizes the same asymmetric + L1 objective as :mod:`solver` (FISTA)
by cycling through coordinates: for each coefficient, take a prox
step along that axis using the coordinate-wise Lipschitz constant.
Coordinate descent converges on these piecewise-quadratic objectives
and shares no code with FISTA beyond the objective itself, so
agreement between the two is strong evidence both are correct — the
test suite checks they land on the same optimum.

For production training FISTA is the default (faster on correlated
designs); this solver also tends to produce exact zeros sooner, which
makes it handy for inspecting sparsity along the Lasso path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .objective import AsymmetricLassoObjective
from .solver import SolveResult


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def solve_coordinate(objective: AsymmetricLassoObjective,
                     beta0: Optional[np.ndarray] = None,
                     max_sweeps: int = 2000,
                     tol: float = 1e-10) -> SolveResult:
    """Minimize the objective with cyclic proximal coordinate descent."""
    x = objective.x
    y = objective.y
    n, p = x.shape
    beta = np.zeros(p) if beta0 is None else np.asarray(beta0,
                                                        float).copy()
    residual = x @ beta - y

    # Coordinate-wise curvature bound: 2 * alpha * sum(x_j^2).
    col_sq = (x * x).sum(axis=0)
    lipschitz = np.maximum(2.0 * objective.alpha * col_sq, 1e-12)

    value = objective.value(beta)
    for sweep in range(1, max_sweeps + 1):
        for j in range(p):
            weights = objective.residual_weights(residual)
            grad_j = 2.0 * float(x[:, j] @ (weights * residual))
            step = 1.0 / lipschitz[j]
            candidate = beta[j] - step * grad_j
            if objective.penalize[j] and objective.gamma > 0.0:
                candidate = _soft_threshold(candidate,
                                            objective.gamma * step)
            delta = candidate - beta[j]
            if delta != 0.0:
                residual = residual + delta * x[:, j]
                beta[j] = candidate
        new_value = objective.value(beta)
        improvement = value - new_value
        value = new_value
        if 0 <= improvement <= tol * max(abs(value), 1.0):
            return SolveResult(beta=beta, value=value, iterations=sweep,
                               converged=True, kkt=_kkt(objective, beta))
    return SolveResult(beta=beta, value=value, iterations=max_sweeps,
                       converged=False, kkt=_kkt(objective, beta))


def _kkt(objective: AsymmetricLassoObjective, beta: np.ndarray) -> float:
    # The same residual FISTA reports, at its step 1 / L.
    return objective.prox_gradient_residual(beta,
                                            1.0 / objective.lipschitz())
