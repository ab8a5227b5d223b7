"""Proximal-gradient solver (FISTA with adaptive restart).

The paper notes the objective "is convex.  Thus, we can use a convex
optimization solver to fit the model."  This module is that solver: an
accelerated proximal gradient method (FISTA) with backtracking line
search and function-value adaptive restart, which handles the smooth
asymmetric loss plus the non-smooth L1 term exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .objective import AsymmetricLassoObjective


@dataclass
class SolveResult:
    """Solver outcome.

    ``kkt`` is the prox-gradient residual at ``beta`` (see
    :meth:`~repro.model.objective.AsymmetricLassoObjective.prox_gradient_residual`
    at step ``1 / L``): how far the returned point is from optimal,
    whatever the stopping rule concluded.
    """

    beta: np.ndarray
    value: float
    iterations: int
    converged: bool
    kkt: float


def solve(objective: AsymmetricLassoObjective,
          beta0: Optional[np.ndarray] = None,
          max_iter: int = 4000,
          tol: float = 1e-9) -> SolveResult:
    """Minimize the objective; returns coefficients and diagnostics.

    Convergence is declared when the relative objective decrease over
    an iteration falls below ``tol``.  The KKT residual of the result
    is measured after the last iteration and changes no iterate.
    """
    n = objective.n_coeffs
    beta = np.zeros(n) if beta0 is None else np.asarray(beta0, float).copy()
    momentum = beta.copy()
    t = 1.0
    step = base_step = 1.0 / objective.lipschitz()
    residuals = objective.weighted_residuals
    prox = objective.prox
    l1 = objective.l1_value
    x_t = objective.x.T

    value = objective.value(beta)
    for iteration in range(1, max_iter + 1):
        # One residual per point: the smooth value and the gradient at
        # `momentum` share it, and so do the backtracking check and the
        # new objective value at the accepted candidate.
        r, wr = residuals(momentum)
        grad = 2.0 * (x_t @ wr)
        smooth_mom = float((wr * r).sum())
        candidate = prox(momentum - step * grad, step)

        # Backtracking: the quadratic upper bound at `momentum` must
        # majorize the smooth loss at the candidate.
        for _ in range(60):
            diff = candidate - momentum
            bound = (smooth_mom + float(grad @ diff)
                     + float(diff @ diff) / (2.0 * step))
            r, wr = residuals(candidate)
            smooth_cand = float((wr * r).sum())
            if smooth_cand <= bound + 1e-12:
                break
            step *= 0.5
            candidate = prox(momentum - step * grad, step)
        else:  # 60 halvings: the last candidate is still unscored
            smooth_cand = objective.smooth_value(candidate)
        new_value = smooth_cand + l1(candidate)
        if new_value > value:  # adaptive restart: drop momentum
            momentum = beta.copy()
            t = 1.0
            grad = objective.smooth_grad(momentum)
            candidate = prox(momentum - step * grad, step)
            new_value = objective.value(candidate)

        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = candidate + ((t - 1.0) / t_next) * (candidate - beta)
        improvement = value - new_value
        beta = candidate
        value = new_value
        t = t_next

        if improvement >= 0 and improvement <= tol * max(abs(value), 1.0):
            return SolveResult(
                beta=beta, value=value, iterations=iteration,
                converged=True,
                kkt=objective.prox_gradient_residual(beta, base_step))

    return SolveResult(
        beta=beta, value=value, iterations=max_iter, converged=False,
        kkt=objective.prox_gradient_residual(beta, base_step))
