"""Training pipeline: standardize, solve, select, refit.

The pipeline mirrors Sec. 3.4 end to end:

1. standardize features and scale the target (numerical conditioning —
   the returned predictor is mapped back to raw feature space);
2. minimize the asymmetric + L1 objective (Lasso feature selection);
3. *refit* on the selected features with the L1 term dropped, keeping
   the asymmetric loss.  Refitting removes Lasso shrinkage, which would
   otherwise bias predictions low — dangerous in a deadline context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.features import FeatureMatrix
from ..obs import get_observer
from .linear import LinearPredictor
from .objective import make_objective
from .solver import SolveResult, solve


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of the predictor training flow.

    ``alpha`` is the paper's under-prediction weight; ``gamma`` the L1
    weight (``None`` selects it automatically via the Lasso path, see
    :mod:`repro.model.lasso`).  ``gamma`` is expressed per training
    sample (it is multiplied by ``n_jobs`` internally) so one value
    works across workload sizes.
    """

    alpha: float = 8.0
    gamma: Optional[float] = 3e-4
    refit: bool = True
    max_iter: int = 4000
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass
class Standardizer:
    """Feature standardization with constant-column protection."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0) if x.size else np.zeros(x.shape[1])
        scale = x.std(axis=0) if x.size else np.ones(x.shape[1])
        scale = np.where(scale < 1e-12, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Standardize features with the fitted statistics."""
        return (x - self.mean) / self.scale


@dataclass
class TrainedModel:
    """A fitted predictor plus training diagnostics."""

    predictor: LinearPredictor
    gamma: float
    alpha: float
    solve_info: SolveResult
    n_candidate_features: int

    @property
    def n_selected_features(self) -> int:
        return self.predictor.n_terms


def fit_predictor(matrix: FeatureMatrix,
                  config: TrainingConfig = TrainingConfig()
                  ) -> TrainedModel:
    """Train the execution-time predictor on a feature matrix."""
    if matrix.n_jobs < 2:
        raise ValueError("need at least two training jobs")
    lasso = _select(matrix, config)
    support = _refit_support(config, lasso)
    refit = _refit(matrix, config, support) if support else None
    return _assemble(matrix, config, lasso, support, refit)


#: A standardized-space solve: (beta, intercept, standardizer, y scale,
#: solver result).
_Solved = Tuple[np.ndarray, float, Standardizer, float, SolveResult]


def _select(matrix: FeatureMatrix, config: TrainingConfig) -> _Solved:
    """The Lasso stage: the L1-penalized fit over every feature."""
    gamma = config.gamma if config.gamma is not None else 0.0
    return _solve_standardized(
        matrix.x, matrix.cycles, config.alpha,
        gamma * matrix.n_jobs, config.max_iter, config.tol,
    )


def _refit_support(config: TrainingConfig,
                   lasso: _Solved) -> Tuple[int, ...]:
    """The columns the refit stage solves on (empty: no refit)."""
    return tuple(_nonzero(lasso[0])) if config.refit else ()


def _refit(matrix: FeatureMatrix, config: TrainingConfig,
           support: Tuple[int, ...]) -> _Solved:
    """The refit stage: the selected columns with the L1 term dropped.

    Depends on ``config`` only through ``alpha``, ``max_iter`` and
    ``tol``, so one refit serves every gamma that selects ``support``.
    """
    return _solve_standardized(
        matrix.x[:, list(support)], matrix.cycles, config.alpha, 0.0,
        config.max_iter, config.tol,
    )


def _assemble(matrix: FeatureMatrix, config: TrainingConfig,
              lasso: _Solved, support: Tuple[int, ...],
              refit: Optional[_Solved]) -> TrainedModel:
    """Map the final solve back to raw feature space."""
    beta_std, intercept_std, std, y_scale, info = lasso
    if refit is not None:
        rb, rb0, rstd, ry, rinfo = refit
        selected = list(support)
        beta_std = np.zeros_like(beta_std)
        beta_std[selected] = rb
        # Rebuild a full-width standardizer view for the mapping.
        full_mean = np.zeros(matrix.n_features)
        full_scale = np.ones(matrix.n_features)
        full_mean[selected] = rstd.mean
        full_scale[selected] = rstd.scale
        std = Standardizer(full_mean, full_scale)
        intercept_std, y_scale, info = rb0, ry, rinfo

    coeffs = beta_std / std.scale * y_scale
    intercept = (intercept_std - float(beta_std @ (std.mean / std.scale))
                 ) * y_scale
    predictor = LinearPredictor(
        feature_names=tuple(matrix.feature_set.names()),
        coeffs=coeffs,
        intercept=intercept,
    )
    return TrainedModel(
        predictor=predictor,
        gamma=config.gamma if config.gamma is not None else 0.0,
        alpha=config.alpha,
        solve_info=info,
        n_candidate_features=matrix.n_features,
    )


def _solve_standardized(x: np.ndarray, y: np.ndarray, alpha: float,
                        gamma: float, max_iter: int, tol: float
                        ) -> _Solved:
    """Solve in standardized space; returns (beta, intercept, ...).

    Under an observer every solve counts in ``model.fit.solves`` and
    ``model.fit.iterations`` and raises the ``model.fit.kkt_max`` gauge
    to its KKT residual; one that stops at ``max_iter`` also counts in
    ``model.fit.capped`` and emits a ``fit.capped`` event (``gamma`` is
    the objective's L1 weight, ``p`` the feature count, ``kkt`` the
    residual).
    """
    std = Standardizer.fit(x)
    xs = std.transform(x)
    y_scale = float(np.mean(np.abs(y)))
    if y_scale < 1e-12:
        y_scale = 1.0
    ys = y / y_scale
    design = np.hstack([xs, np.ones((xs.shape[0], 1))])
    objective = make_objective(design, ys, alpha=alpha, gamma=gamma,
                               intercept_col=design.shape[1] - 1)
    info = solve(objective, max_iter=max_iter, tol=tol)
    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("model.fit.solves")
        observer.metrics.inc("model.fit.iterations", info.iterations)
        observer.metrics.raise_gauge("model.fit.kkt_max", info.kkt)
        if not info.converged:
            observer.metrics.inc("model.fit.capped")
            observer.emit("fit.capped", gamma=gamma, n=x.shape[0],
                          p=x.shape[1], iterations=info.iterations,
                          kkt=info.kkt)
    beta = info.beta[:-1]
    intercept = float(info.beta[-1])
    return beta, intercept, std, y_scale, info


def _nonzero(beta: np.ndarray, rel_tol: float = 1e-6) -> List[int]:
    scale = float(np.max(np.abs(beta))) if beta.size else 0.0
    if scale == 0.0:
        return []
    return [i for i, b in enumerate(beta) if abs(b) > scale * rel_tol]
