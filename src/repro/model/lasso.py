"""Lasso path utilities: choosing the L1 weight gamma.

The paper sets gamma "empirically ... to reduce the number of non-zero
coefficients without impacting modeling accuracy too much".  This
module automates that: sweep gamma over a grid, measure held-out
accuracy and feature count at each point, and pick the sparsest model
whose validation error is within a tolerance of the best.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.features import FeatureMatrix
from ..obs import get_observer
from .training import (
    TrainedModel,
    TrainingConfig,
    _assemble,
    _refit,
    _refit_support,
    _select,
)


@dataclass(frozen=True)
class PathPoint:
    """One point of the Lasso path."""

    gamma: float
    n_features: int
    val_error: float  # mean |pct error| on the validation split


DEFAULT_GAMMAS: Tuple[float, ...] = tuple(
    float(g) for g in np.logspace(-6, -1, 11)
)


def _split(matrix: FeatureMatrix, val_fraction: float,
           seed: int) -> Tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    n = matrix.n_jobs
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    if len(train_idx) < 2:
        raise ValueError("not enough jobs to split for gamma selection")
    train = FeatureMatrix(matrix.feature_set, matrix.x[train_idx],
                          matrix.cycles[train_idx])
    return train, matrix.x[val_idx], matrix.cycles[val_idx]


def _score(model: TrainedModel, x_val: np.ndarray,
           y_val: np.ndarray) -> PathPoint:
    # One gamma point: the train-split model scored on the held-out
    # split.
    pred = model.predictor.predict(x_val)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.abs(pred - y_val) / np.maximum(y_val, 1e-12) * 100.0
    return PathPoint(
        gamma=model.gamma,
        n_features=model.n_selected_features,
        val_error=float(np.mean(pct)),
    )


def lasso_path(matrix: FeatureMatrix, alpha: float = 8.0,
               gammas: Sequence[float] = DEFAULT_GAMMAS,
               val_fraction: float = 0.25,
               seed: int = 0,
               workers: Optional[int] = None) -> List[PathPoint]:
    """Fit at every gamma; report sparsity and held-out error.

    Each point is exactly ``fit_predictor`` on the train split, run in
    phases: every gamma's Lasso solve, then one refit per *distinct*
    selected support (neighbouring gammas often select the same
    columns, and a refit depends on its support alone), then each
    point's model is assembled and scored.  The Lasso solves and the
    refits are independent, so ``workers > 1`` distributes each phase
    over a process pool (``workers=None`` follows the ambient
    ``--jobs``/``REPRO_JOBS`` setting); the returned path is identical
    to a serial run.  Under an observer, ``model.fit.refits_reused``
    counts the refits the dedupe saved.
    """
    from ..parallel import pmap

    train, x_val, y_val = _split(matrix, val_fraction, seed)
    configs = [TrainingConfig(alpha=alpha, gamma=g) for g in gammas]
    lassos = pmap(functools.partial(_select, train), configs,
                  jobs=workers, label="lasso_path.pmap")
    supports = [_refit_support(c, lasso)
                for c, lasso in zip(configs, lassos)]
    distinct = list(dict.fromkeys(s for s in supports if s))
    refits = dict(zip(distinct, pmap(
        functools.partial(_refit, train, TrainingConfig(alpha=alpha)),
        distinct, jobs=workers, label="lasso_path.refit")))

    observer = get_observer()
    if observer is not None:
        observer.metrics.inc("model.fit.refits_reused",
                             sum(1 for s in supports if s) - len(distinct))
    return [
        _score(_assemble(train, config, lasso, support,
                         refits.get(support)), x_val, y_val)
        for config, lasso, support in zip(configs, lassos, supports)
    ]


def select_gamma(matrix: FeatureMatrix, alpha: float = 8.0,
                 gammas: Sequence[float] = DEFAULT_GAMMAS,
                 accuracy_slack: float = 0.5,
                 val_fraction: float = 0.25,
                 seed: int = 0,
                 workers: Optional[int] = None
                 ) -> Tuple[float, List[PathPoint]]:
    """Pick the sparsest gamma within ``accuracy_slack`` (percentage
    points of mean error) of the best point on the path."""
    points = lasso_path(matrix, alpha=alpha, gammas=gammas,
                        val_fraction=val_fraction, seed=seed,
                        workers=workers)
    best = min(p.val_error for p in points)
    eligible = [p for p in points if p.val_error <= best + accuracy_slack]
    chosen = min(eligible, key=lambda p: (p.n_features, -p.gamma))
    return chosen.gamma, points
