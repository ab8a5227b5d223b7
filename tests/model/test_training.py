"""Training pipeline, Lasso path and metrics tests."""

import numpy as np
import pytest

from repro.analysis import FeatureMatrix, FeatureSet, FeatureSpec
from repro.model import (
    BoxStats,
    LinearPredictor,
    PathPoint,
    PredictionReport,
    TrainingConfig,
    fit_predictor,
    lasso_path,
    percent_errors,
    select_gamma,
    worst_case_error_pct,
)
from repro.model.lasso import DEFAULT_GAMMAS


def synthetic_matrix(seed=0, n=200, relevant=3, junk=5, noise=0.0):
    """A feature matrix shaped like real accelerator features: counts
    and value sums with positive coefficients (cycles per unit)."""
    rng = np.random.default_rng(seed)
    p = relevant + junk
    specs = [FeatureSpec("ic", f"c{i}") for i in range(p)]
    x = rng.integers(0, 50, size=(n, p)).astype(float)
    coeffs = np.zeros(p)
    coeffs[:relevant] = rng.uniform(50, 500, size=relevant)
    cycles = x @ coeffs + 2000.0 + noise * rng.normal(size=n)
    cycles = np.maximum(cycles, 1.0)
    return FeatureMatrix(FeatureSet(specs), x, cycles), coeffs


def test_fit_recovers_noiseless_model():
    matrix, coeffs = synthetic_matrix()
    model = fit_predictor(matrix, TrainingConfig(alpha=8.0, gamma=1e-4))
    pred = model.predictor.predict(matrix.x)
    assert worst_case_error_pct(pred, matrix.cycles) < 0.5


def test_fit_selects_only_relevant_features():
    matrix, coeffs = synthetic_matrix()
    model = fit_predictor(matrix, TrainingConfig(alpha=8.0, gamma=1e-3))
    selected = set(model.predictor.selected_features)
    assert selected <= {"ic:c0", "ic:c1", "ic:c2"}
    assert len(selected) == 3


def test_refit_removes_shrinkage_bias():
    matrix, _ = synthetic_matrix(noise=0.0)
    biased = fit_predictor(
        matrix, TrainingConfig(alpha=1.0, gamma=5e-3, refit=False))
    refit = fit_predictor(
        matrix, TrainingConfig(alpha=1.0, gamma=5e-3, refit=True))
    err_biased = worst_case_error_pct(
        biased.predictor.predict(matrix.x), matrix.cycles)
    err_refit = worst_case_error_pct(
        refit.predictor.predict(matrix.x), matrix.cycles)
    assert err_refit < err_biased


def test_asymmetric_training_under_predicts_rarely():
    matrix, _ = synthetic_matrix(seed=3, noise=800.0)
    model = fit_predictor(matrix, TrainingConfig(alpha=30.0, gamma=1e-4))
    pred = model.predictor.predict(matrix.x)
    report = PredictionReport.from_predictions(pred, matrix.cycles)
    assert report.under_rate < 0.15
    # A symmetric fit under-predicts about half the time.
    sym = fit_predictor(matrix, TrainingConfig(alpha=1.0, gamma=1e-4))
    sym_report = PredictionReport.from_predictions(
        sym.predictor.predict(matrix.x), matrix.cycles)
    assert sym_report.under_rate > 0.3


def test_fit_requires_two_jobs():
    matrix, _ = synthetic_matrix(n=10)
    tiny = FeatureMatrix(matrix.feature_set, matrix.x[:1], matrix.cycles[:1])
    with pytest.raises(ValueError, match="two training jobs"):
        fit_predictor(tiny)


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        TrainingConfig(alpha=0.0)
    with pytest.raises(ValueError, match="gamma"):
        TrainingConfig(gamma=-1.0)


def test_predictor_round_trip_raw_space():
    """Coefficients are usable on raw (unstandardized) features."""
    matrix, _ = synthetic_matrix(seed=5)
    model = fit_predictor(matrix, TrainingConfig(alpha=4.0, gamma=1e-4))
    x0 = matrix.x[0]
    manual = float(x0 @ model.predictor.coeffs) + model.predictor.intercept
    assert model.predictor.predict_one(x0) == pytest.approx(manual)


def test_lasso_path_is_monotone_in_sparsity():
    matrix, _ = synthetic_matrix(seed=7, noise=100.0)
    points = lasso_path(matrix, alpha=4.0,
                        gammas=[1e-6, 1e-4, 1e-2])
    counts = [p.n_features for p in points]
    assert counts[0] >= counts[-1]


def test_select_gamma_prefers_sparse_models():
    matrix, _ = synthetic_matrix(seed=8, noise=100.0)
    gamma, points = select_gamma(matrix, alpha=4.0)
    chosen = next(p for p in points if p.gamma == gamma)
    best_err = min(p.val_error for p in points)
    assert chosen.val_error <= best_err + 0.5
    assert chosen.n_features <= min(
        p.n_features for p in points if p.val_error <= best_err + 0.5)


def _counting_solves(monkeypatch):
    from repro.model import training

    calls = []
    real = training.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "solve", counted)
    return calls


def test_lasso_path_refits_each_distinct_support_once(monkeypatch):
    from repro.model.lasso import _split

    matrix, _ = synthetic_matrix(seed=7, noise=100.0)
    train, x_val, y_val = _split(matrix, 0.25, 0)
    reference, supports = [], []
    for gamma in DEFAULT_GAMMAS:
        model = fit_predictor(train, TrainingConfig(alpha=4.0, gamma=gamma))
        pred = model.predictor.predict(x_val)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.abs(pred - y_val) / np.maximum(y_val, 1e-12) * 100.0
        reference.append(PathPoint(gamma, model.n_selected_features,
                                   float(np.mean(pct))))
        supports.append(tuple(model.predictor.selected_indices))
    distinct = {s for s in supports if s}
    # The grid must revisit supports, or there is nothing to dedupe.
    assert len(distinct) < sum(1 for s in supports if s)

    calls = _counting_solves(monkeypatch)
    points = lasso_path(matrix, alpha=4.0)
    assert len(calls) == len(DEFAULT_GAMMAS) + len(distinct)
    assert points == reference


def test_fit_counts_solves_and_reports_capped_ones(tmp_path):
    from repro.obs import read_events, session

    matrix, _ = synthetic_matrix(seed=7, noise=100.0)
    with session(run_dir=tmp_path) as observer:
        capped = fit_predictor(
            matrix, TrainingConfig(alpha=4.0, gamma=1e-4, max_iter=3))
        counters = dict(observer.metrics.counters)
        lasso_path(matrix, alpha=4.0)
    # The Lasso solve and its refit both stop at the cap.
    assert not capped.solve_info.converged
    assert counters["model.fit.solves"] == 2
    assert counters["model.fit.iterations"] == 6
    assert counters["model.fit.capped"] == 2
    after = observer.metrics.counters
    assert after["model.fit.solves"] > 2 + len(DEFAULT_GAMMAS)
    assert after["model.fit.refits_reused"] > 0
    assert after["model.fit.capped"] == 2
    events = [e for e in read_events(tmp_path / "events.jsonl")
              if e["type"] == "fit.capped"]
    n = matrix.n_jobs
    assert [(e["gamma"], e["n"], e["p"], e["iterations"])
            for e in events] == [(1e-4 * n, n, matrix.n_features, 3),
                                 (0.0, n, capped.n_selected_features, 3)]
    # Each capped event carries its KKT residual; the refit's is the
    # final model's, and the run's gauge is the worst of every solve.
    assert all(e["kkt"] > 0.0 for e in events)
    assert events[1]["kkt"] == capped.solve_info.kkt
    assert observer.metrics.gauges["model.fit.kkt_max"] >= max(
        e["kkt"] for e in events)


def test_percent_errors_sign_convention():
    errors = percent_errors(np.array([110.0, 90.0]), np.array([100.0, 100.0]))
    assert errors.tolist() == [10.0, -10.0]


def test_box_stats_known_distribution():
    data = list(range(1, 101)) + [1000.0]  # one clear outlier
    box = BoxStats.from_samples(data)
    assert box.q1 <= box.median <= box.q3
    assert box.outliers == (1000.0,)
    assert box.whisker_high <= 100.0


def test_box_stats_rejects_empty():
    with pytest.raises(ValueError):
        BoxStats.from_samples([])


def test_prediction_report_fields():
    actual = np.array([100.0, 100.0, 100.0, 100.0])
    predicted = np.array([105.0, 95.0, 100.0, 120.0])
    report = PredictionReport.from_predictions(predicted, actual)
    assert report.n_jobs == 4
    assert report.max_over_pct == pytest.approx(20.0)
    assert report.max_under_pct == pytest.approx(5.0)
    assert report.under_rate == pytest.approx(0.25)


def test_linear_predictor_shapes():
    with pytest.raises(ValueError):
        LinearPredictor(("a", "b"), np.zeros(3), 0.0)
    pred = LinearPredictor(("a", "b"), np.array([1.0, 0.0]), 5.0)
    assert pred.n_terms == 1
    assert pred.selected_features == ["a"]
    assert pred.as_dict() == {"a": 1.0}
    assert pred.restricted().coeffs.tolist() == [1.0, 0.0]
