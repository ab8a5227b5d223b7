"""Fit-work gate: solver calls and FISTA iterations of the model fit.

For every benchmark's training matrix at scale 0.05 this replays the
flow's fit stage — ``select_gamma`` over the default Lasso path, then
the final ``fit_predictor`` at the chosen gamma — and counts every
``solve`` call and its iterations.  Both are deterministic work
counters, so the gate holds on any host, unlike a wall-clock bound.

The solve counts are exact: ``lasso_path`` makes one Lasso solve per
gamma plus one refit per *distinct* selected support, and the final
fit makes a Lasso solve plus a refit.  The iteration total is a
budget that a slower-converging solver or a lost refit dedupe breaks.

Run it with ``PYTHONPATH=src python -m pytest benchmarks/test_fit_work.py``.
"""

from repro.experiments import bundle_for
from repro.flow import FlowConfig
from repro.model import fit_predictor, select_gamma, training
from repro.workloads import ALL_BENCHMARKS

SCALE = 0.05

#: Solves per benchmark: 11 Lasso solves + the distinct refits of the
#: path, then the final fit's Lasso solve + refit.  Refitting every
#: path point (one refit per gamma) made 24 per benchmark, 168 in all.
SOLVES = {
    "h264": 18, "cjpeg": 15, "djpeg": 15, "md": 14, "stencil": 16,
    "aes": 17, "sha": 15,
}

#: Total FISTA iterations over all seven fits.  Refitting every path
#: point took 98,391.
ITERATION_BUDGET = 64_460


def _fit_work(matrix, config: FlowConfig, monkeypatch):
    # One replay of the flow's fit stage with every solve counted.
    work = {"solves": 0, "iterations": 0}
    real = training.solve

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        work["solves"] += 1
        work["iterations"] += result.iterations
        return result

    with monkeypatch.context() as patch:
        patch.setattr(training, "solve", counted)
        gamma, _ = select_gamma(matrix, alpha=config.alpha,
                                accuracy_slack=config.auto_gamma_slack,
                                workers=1)
        fit_predictor(matrix, config.training_config(gamma))
    return work


def test_fit_work_within_budget(monkeypatch):
    config = FlowConfig()
    work = {
        name: _fit_work(bundle_for(name, SCALE).package.train_matrix,
                        config, monkeypatch)
        for name in ALL_BENCHMARKS
    }
    solves = {name: w["solves"] for name, w in work.items()}
    iterations = sum(w["iterations"] for w in work.values())
    print(f"fit work at scale {SCALE}: {sum(solves.values())} solves "
          f"{solves}, {iterations} iterations")
    assert solves == SOLVES
    assert iterations <= ITERATION_BUDGET, (
        f"{iterations} FISTA iterations exceed the budget of "
        f"{ITERATION_BUDGET}")


def test_fit_replay_matches_the_bundle():
    # The replay is the flow's own fit: same gamma, same coefficients.
    config = FlowConfig()
    package = bundle_for("cjpeg", SCALE).package
    gamma, _ = select_gamma(package.train_matrix, alpha=config.alpha,
                            accuracy_slack=config.auto_gamma_slack,
                            workers=1)
    model = fit_predictor(package.train_matrix,
                          config.training_config(gamma))
    assert gamma == package.gamma
    assert (model.predictor.coeffs == package.predictor.coeffs).all()
