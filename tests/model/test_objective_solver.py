"""Objective and solver tests: convexity, gradients, optimality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import AsymmetricLassoObjective, make_objective, solve


def random_problem(seed, n=40, p=5, alpha=4.0, gamma=0.0, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    beta_true = rng.normal(size=p) * 3
    y = x @ beta_true + noise * rng.normal(size=n)
    return x, y, beta_true


def test_objective_validation():
    x = np.zeros((3, 2))
    y = np.zeros(3)
    with pytest.raises(ValueError, match="alpha"):
        make_objective(x, y, alpha=0.5, gamma=0.0)
    with pytest.raises(ValueError, match="gamma"):
        make_objective(x, y, alpha=2.0, gamma=-1.0)


def test_residual_weights():
    x = np.eye(2)
    y = np.array([1.0, -1.0])
    obj = make_objective(x, y, alpha=5.0, gamma=0.0)
    beta = np.zeros(2)
    # residuals = -1 (under) and +1 (over)
    w = obj.residual_weights(x @ beta - y)
    assert w.tolist() == [5.0, 1.0]


def test_smooth_value_asymmetry():
    x = np.array([[1.0]])
    obj_over = make_objective(x, np.array([0.0]), alpha=10.0, gamma=0.0)
    # beta=+1 -> residual +1 (over): cost 1; beta=-1 -> residual -1: cost 10
    assert obj_over.smooth_value(np.array([1.0])) == pytest.approx(1.0)
    assert obj_over.smooth_value(np.array([-1.0])) == pytest.approx(10.0)


def test_gradient_matches_finite_differences():
    x, y, _ = random_problem(1)
    obj = make_objective(x, y, alpha=6.0, gamma=0.0)
    rng = np.random.default_rng(2)
    beta = rng.normal(size=x.shape[1])
    grad = obj.smooth_grad(beta)
    eps = 1e-6
    for i in range(len(beta)):
        bp, bm = beta.copy(), beta.copy()
        bp[i] += eps
        bm[i] -= eps
        fd = (obj.smooth_value(bp) - obj.smooth_value(bm)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    alpha=st.floats(1.0, 50.0),
    t=st.floats(0.0, 1.0),
)
def test_objective_is_convex_along_segments(seed, alpha, t):
    x, y, _ = random_problem(seed % 17, n=20, p=4)
    obj = make_objective(x, y, alpha=alpha, gamma=0.3)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=4)
    b = rng.normal(size=4)
    mid = t * a + (1 - t) * b
    lhs = obj.value(mid)
    rhs = t * obj.value(a) + (1 - t) * obj.value(b)
    assert lhs <= rhs + 1e-8


def test_solver_recovers_exact_linear_model():
    x, y, beta_true = random_problem(3, noise=0.0)
    obj = make_objective(x, y, alpha=4.0, gamma=0.0)
    result = solve(obj)
    assert result.converged
    np.testing.assert_allclose(result.beta, beta_true, rtol=1e-4, atol=1e-5)


def test_solver_reports_the_kkt_residual_of_its_result():
    x, y, _ = random_problem(6, noise=0.5)
    obj = make_objective(x, y, alpha=4.0, gamma=2.0)
    step = 1.0 / obj.lipschitz()
    done = solve(obj)
    capped = solve(obj, max_iter=2)
    assert done.converged and not capped.converged
    for result in (done, capped):
        assert result.kkt == obj.prox_gradient_residual(result.beta, step)
    assert type(done.kkt) is float
    assert done.kkt < capped.kkt
    # At the exact optimum the gradient mapping vanishes.
    exact = make_objective(x, x @ np.ones(5), alpha=4.0, gamma=0.0)
    assert exact.prox_gradient_residual(np.ones(5), 0.1) == \
        pytest.approx(0.0, abs=1e-12)


def test_solver_l1_zeroes_irrelevant_features():
    rng = np.random.default_rng(4)
    n = 120
    relevant = rng.normal(size=(n, 2))
    junk = rng.normal(size=(n, 6))
    x = np.hstack([relevant, junk])
    y = relevant @ np.array([5.0, -2.0])
    obj = make_objective(x, y, alpha=2.0, gamma=3.0)
    result = solve(obj)
    assert result.converged
    assert np.all(np.abs(result.beta[2:]) < 1e-3)
    assert np.all(np.abs(result.beta[:2]) > 0.5)


def test_solver_intercept_not_penalized():
    rng = np.random.default_rng(5)
    x = np.hstack([rng.normal(size=(80, 1)), np.ones((80, 1))])
    y = 2.0 * x[:, 0] + 100.0
    obj = make_objective(x, y, alpha=2.0, gamma=50.0)
    result = solve(obj)
    # Feature coefficient is shrunk by the strong L1, but the intercept
    # is free to hold the large offset.
    assert result.beta[1] == pytest.approx(100.0, rel=0.05)


def test_asymmetric_solution_sits_above_symmetric():
    """With alpha >> 1 the fit biases toward over-prediction."""
    rng = np.random.default_rng(6)
    n = 300
    x = np.ones((n, 1))
    y = rng.normal(loc=10.0, scale=2.0, size=n)
    sym = solve(make_objective(x, y, alpha=1.0, gamma=0.0)).beta[0]
    asym = solve(make_objective(x, y, alpha=25.0, gamma=0.0)).beta[0]
    assert sym == pytest.approx(np.mean(y), rel=1e-3)
    assert asym > sym + 1.0  # pushed well above the mean
    under_rate = float(np.mean(y > asym))
    assert under_rate < 0.2


def test_solver_reaches_reference_optimum():
    """Cross-check against scipy's general-purpose optimizer."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    x, y, _ = random_problem(7, n=60, p=4, noise=1.0)
    obj = make_objective(x, y, alpha=9.0, gamma=0.0)
    ours = solve(obj)
    ref = scipy_opt.minimize(obj.smooth_value, np.zeros(4),
                             jac=obj.smooth_grad, method="L-BFGS-B")
    assert ours.value == pytest.approx(ref.fun, rel=1e-6, abs=1e-8)


def _reference_solve(obj, beta0, max_iter, tol):
    """FISTA exactly as first written: the smooth loss, its gradient
    and the masked prox each recomputed from scratch at every use.
    Returns ``(SolveResult fields, path counts)``: how often the
    adaptive restart fired and the backtracking ran out of halvings."""
    x, y, alpha, gamma, pen = obj.x, obj.y, obj.alpha, obj.gamma, \
        obj.penalize

    def smooth_value(b):
        r = x @ b - y
        w = np.where(r >= 0.0, 1.0, alpha)
        return float(np.sum(w * r * r))

    def smooth_grad(b):
        r = x @ b - y
        w = np.where(r >= 0.0, 1.0, alpha)
        return 2.0 * (x.T @ (w * r))

    def value(b):
        return smooth_value(b) + float(gamma * np.sum(np.abs(b[pen])))

    def prox(b, step):
        if gamma == 0.0:
            return b
        out = b.copy()
        out[pen] = np.sign(b[pen]) * np.maximum(np.abs(b[pen])
                                                - gamma * step, 0.0)
        return out

    n = obj.n_coeffs
    beta = np.zeros(n) if beta0 is None else np.asarray(beta0, float).copy()
    momentum = beta.copy()
    t = 1.0
    step = 1.0 / obj.lipschitz()
    counts = {"restarts": 0, "exhausted": 0}
    current = value(beta)
    for iteration in range(1, max_iter + 1):
        grad = smooth_grad(momentum)
        candidate = prox(momentum - step * grad, step)
        smooth_mom = smooth_value(momentum)
        for _ in range(60):
            diff = candidate - momentum
            bound = (smooth_mom + float(grad @ diff)
                     + float(diff @ diff) / (2.0 * step))
            if smooth_value(candidate) <= bound + 1e-12:
                break
            step *= 0.5
            candidate = prox(momentum - step * grad, step)
        else:
            counts["exhausted"] += 1
        new_value = value(candidate)
        if new_value > current:
            counts["restarts"] += 1
            momentum = beta.copy()
            t = 1.0
            grad = smooth_grad(momentum)
            candidate = prox(momentum - step * grad, step)
            new_value = value(candidate)
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = candidate + ((t - 1.0) / t_next) * (candidate - beta)
        improvement = current - new_value
        beta = candidate
        current = new_value
        t = t_next
        if improvement >= 0 and improvement <= tol * max(abs(current), 1.0):
            return (beta, current, iteration, True), counts
    return (beta, current, max_iter, False), counts


def test_solver_is_bit_identical_to_reference_fista():
    """The solver shares one residual per point; every float it returns
    must equal the recompute-everything reference's."""
    seen = {"restarts": 0, "capped": 0, "converged": 0}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        p=st.integers(1, 20),
        alpha=st.sampled_from([1.0, 2.0, 8.0, 30.0]),
        gamma=st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]),
        intercept=st.booleans(),
        warm=st.booleans(),
        max_iter=st.integers(1, 400),
    )
    def check(seed, n, p, alpha, gamma, intercept, warm, max_iter):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-1, 1, size=p)
        if intercept:
            x = np.hstack([x, np.ones((n, 1))])
        y = rng.normal(size=n) * 10.0
        obj = make_objective(x, y, alpha=alpha, gamma=gamma,
                             intercept_col=x.shape[1] - 1 if intercept
                             else None)
        beta0 = rng.normal(size=x.shape[1]) if warm else None
        (beta, value, iterations, converged), counts = _reference_solve(
            obj, beta0, max_iter, 1e-9)
        result = solve(obj, beta0=beta0, max_iter=max_iter, tol=1e-9)
        assert np.array_equal(result.beta, beta)
        assert result.value == value
        assert result.iterations == iterations
        assert result.converged == converged
        seen["restarts"] += counts["restarts"]
        seen["capped" if not converged else "converged"] += 1

    check()
    # The generated set drives both exits and the adaptive restart.
    assert seen["restarts"] > 0
    assert seen["capped"] > 0 and seen["converged"] > 0


class _Overstepped(AsymmetricLassoObjective):
    """A Lipschitz bound far too small: the first steps overshoot by
    more than 60 halvings can repair."""

    def lipschitz(self) -> float:
        return 1e-25


@pytest.mark.parametrize("seed", range(5))
def test_exhausted_backtracking_matches_reference(seed):
    # After 60 failed halvings the last candidate was never scored; the
    # solver scores it then, as the reference does.  (The overshoot
    # also triggers the restart, which re-scores the candidate anyway.)
    rng = np.random.default_rng(seed)
    x = np.hstack([rng.normal(size=(30, 4)), np.ones((30, 1))])
    y = rng.normal(size=30) * 10.0
    base = make_objective(x, y, alpha=8.0, gamma=0.1, intercept_col=4)
    obj = _Overstepped(x=base.x, y=base.y, alpha=base.alpha,
                       gamma=base.gamma, penalize=base.penalize)
    (beta, value, iterations, converged), counts = _reference_solve(
        obj, None, 50, 1e-9)
    result = solve(obj, max_iter=50, tol=1e-9)
    assert counts["exhausted"] > 0 and np.isfinite(value)
    assert np.array_equal(result.beta, beta)
    assert result.value == value
    assert (result.iterations, result.converged) == (iterations, converged)
