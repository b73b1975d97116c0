"""Estimator recursion, adaptive weights, and weighted projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadac import estimator as est
from nadac import maps, metrics

IDENT = maps.Identity(dim=1)


def _scalar_system(radius=2.0):
    """n = m = 1 identity-link plant with theta* = (0.5, 0.3)^T."""
    theta_star = np.array([[0.5], [0.3]])
    pset = est.FrobeniusBall(radius, rho_eps=0.5)
    return theta_star, pset


# ---------------------------------------------------------------------------
# parameter sets and support values


def test_support_values():
    ball = est.FrobeniusBall(5.0)
    phi = np.array([2.0, 0.0])
    assert est.support_value(ball, phi) == pytest.approx(10.0)
    blocks = est.BlockOperatorBalls(15.0, 5.0)
    phi = np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0])  # ||x|| = 1, ||u|| = 2
    assert est.support_value(blocks, phi, n=1) == pytest.approx(25.0)
    assert est.support_value(ball, np.zeros(2)) == 0.0


def test_support_value_is_attained():
    # the reported supremum is tight: some feasible theta achieves it
    rng = np.random.default_rng(3)
    ball = est.FrobeniusBall(5.0)
    phi = rng.standard_normal(4)
    theta = 5.0 * np.outer(phi / np.linalg.norm(phi), [1.0, 0.0, 0.0])
    assert ball.contains(theta)
    assert np.linalg.norm(theta.T @ phi) == pytest.approx(ball.support_value(phi))


def test_block_set_membership_uses_operator_norm():
    blocks = est.BlockOperatorBalls(2.0, 1.0)
    a = np.diag([2.0, 2.0])  # spectral norm 2, Frobenius norm > 2
    theta = np.vstack([a.T, np.zeros((1, 2))])
    assert blocks.contains(theta)
    theta_bad = np.vstack([(2.5 * np.eye(2)).T, np.zeros((1, 2))])
    assert not blocks.contains(theta_bad)


def _svd_block_membership(pset, theta, shrunk, tol=1e-12):
    """BlockOperatorBalls.contains with an SVD for every block."""
    n = theta.shape[1]
    s = pset.rho_eps if shrunk else 1.0
    na = float(np.linalg.svd(theta[:n].T, compute_uv=False)[0])
    nb = float(np.linalg.svd(theta[n:].T, compute_uv=False)[0])
    return na <= s * pset.radius_a * (1.0 + tol) and nb <= s * pset.radius_b * (1.0 + tol)


def _rank_one(rng, rows, cols, norm):
    g = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    return g * (norm / np.linalg.norm(g, 2))


@pytest.mark.parametrize("shrunk", [False, True])
def test_block_membership_matches_svd_reference(shrunk):
    # the Frobenius pre-check may only skip SVDs, never change the answer
    rng = np.random.default_rng(17)
    pset = est.BlockOperatorBalls(15.0, 5.0, rho_eps=0.5)
    s = pset.rho_eps if shrunk else 1.0
    n, m = 2, 5
    cases = []
    for _ in range(300):
        scale = rng.uniform(0.0, 1.5)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        a *= scale * s * pset.radius_a / np.linalg.norm(a)
        b *= rng.uniform(0.0, 1.5) * s * pset.radius_b / np.linalg.norm(b)
        cases.append((a, b))
    # rank-one blocks, whose Frobenius and spectral norms agree, at the
    # boundary to within the rounding of either norm
    for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 2e-12):
        for _ in range(25):
            a = _rank_one(rng, n, n, factor * s * pset.radius_a)
            b = _rank_one(rng, n, m, rng.uniform(0.0, 1.0) * s * pset.radius_b)
            cases.append((a, b))
            a = _rank_one(rng, n, n, rng.uniform(0.0, 1.0) * s * pset.radius_a)
            b = _rank_one(rng, n, m, factor * s * pset.radius_b)
            cases.append((a, b))
    answers = set()
    for a, b in cases:
        theta = np.vstack([a.T, b.T])
        expect = _svd_block_membership(pset, theta, shrunk)
        assert pset.contains(theta, shrunk=shrunk) == expect
        answers.add(expect)
    assert answers == {True, False}


def test_parameter_set_config_round_trip():
    for pset in (est.FrobeniusBall(5.0, 0.5), est.BlockOperatorBalls(15.0, 5.0, 0.5)):
        assert est.parameter_set_from_config(pset.to_config()) == pset
    with pytest.raises(ValueError):
        est.parameter_set_from_config({"kind": "simplex"})


# ---------------------------------------------------------------------------
# construction


def test_new_estimator_shapes_and_defaults():
    pset = est.FrobeniusBall(5.0)
    state = est.new_estimator(np.zeros((6, 4)), pset, 0.5, maps.Identity(dim=4))
    np.testing.assert_array_equal(state.p_matrix, np.eye(6))
    assert state.r_accum == 1.0
    assert state.step == 0


def test_new_estimator_boundary_accepted_outside_rejected():
    pset = est.FrobeniusBall(5.0)
    boundary = np.zeros((3, 2))
    boundary[0, 0] = 5.0
    est.new_estimator(boundary, pset, 0.5, maps.Identity(dim=2))  # closed set
    outside = boundary.copy()
    outside[0, 0] = 5.01
    with pytest.raises(ValueError):
        est.new_estimator(outside, pset, 0.5, maps.Identity(dim=2))
    with pytest.raises(ValueError):
        est.new_estimator(np.zeros((3, 2)), pset, -0.1, maps.Identity(dim=2))


# ---------------------------------------------------------------------------
# step weights


def test_step_weights_hand_example():
    # identity link, theta_hat = 0, P = I, unit regressor, unit-radius ball:
    # r becomes 2, c = 1, d = 1/2, g = 1, mu = (1+log 2)^1.5 + 1/2
    pset = est.FrobeniusBall(1.0)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5, IDENT)
    diag = est.step_weights(state, np.array([1.0, 0.0]), IDENT, pset)
    mu_expect = (1.0 + np.log(2.0)) ** 1.5 + 0.5
    assert state.r_accum == pytest.approx(2.0)
    assert diag.d_gain == pytest.approx(0.5)
    assert diag.g_bar == pytest.approx(1.0)
    assert diag.mu_weight == pytest.approx(mu_expect, rel=1e-12)
    assert diag.a_weight == pytest.approx(1.0 / (mu_expect + 0.25), rel=1e-12)


def test_step_weights_zero_regressor():
    pset = est.FrobeniusBall(1.0)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5, IDENT)
    diag = est.step_weights(state, np.zeros(2), IDENT, pset)
    assert diag.mu_weight == pytest.approx(1.0)  # r stays 1, log term is 1
    assert diag.a_weight == pytest.approx(1.0)
    assert diag.d_gain == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_weight_orderings(seed):
    rng = np.random.default_rng(seed)
    pset = est.FrobeniusBall(3.0)
    f = maps.ScaledTanh(dim=2, a=2.0)
    state = est.new_estimator(rng.uniform(-1, 1, (3, 2)), pset, 0.5, f)
    diag = est.step_weights(state, rng.uniform(-2, 2, 3), f, pset)
    assert 0.0 < diag.a_weight <= 1.0 / diag.mu_weight + 1e-15
    assert diag.mu_weight >= (1.0 + np.log(state.r_accum)) ** 1.5 - 1e-12
    assert diag.d_gain <= diag.g_bar


# ---------------------------------------------------------------------------
# full steps


def test_zero_residual_keeps_estimate_but_contracts_p():
    theta0 = np.array([[0.4], [0.1]])
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(theta0, pset, 0.5, IDENT)
    phi = np.array([1.0, 2.0])
    x_next = theta0.T @ phi  # exact prediction
    nxt, diag = est.estimator_step(state, phi, x_next, IDENT, pset)
    np.testing.assert_allclose(nxt.theta_hat, theta0, atol=1e-15)
    assert phi @ nxt.p_matrix @ phi < phi @ phi  # contraction along phi
    assert diag.residual_norm == 0.0


def test_zero_regressor_is_a_no_op():
    theta0 = np.array([[0.4], [0.1]])
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(theta0, pset, 0.5, IDENT)
    nxt, _ = est.estimator_step(state, np.zeros(2), np.array([3.0]), IDENT, pset)
    np.testing.assert_array_equal(nxt.theta_hat, theta0)
    np.testing.assert_array_equal(nxt.p_matrix, np.eye(2))


@pytest.mark.parametrize("radius", [2.0, 0.3], ids=["inside", "projecting"])
def test_estimator_step_leaves_input_state_unmodified(radius):
    pset = est.FrobeniusBall(radius, rho_eps=0.5)
    state = est.new_estimator(np.array([[0.1], [0.1]]), pset, 0.5, IDENT)
    theta, p = state.theta_hat, state.p_matrix
    before = state.to_json()
    nxt, diag = est.estimator_step(state, np.array([1.0, 2.0]), np.array([3.0]), IDENT, pset)
    assert diag.projected == (radius < 1.0)
    assert nxt is not state and nxt.step == 1
    assert state.to_json() == before
    assert state.theta_hat is theta and state.p_matrix is p


def test_dimension_mismatch_rejected():
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5, IDENT)
    with pytest.raises(ValueError):
        est.estimator_step(state, np.zeros(3), np.zeros(1), IDENT, pset)


def test_estimator_step_matches_straight_line_recursion():
    # five steps compared entrywise against an independent hand transcription
    theta_star, pset = _scalar_system(radius=2.0)
    rng = np.random.default_rng(11)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5, IDENT)

    th = np.zeros((2, 1))
    P = np.eye(2)
    r = 1.0
    x = np.array([0.3])
    for _ in range(5):
        u = rng.uniform(-1, 1, 1)
        w = rng.uniform(-0.1, 0.1, 1)
        phi = np.concatenate([x, u])
        x_next = theta_star.T @ phi + w

        state, _ = est.estimator_step(state, phi, x_next, IDENT, pset)

        # plain transcription of the update equations
        r = r + phi @ phi
        c = np.linalg.norm(th.T @ phi) + 2.0 * np.linalg.norm(phi)
        d, g = 0.5 * 1.0, 1.0
        mu = (1 + np.log(r)) ** 1.5 + d * g**2 * (phi @ P @ phi)
        a = 1.0 / (mu + d**2 * (phi @ P @ phi))
        P = P - a * d**2 * np.outer(P @ phi, phi) @ P
        P = 0.5 * (P + P.T)
        th = th + (d / mu) * np.outer(P @ phi, (x_next - th.T @ phi))

        np.testing.assert_allclose(state.theta_hat, th, atol=1e-12)
        np.testing.assert_allclose(state.p_matrix, P, atol=1e-12)
        assert state.r_accum == pytest.approx(r, rel=1e-14)
        x = x_next


def _short_run(T=2_000, seed=5):
    """Scalar identity-link identification run returning per-step records."""
    theta_star, pset = _scalar_system(radius=2.0)
    rng = np.random.default_rng(seed)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5, IDENT)
    x = np.array([0.0])
    rows = []
    for _ in range(T):
        u = rng.uniform(-1, 1, 1)
        w = rng.uniform(-0.1, 0.1, 1)
        phi = np.concatenate([x, u])
        x_next = theta_star.T @ phi + w
        p_prev = state.p_matrix.copy()
        state, diag = est.estimator_step(state, phi, x_next.ravel(), IDENT, pset)
        rows.append((phi, p_prev, state.p_matrix.copy(), diag))
        x = x_next.ravel()
    return rows


def test_inverse_covariance_rank_one_identity():
    # P_{t+1}^{-1} = P_t^{-1} + (d^2/mu) phi phi^T at every step
    for phi, p_prev, p_next, diag in _short_run(500):
        lhs = np.linalg.inv(p_next)
        rhs = np.linalg.inv(p_prev) + (diag.d_gain**2 / diag.mu_weight) * np.outer(phi, phi)
        tol = 1e-8 * (1.0 + np.abs(np.linalg.inv(p_prev)).max())
        assert np.abs(lhs - rhs).max() <= tol


def test_weight_sandwich_and_trace_telescoping():
    rows = _short_run(2_000)
    d_floor = min(diag.d_gain for *_, diag in rows)
    total = 0.0
    for phi, p_prev, _, diag in rows:
        assert 1.0 / diag.mu_weight <= (1.0 + 1.0 / d_floor) * diag.a_weight + 1e-12
        total += diag.a_weight * diag.d_gain**2 * (phi @ p_prev @ p_prev @ phi)
    assert total <= 2.0 + 1e-9  # tr(P0) = tr(I_2)


def test_p_eigenvalues_never_increase():
    top = 1.0
    for _, _, p_next, _ in _short_run(300):
        new_top = np.linalg.eigvalsh(p_next)[-1]
        assert new_top <= top + 1e-12
        top = new_top


def test_estimate_stays_in_set_with_projection_counting():
    # starting on the boundary forces a projection on the first outward step;
    # the estimate must remain feasible throughout
    theta_star = np.array([[0.15], [0.1]])
    pset = est.FrobeniusBall(0.4, rho_eps=0.5)
    rng = np.random.default_rng(2)
    state = est.new_estimator(np.array([[0.4], [0.0]]), pset, 0.5, IDENT)
    x = np.array([0.0])
    for _ in range(400):
        u = rng.uniform(-3, 3, 1)
        phi = np.concatenate([x, u])
        x_next = theta_star.T @ phi + rng.uniform(-0.5, 0.5, 1)
        state, _ = est.estimator_step(state, phi, x_next.ravel(), IDENT, pset)
        assert pset.contains(state.theta_hat, tol=1e-9)
        x = x_next.ravel()
    assert state.projection_count > 0


def test_serialization_round_trip():
    rows = _short_run(50)
    del rows
    theta_star, pset = _scalar_system()
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5, IDENT)
    state, _ = est.estimator_step(state, np.array([0.5, -1.0]), np.array([0.2]), IDENT, pset)
    clone = est.EstimatorState.from_json(state.to_json())
    np.testing.assert_array_equal(clone.theta_hat, state.theta_hat)
    np.testing.assert_array_equal(clone.p_matrix, state.p_matrix)
    assert clone.r_accum == state.r_accum
    assert clone.step == state.step
    assert clone.delta == state.delta
    assert clone.projection_count == state.projection_count


# ---------------------------------------------------------------------------
# weighted projection


def test_projection_interior_point_is_identity():
    pset = est.FrobeniusBall(2.0, rho_eps=0.5)
    x = np.array([[0.3], [0.4]])
    out = est.project_weighted(x, np.diag([4.0, 1.0]), pset)
    np.testing.assert_array_equal(out, x)


def test_projection_euclidean_closed_form():
    # M = I reduces to radial scaling onto the shrunken ball
    pset = est.FrobeniusBall(2.0, rho_eps=0.5)
    x = np.array([[3.0], [4.0]])
    out = est.project_weighted(x, np.eye(2), pset)
    np.testing.assert_allclose(out, x / 5.0, atol=1e-9)


def test_projection_weighted_disk_vs_grid():
    pset = est.FrobeniusBall(1.0, rho_eps=1.0)
    weight = np.diag([4.0, 1.0])
    x = np.array([[1.5], [0.5]])
    out = est.project_weighted(x, weight, pset)
    assert np.linalg.norm(out) <= 1.0 + 1e-9

    def obj(y):
        d = x - y
        return float(np.trace(d.T @ weight @ d))

    ang = np.arange(0.0, 2 * np.pi, 1e-3)
    boundary = np.stack([np.cos(ang), np.sin(ang)])  # optimum sits on the rim
    best = min(obj(boundary[:, i : i + 1]) for i in range(0, ang.size))
    assert obj(out) <= best + 1e-4


def test_projection_block_set_feasible_and_competitive():
    rng = np.random.default_rng(9)
    pset = est.BlockOperatorBalls(1.0, 0.5, rho_eps=1.0)
    n, m = 2, 2
    x = rng.standard_normal((n + m, n)) * 2.0
    g = rng.standard_normal((n + m, n + m))
    weight = g @ g.T + 0.5 * np.eye(n + m)
    out = est.project_weighted(x, weight, pset, n=n)
    assert pset.contains(out, tol=1e-9)

    def obj(y):
        d = x - y
        return float(np.trace(d.T @ weight @ d))

    for _ in range(1_000):
        cand = pset.sample(n, m, rng)
        assert obj(out) <= obj(cand) + 1e-4


# ---------------------------------------------------------------------------
# long-run diagnostic from the supporting theory


def _opinion_objects():
    import json
    from nadac import cli, config as cfgmod

    with open(cli.preset_path("opinion")) as fh:
        return cfgmod.validate_config(json.load(fh))


def test_lyapunov_diagnostic_stays_bounded():
    # tr[(theta*-theta_hat)^T P^-1 (theta*-theta_hat)] + sum a||psi||^2 should
    # plateau after a transient prefix (no more than 3x its value at T/10)
    from nadac import control, simulate

    ro = _opinion_objects()
    T = 20_000
    streams = simulate.spawn_streams(ro.seed)
    state = est.new_estimator(ro.theta0, ro.pset, ro.delta, ro.plant.link)
    acc = metrics.MetricAccumulator(n=ro.plant.n, m=ro.plant.m, theta_star=ro.plant.theta_star)
    x = ro.plant.x0.copy()
    theta_ctrl = state.theta_hat.copy()
    series = []
    for t in range(T):
        u, v = control.adaptive_input(ro.mech, theta_ctrl, x, ro.probe, t, streams["probe"])
        w = simulate.noise_sample(ro.noise, streams["noise"])
        x_next = simulate.plant_step(ro.plant, x, u, w)
        phi = np.concatenate([x, u])
        theta_prev = state.theta_hat
        state_next, diag = est.estimator_step(state, phi, x_next, ro.plant.link, ro.pset)
        acc.update(phi, x, x_next, v, w, diag, ro.plant.link,
                   theta_hat=theta_prev, theta_hat_next=state_next.theta_hat)
        series.append(metrics.lyapunov_value(acc))
        theta_ctrl = theta_prev
        state = state_next
        x = x_next
    reference = series[T // 10]
    assert max(series[T // 10 :]) <= 3.0 * reference, (
        f"diagnostic grew from {reference:.3g} at T/10 to "
        f"{max(series[T // 10:]):.3g}"
    )


def test_run_norms_equal_each_runs_frobenius_norm():
    rng = np.random.default_rng(8)
    theta = rng.standard_normal((5, 7, 2)) * 3.0
    phi = rng.standard_normal((5, 7))
    norms, vec_norms = est.run_norms(theta, 2), est.run_norms(phi[:, :2], 1)
    for r in range(5):
        assert norms[r] == est.frobenius_norm(theta[r]) == est.run_norms(theta[r], 2)
        assert vec_norms[r] == est.frobenius_norm(phi[r, :2])
