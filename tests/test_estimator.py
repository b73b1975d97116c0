"""Estimator recursion, adaptive weights, and weighted projection."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nadac import estimator as est
from nadac import maps, metrics

IDENT = maps.Identity()


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
    assert ball.support_value(phi, n=1) == pytest.approx(10.0)
    blocks = est.BlockOperatorBalls(15.0, 5.0)
    phi = np.array([1.0, 0.0, 0.0, 2.0, 0.0, 0.0])  # ||x|| = 1, ||u|| = 2
    assert blocks.support_value(phi, n=1) == pytest.approx(25.0)
    assert ball.support_value(np.zeros(2), n=1) == 0.0


def test_support_value_is_attained():
    # the reported supremum is tight: some feasible theta achieves it
    rng = np.random.default_rng(3)
    ball = est.FrobeniusBall(5.0)
    phi = rng.standard_normal(4)
    theta = 5.0 * np.outer(phi / np.linalg.norm(phi), [1.0, 0.0, 0.0])
    assert ball.contains(theta)
    assert np.linalg.norm(theta.T @ phi) == pytest.approx(ball.support_value(phi, n=3))


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


# ---------------------------------------------------------------------------
# construction


def test_new_estimator_shapes_and_defaults():
    pset = est.FrobeniusBall(5.0)
    state = est.new_estimator(np.zeros((6, 4)), pset, 0.5)
    np.testing.assert_array_equal(state.p_matrix, np.eye(6))
    assert state.r_accum == 1.0


def test_new_estimator_boundary_accepted_outside_rejected():
    pset = est.FrobeniusBall(5.0)
    boundary = np.zeros((3, 2))
    boundary[0, 0] = 5.0
    est.new_estimator(boundary, pset, 0.5)  # closed set
    outside = boundary.copy()
    outside[0, 0] = 5.01
    with pytest.raises(ValueError):
        est.new_estimator(outside, pset, 0.5)
    with pytest.raises(ValueError):
        est.new_estimator(np.zeros((3, 2)), pset, -0.1)


def test_frobenius_ball_rejects_nan_radius():
    # NaN <= 0 is False; a NaN ball once constructed and then reported
    # "theta0 lies outside the parameter set"
    with pytest.raises(ValueError, match="radius must be positive"):
        est.FrobeniusBall(np.nan)


@pytest.mark.parametrize("radii", [(np.nan, 1.0), (1.0, np.nan)], ids=["a", "b"])
def test_block_balls_reject_nan_radius(radii):
    with pytest.raises(ValueError, match="block radii must be positive"):
        est.BlockOperatorBalls(*radii)


def test_new_estimator_rejects_nan_delta():
    with pytest.raises(ValueError, match="delta must be positive"):
        est.new_estimator(np.zeros((3, 2)), est.FrobeniusBall(5.0), np.nan)


# ---------------------------------------------------------------------------
# step weights


def test_step_weights_hand_example():
    # identity link, theta_hat = 0, P = I, unit regressor, unit-radius ball:
    # r becomes 2, c = 1, d = 1/2, g = 1, mu = (1+log 2)^1.5 + 1/2
    pset = est.FrobeniusBall(1.0)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5)
    diag = est.step_weights(state, np.array([1.0, 0.0]), IDENT, pset)
    mu_expect = (1.0 + np.log(2.0)) ** 1.5 + 0.5
    assert state.r_accum == pytest.approx(2.0)
    assert diag.d_gain == pytest.approx(0.5)
    assert diag.g_bar == pytest.approx(1.0)
    assert diag.mu_weight == pytest.approx(mu_expect, rel=1e-12)
    assert diag.a_weight == pytest.approx(1.0 / (mu_expect + 0.25), rel=1e-12)


def test_step_weights_zero_regressor():
    pset = est.FrobeniusBall(1.0)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5)
    diag = est.step_weights(state, np.zeros(2), IDENT, pset)
    assert diag.mu_weight == pytest.approx(1.0)  # r stays 1, log term is 1
    assert diag.a_weight == pytest.approx(1.0)
    assert diag.d_gain == pytest.approx(0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_weight_orderings(seed):
    rng = np.random.default_rng(seed)
    pset = est.FrobeniusBall(3.0)
    f = maps.ScaledTanh(a=2.0)
    state = est.new_estimator(rng.uniform(-1, 1, (3, 2)), pset, 0.5)
    diag = est.step_weights(state, rng.uniform(-2, 2, 3), f, pset)
    assert 0.0 < diag.a_weight <= 1.0 / diag.mu_weight + 1e-15
    assert diag.mu_weight >= (1.0 + np.log(state.r_accum)) ** 1.5 - 1e-12
    assert diag.d_gain <= diag.g_bar


# ---------------------------------------------------------------------------
# full steps


def test_zero_residual_keeps_estimate_but_contracts_p():
    theta0 = np.array([[0.4], [0.1]])
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(theta0, pset, 0.5)
    phi = np.array([1.0, 2.0])
    x_next = theta0.T @ phi  # exact prediction
    nxt, diag = est.estimator_step(state, phi, x_next, IDENT, pset)
    np.testing.assert_allclose(nxt.theta_hat, theta0, atol=1e-15)
    assert phi @ nxt.p_matrix @ phi < phi @ phi  # contraction along phi
    assert np.array_equal(diag.prediction, x_next)


def test_zero_regressor_is_a_no_op():
    theta0 = np.array([[0.4], [0.1]])
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(theta0, pset, 0.5)
    nxt, _ = est.estimator_step(state, np.zeros(2), np.array([3.0]), IDENT, pset)
    np.testing.assert_array_equal(nxt.theta_hat, theta0)
    np.testing.assert_array_equal(nxt.p_matrix, np.eye(2))


@pytest.mark.parametrize("radius", [2.0, 0.3], ids=["inside", "projecting"])
def test_estimator_step_leaves_input_state_unmodified(radius):
    pset = est.FrobeniusBall(radius, rho_eps=0.5)
    state = est.new_estimator(np.array([[0.1], [0.1]]), pset, 0.5)
    before = {f.name: getattr(state, f.name) for f in dataclasses.fields(state)}
    values = copy.deepcopy(before)
    nxt, diag = est.estimator_step(state, np.array([1.0, 2.0]), np.array([3.0]), IDENT, pset)
    assert diag.projected == (radius < 1.0)
    assert nxt is not state
    for name, obj in before.items():
        assert getattr(state, name) is obj, name
        np.testing.assert_array_equal(obj, values[name], err_msg=name, strict=True)


def test_dimension_mismatch_rejected():
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5)
    with pytest.raises(ValueError):
        est.estimator_step(state, np.zeros(3), np.zeros(1), IDENT, pset)


def test_estimator_step_matches_straight_line_recursion():
    # five steps compared entrywise against an independent hand transcription
    theta_star, pset = _scalar_system(radius=2.0)
    rng = np.random.default_rng(11)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5)

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


@pytest.mark.parametrize("n, m", [(4, 1), (2, 5), (2, 2)])
def test_estimator_step_is_expression_form_bit_for_bit(n, m):
    # a learning run (leaky ReLU, d_t = 0.15) against the recursion written
    # with @: the single-run step forms its products with ndarray.dot, to
    # the same bits
    link = maps.LeakyRelu(slope=0.3)
    pset = est.FrobeniusBall(50.0)
    rng = np.random.default_rng(7 * n + m)
    theta_star = 0.3 * rng.standard_normal((n + m, n))
    state = est.new_estimator(np.zeros((n + m, n)), pset, 0.5)
    th, P, r = np.zeros((n + m, n)), np.eye(n + m), 1.0
    x = np.zeros(n)
    for _ in range(300):
        phi = np.concatenate([x, rng.uniform(-1.0, 1.0, m)])
        x_next = link.eval(theta_star.T @ phi) + rng.uniform(-0.1, 0.1, n)
        state, diag = est.estimator_step(state, phi, x_next, link, pset)

        z = th.T @ phi
        c = float(np.linalg.norm(z)) + 50.0 * float(np.linalg.norm(phi))
        quad = float(phi @ P @ phi)
        r += float(phi @ phi)
        d, _, mu, a = est._weights(link, 0.5, r, c, quad)
        p_phi = P @ phi
        P = P - (a * d * d) * (p_phi[:, None] * p_phi[None, :])
        P = 0.5 * (P + P.T)
        th = th + (d / mu) * ((P @ phi)[:, None] * (x_next - link.eval(z))[None, :])

        assert not diag.projected
        assert np.array_equal(state.theta_hat, th)
        assert np.array_equal(state.p_matrix, P)
        assert state.r_accum == r
        x = x_next


def _short_run(T=2_000, seed=5):
    """Scalar identity-link identification run returning per-step records."""
    theta_star, pset = _scalar_system(radius=2.0)
    rng = np.random.default_rng(seed)
    state = est.new_estimator(np.zeros((2, 1)), pset, 0.5)
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
    state = est.new_estimator(np.array([[0.4], [0.0]]), pset, 0.5)
    x = np.array([0.0])
    projections = 0
    for _ in range(400):
        u = rng.uniform(-3, 3, 1)
        phi = np.concatenate([x, u])
        x_next = theta_star.T @ phi + rng.uniform(-0.5, 0.5, 1)
        state, diag = est.estimator_step(state, phi, x_next.ravel(), IDENT, pset)
        assert pset.contains(state.theta_hat, tol=1e-9)
        projections += diag.projected
        x = x_next.ravel()
    assert projections > 0


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
    out = est.project_weighted(x, weight, pset)
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
    state = est.new_estimator(ro.theta0, ro.pset, ro.delta)
    acc = metrics.MetricAccumulator(ro.plant.theta_star, ro.plant.link, ro.gamma)
    x = ro.plant.x0.copy()
    theta_ctrl = state.theta_hat.copy()
    series = []
    for t in range(T):
        v_raw = control.probe_sample(ro.probe, t, streams["probe"], ro.mech.raw_dim)
        u, v = control.adaptive_input(ro.mech, theta_ctrl, x, v_raw)
        w = simulate.noise_sample(ro.noise, streams["noise"], ro.plant.n)
        x_next = simulate.plant_step(ro.plant, x, u, w)
        phi = np.concatenate([x, u])
        theta_prev = state.theta_hat
        state_next, diag = est.estimator_step(state, phi, x_next, ro.plant.link, ro.pset)
        _, _, v_lyap = acc.update(
            np.array([x, x_next]), u[None], v[None], w[None], None, None,
            np.array([diag.d_gain]), np.array([diag.mu_weight]), np.array([diag.a_weight]),
            np.array([theta_prev, state_next.theta_hat]), diag.prediction[None],
        )
        series.append(float(v_lyap[0]) + acc.sum_a_psi_sq)
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


# ---------------------------------------------------------------------------
# the single-run step against a batch of one


def _batch_of_one(state):
    return est.EstimatorState(
        theta_hat=state.theta_hat[None], p_matrix=state.p_matrix[None],
        r_accum=np.array([state.r_accum]), delta=np.array([state.delta]),
    )


def _float_bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _step_alone_and_batched(state, phi, x_next, f, pset, given=False):
    """estimator_step of a single run and of the same run as a batch of one
    (with ``given``, on the z and prediction the simulation loop hands in).
    Asserts the same bits, or the same exception with the same message,
    and returns the single run's (state, diag) or exception."""
    outs = []
    for batched in (False, True):
        st_in = _batch_of_one(state) if batched else state
        args = (phi[None], x_next[None]) if batched else (phi, x_next)
        extra = ()
        if given:
            z = est.link_input(st_in.theta_hat, args[0])
            extra = (z, f.eval(z))
        try:
            outs.append(est.estimator_step(st_in, *args, f, pset, *extra))
        except Exception as exc:  # noqa: BLE001 - compared below
            outs.append(exc)
    one, batch = outs
    if isinstance(one, Exception) or isinstance(batch, Exception):
        assert type(one) is type(batch) and str(one) == str(batch), (one, batch)
        return one
    (st1, d1), (stb, db) = one, batch
    assert st1.theta_hat.tobytes() == stb.theta_hat[0].tobytes()
    assert st1.p_matrix.tobytes() == stb.p_matrix[0].tobytes()
    assert _float_bits(st1.r_accum) == _float_bits(stb.r_accum[0])
    for name in ("d_gain", "g_bar", "a_weight", "mu_weight", "quad"):
        assert _float_bits(getattr(d1, name)) == _float_bits(getattr(db, name)[0]), name
    assert bool(d1.projected) == bool(db.projected[0])
    assert d1.prediction.tobytes() == db.prediction[0].tobytes()
    assert d1.z.tobytes() == db.z[0].tobytes()
    return one


def test_single_step_is_batch_of_one_while_learning():
    # 50 steps of a leaky-ReLU plant whose estimate learns (d_t = 0.15)
    n, m = 2, 2
    link = maps.LeakyRelu(slope=0.3)
    pset = est.FrobeniusBall(50.0)
    rng = np.random.default_rng(31)
    theta_star = 0.3 * rng.standard_normal((n + m, n))
    state = est.new_estimator(np.zeros((n + m, n)), pset, 0.7)
    x = np.zeros(n)
    for t in range(50):
        phi = np.concatenate([x, rng.uniform(-1.0, 1.0, m)])
        x_next = link.eval(theta_star.T @ phi) + rng.uniform(-0.1, 0.1, n)
        state, diag = _step_alone_and_batched(state, phi, x_next, link, pset, given=t % 2 == 0)
        assert not diag.projected
        x = x_next
    assert np.linalg.norm(state.theta_hat - theta_star) < 0.5


def test_single_step_is_batch_of_one_for_zero_regressor():
    pset = est.FrobeniusBall(2.0)
    link = maps.ScaledTanh(a=2.0)
    state = est.new_estimator(np.full((4, 2), 0.25), pset, 0.5)
    nxt, _ = _step_alone_and_batched(state, np.zeros(4), np.array([0.4, -0.1]), link, pset)
    np.testing.assert_array_equal(nxt.theta_hat, state.theta_hat)


@pytest.mark.parametrize("pset", [est.FrobeniusBall(0.3), est.BlockOperatorBalls(0.3, 0.2)],
                         ids=["frobenius", "blocks"])
def test_single_step_is_batch_of_one_when_projecting(pset):
    link = maps.Identity()
    state = est.new_estimator(np.full((4, 2), 0.01), pset, 0.5)
    phi = np.array([1.0, -2.0, 0.5, 1.5])
    nxt, diag = _step_alone_and_batched(state, phi, np.array([4.0, -3.0]), link, pset)
    assert diag.projected


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_single_step_is_batch_of_one_for_non_finite_regressor(bad):
    pset = est.FrobeniusBall(2.0)
    state = est.new_estimator(np.zeros((4, 2)), pset, 0.5)
    phi = np.array([0.5, bad, 0.0, 1.0])
    exc = _step_alone_and_batched(state, phi, np.zeros(2), maps.Identity(), pset)
    assert isinstance(exc, ValueError) and str(exc) == "regressor must be finite"


def test_single_step_is_batch_of_one_when_energy_overflows():
    # a finite phi whose phi.phi overflows: r and the radius become inf, and
    # the envelope's radius check raises
    pset = est.FrobeniusBall(2.0)
    link = maps.LeakyRelu(slope=0.3)
    state = est.new_estimator(np.zeros((4, 2)), pset, 0.5)
    with np.errstate(over="ignore"):
        exc = _step_alone_and_batched(
            state, np.array([1e200, 0.0, 0.0, 0.0]), np.zeros(2), link, pset
        )
    assert isinstance(exc, ValueError)
    assert str(exc).startswith("envelope radius must be finite")


@pytest.mark.parametrize("phi, rescued", [
    (np.array([4.7e26, 0.0, 0.0, 0.0]), True),
    (1.185e27 * np.array([1.0, 0.3, -0.2, 0.1]), False),
], ids=["rescued", "abort"])
def test_single_step_is_batch_of_one_in_extended_precision(monkeypatch, phi, rescued):
    # a tiny tanh gain on a tiny ball and |phi| near 1e27: d^2 quad is about
    # 1e20 times mu, so a d^2 quad rounds to 1.0 in float64 at step 0 and the
    # weights are re-derived in long double, which may or may not resolve it
    calls = []
    extended = est._extended_weights
    monkeypatch.setattr(
        est, "_extended_weights", lambda *args: calls.append(args) or extended(*args)
    )
    link = maps.ScaledTanh(a=1e-17)
    pset = est.FrobeniusBall(1e-30)
    state = est.new_estimator(np.zeros((4, 2)), pset, 0.5)
    out = _step_alone_and_batched(state, phi, np.zeros(2), link, pset)
    assert len(calls) == 2  # once alone, once in the batch
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        assert isinstance(out, tuple) == rescued
    if not rescued:
        assert isinstance(out, est.NumericalAbort)
        assert str(out).startswith("covariance contraction factor")


# ---------------------------------------------------------------------------
# forms of the single-run step that the CI floor leg (numpy 2.2) pins: each
# must give the bits of the form it replaced


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7])
def test_multiply_outer_is_broadcast_product_bit_for_bit(size):
    rng = np.random.default_rng(40 + size)
    for _ in range(200):
        a = rng.standard_normal(size) * rng.uniform(1e-3, 1e3)
        b = rng.standard_normal(2 + size % 3) * rng.uniform(1e-3, 1e3)
        a[rng.integers(size)] = rng.choice([0.0, -0.0])
        assert np.multiply.outer(a, b).tobytes() == (a[:, None] * b[None, :]).tobytes()
        assert np.multiply.outer(a, a).tobytes() == (a[:, None] * a[None, :]).tobytes()


def test_python_float_mu_is_numpy_scalar_mu():
    # mu_t from a Python float power equals the numpy scalar power it
    # replaced, including the overflow to inf of a very large exponent
    rng = np.random.default_rng(23)
    count = 20_000
    rs = np.concatenate([[1.0, 2.0, np.e, 1e308], np.exp(rng.uniform(0.0, 709.0, count))])
    deltas = np.concatenate([[0.5, 1.0, 2.0, 0.5], rng.uniform(1e-3, 5.0, count)])
    quads = rng.uniform(0.0, 1e3, count + 4)
    for r, delta, quad in zip(rs.tolist(), deltas.tolist(), quads.tolist()):
        d, g_bar, mu, a = est._weights(IDENT, delta, r, 1.0, quad)
        want = (1.0 + np.log(r)) ** (1.0 + delta) + d * g_bar**2 * quad
        assert _float_bits(mu) == _float_bits(want), (r, delta)
        assert _float_bits(a) == _float_bits(1.0 / (want + d * d * quad))
    with np.errstate(over="ignore"):
        want = (1.0 + np.log(1e10)) ** (1.0 + 300.0)
    assert want == np.inf and est._weights(IDENT, 300.0, 1e10, 1.0, 1.0)[2] == np.inf


class _PlainBall(est.FrobeniusBall):
    """A Frobenius ball that step_weights does not recognize by type, so
    the support comes from support_value."""


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 17, 40])
def test_ball_support_from_regressor_energy_is_support_value(d):
    # a single run's step takes the ball's support from the phi.phi it
    # absorbs into r; it must give the bits of support_value
    rng = np.random.default_rng(700 + d)
    f = maps.ScaledTanh(a=2.0)
    for _ in range(50):
        radius = rng.uniform(0.5, 20.0)
        phi = rng.standard_normal(d) * rng.uniform(1e-3, 1e3)
        theta = rng.uniform(-1.0, 1.0, (d, 1)) * radius / (2.0 * d)
        got, want = (
            est.step_weights(est.new_estimator(theta, pset, 0.5), phi, f, pset)
            for pset in (est.FrobeniusBall(radius), _PlainBall(radius))
        )
        for key in ("d_gain", "g_bar", "a_weight", "mu_weight", "quad"):
            assert _float_bits(getattr(got, key)) == _float_bits(getattr(want, key)), key
        assert radius * math.sqrt(phi.dot(phi)) == est.FrobeniusBall(radius).support_value(phi, n=1)
