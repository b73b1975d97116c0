"""Policies, probing signals, and the Riccati fixed-point solver."""

import warnings

import numpy as np
import pytest

from nadac import control, estimator as est


def _scalar_dare_root(a, q, r):
    """Positive root of the scalar fixed point p = a^2 p r/(r+p) + q."""
    # p(r+p) = a^2 p r + q(r+p)  =>  p^2 + (r - a^2 r - q) p - q r = 0
    coeffs = [1.0, r - a * a * r - q, -q * r]
    roots = np.roots(coeffs)
    return float(roots[roots > 0][0])


# ---------------------------------------------------------------------------
# DARE


def test_dare_zero_dynamics():
    P = control.solve_dare(np.zeros((2, 2)), np.eye(2), np.eye(2))
    np.testing.assert_allclose(P, np.eye(2), atol=1e-12)


def test_dare_scalar_matches_quadratic_root():
    for a in (0.5, 1.0, 3.0):
        P = control.solve_dare(np.array([[a]]), np.array([[1.0]]), np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(_scalar_dare_root(a, 1.0, 1.0), abs=1e-10)


def test_dare_diagonal_decouples():
    A = np.diag([0.3, 0.7])
    P = control.solve_dare(A, np.eye(2), np.eye(2))
    assert P[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert P[0, 0] == pytest.approx(_scalar_dare_root(0.3, 1.0, 1.0), abs=1e-10)
    assert P[1, 1] == pytest.approx(_scalar_dare_root(0.7, 1.0, 1.0), abs=1e-10)


def test_dare_residual_small_and_symmetric():
    A = np.array([[3.0, 1.5], [1.5, 3.0]])
    P = control.solve_dare(A, np.eye(2), np.eye(2))
    assert control.dare_residual(P, A, np.eye(2), np.eye(2)) <= 1e-10
    np.testing.assert_allclose(P, P.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(P) >= 0)


def test_dare_warm_start_agrees_with_cold():
    A = np.array([[0.9, 0.2], [0.0, 0.8]])
    cold = control.solve_dare(A, np.eye(2), np.eye(2))
    warm = control.solve_dare(A, np.eye(2), np.eye(2), p0=cold + 0.01)
    np.testing.assert_allclose(cold, warm, atol=1e-9)


def test_dare_non_convergence_reports_last_iterate():
    with pytest.raises(control.DareError) as exc:
        control.solve_dare(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), max_iter=2)
    assert exc.value.last_p is not None
    assert exc.value.residual > 0


def test_dare_rejects_bad_tol():
    with pytest.raises(ValueError):
        control.solve_dare(np.eye(2), np.eye(2), np.eye(2), tol=0.0)


@pytest.mark.parametrize("size", range(1, 8))
def test_solve_is_numpy_solve_bit_for_bit(size):
    # _solve calls the gufunc behind np.linalg.solve; a numpy release that
    # moves or changes that private gufunc fails here
    rng = np.random.default_rng(100 + size)
    for _ in range(20):
        a = rng.standard_normal((size, size)) + size * np.eye(size)
        for b in (rng.standard_normal(size), rng.standard_normal((size, size)),
                  rng.standard_normal((size, 3))):
            out = control._solve(a, b)
            assert out.shape == b.shape and out.dtype == np.float64
            assert (out == np.linalg.solve(a, b)).all()


@pytest.mark.parametrize("b", [np.ones(2), np.eye(2)], ids=["vector", "matrix"])
def test_solve_singular_raises_linalgerror_without_warning(b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            control._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), b)


def _reference_dare(A, Q, R, tol=1e-12, max_iter=100_000, p0=None):
    """The fixed-point loop as written on np.linalg.solve."""
    P = Q.copy() if p0 is None else np.asarray(p0, dtype=float).copy()
    for _ in range(max_iter):
        at_p = A.T @ P
        nxt = at_p @ A - at_p @ np.linalg.solve(R + P, P @ A) + Q
        nxt = 0.5 * (nxt + nxt.T)
        res = float(np.abs(nxt - P).max())
        P = nxt
        if res <= tol:
            return P
    raise AssertionError("reference DARE did not converge")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_solve_dare_is_reference_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        A = rng.uniform(-2.0, 2.0, (n, n))
        g = rng.standard_normal((n, n))
        Q = g @ g.T + np.eye(n)
        R = np.diag(rng.uniform(0.5, 2.0, n))
        cold = control.solve_dare(A, Q, R)
        assert (cold == _reference_dare(A, Q, R)).all()
        # warm start from a neighbouring system, as the Riccati cache does
        A2 = A + 1e-3 * rng.standard_normal((n, n))
        warm = control.solve_dare(A2, Q, R, p0=cold)
        assert (warm == _reference_dare(A2, Q, R, p0=cold)).all()


# ---------------------------------------------------------------------------
# policy mechanisms


def test_pinning_leader_constant_gain():
    mech = control.PinningLeader(x_leader=1.63, pattern=np.array([1.0]), kappa0=1.0)
    theta = np.zeros((5, 4))
    u = control.policy_eval(mech, theta, np.array([5.0, -1.0, 0.0, 2.0]))
    np.testing.assert_allclose(u, [1.63])  # state-independent


def test_pinning_leader_affine_gain():
    mech = control.PinningLeader(
        x_leader=2.0, pattern=np.array([1.0, 0.0]), affine_c1=0.5, affine_c2=1.0
    )
    theta = np.zeros((3, 1))
    theta[0, 0] = 4.0  # Frobenius norm 4
    u = control.policy_eval(mech, theta, np.zeros(1))
    np.testing.assert_allclose(u, [(0.5 * 4.0 + 1.0) * 2.0, 0.0])


def test_riccati_feedback_zero_dynamics_gives_zero_input():
    mech = control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2))
    theta = np.zeros((4, 2))
    u = control.policy_eval(mech, theta, np.array([1.0, -2.0]))
    np.testing.assert_allclose(u, np.zeros(2), atol=1e-12)


def test_riccati_feedback_quadratic_lift():
    mech = control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2), lift_kind="quadratic_si")
    x = np.array([2.0, 3.0])
    u = mech.lift(x, np.array([0.5, -0.5]))
    np.testing.assert_allclose(u, [4.0, 9.0, 6.0, 0.5, -0.5])
    v = mech.lift_probe(np.array([0.1, 0.2]))
    np.testing.assert_allclose(v, [0.0, 0.0, 0.0, 0.1, 0.2])


def test_riccati_cache_tracks_theta_changes():
    mech = control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2))
    theta1 = np.zeros((4, 2))
    theta2 = np.zeros((4, 2))
    theta2[0, 0] = 0.5
    p1 = mech.riccati_solution(theta1)
    p1_again = mech.riccati_solution(theta1)
    assert p1 is p1_again  # cache hit
    p2 = mech.riccati_solution(theta2)
    assert not np.allclose(p1, p2)


def test_policy_eval_rejects_outside_theta():
    mech = control.PinningLeader(x_leader=1.0, pattern=np.array([1.0]))
    pset = est.FrobeniusBall(1.0)
    with pytest.raises(ValueError):
        control.policy_eval(mech, np.full((2, 1), 5.0), np.zeros(1), pset=pset)


def test_custom_policy_delegates():
    mech = control.CustomPolicy(fn=lambda theta, x: 0.0 * x, m=2, lipschitz_L=0.0)
    np.testing.assert_array_equal(
        control.policy_eval(mech, np.zeros((4, 2)), np.ones(2)), np.zeros(2)
    )


def test_validate_lipschitz_accepts_honest_constants():
    rng = np.random.default_rng(0)
    pset = est.FrobeniusBall(2.0)
    mech = control.PinningLeader(
        x_leader=1.0, pattern=np.array([1.0]), kappa0=1.0,
        lipschitz_L=0.0, param_lipschitz_L1=0.0,
    )
    control.validate_lipschitz(mech, pset, n=1, m=1, rng=rng, pairs=500)


def test_validate_lipschitz_rejects_false_constants():
    rng = np.random.default_rng(0)
    pset = est.FrobeniusBall(2.0)
    mech = control.CustomPolicy(fn=lambda theta, x: 10.0 * x, m=2, lipschitz_L=1.0)
    with pytest.raises(ValueError):
        control.validate_lipschitz(mech, pset, n=2, m=2, rng=rng, pairs=200)


# ---------------------------------------------------------------------------
# probing signal


def test_probe_no_decay_returns_raw_sample():
    sig = control.ProbingSignal(decay_b=0.0, dim=3)
    rng = np.random.default_rng(1)
    v = control.probe_sample(sig, 10**6, rng)
    assert np.all(np.abs(v) <= 1.0)
    assert np.any(v != 0.0)


def test_probe_decay_factor_exact():
    # at t = 255 the (t+1)^(-1/8) factor is exactly 1/2
    sig = control.ProbingSignal(decay_b=0.125, dim=1, half_width=1.0)
    seed = 77
    raw = control.probe_sample(
        control.ProbingSignal(decay_b=0.0, dim=1), 255, np.random.default_rng(seed)
    )
    scaled = control.probe_sample(sig, 255, np.random.default_rng(seed))
    np.testing.assert_allclose(scaled, 0.5 * raw, rtol=1e-14)


def test_probe_moments_uniform_cube():
    sig = control.ProbingSignal(decay_b=0.0, dim=2, half_width=1.0)
    rng = np.random.default_rng(4)
    samp = np.array([control.probe_sample(sig, 0, rng) for _ in range(200_000)])
    assert np.abs(samp.mean(axis=0)).max() < 4.0 / np.sqrt(3 * 200_000)
    cov = np.cov(samp.T)
    np.testing.assert_allclose(np.diag(cov), [1 / 3, 1 / 3], rtol=0.02)


def test_probe_scaled_uniform_has_identity_covariance():
    sig = control.ProbingSignal(decay_b=0.0, dim=1, distribution="scaled_uniform")
    rng = np.random.default_rng(4)
    samp = np.array([control.probe_sample(sig, 0, rng) for _ in range(200_000)])
    assert np.all(np.abs(samp) <= np.sqrt(3.0) + 1e-12)
    assert samp.var() == pytest.approx(1.0, rel=0.02)


def test_probe_disabled_is_zero():
    sig = control.ProbingSignal(decay_b=0.5, dim=2, bound_eps=0.0)
    assert not sig.enabled
    np.testing.assert_array_equal(control.probe_sample(sig, 3, np.random.default_rng(0)), np.zeros(2))


def test_adaptive_input_null_policy_is_pure_probe():
    mech = control.CustomPolicy(fn=lambda theta, x: np.zeros(2), m=2)
    sig = control.ProbingSignal(decay_b=0.0, dim=2)
    seed = 5
    u, v = control.adaptive_input(mech, np.zeros((4, 2)), np.zeros(2), sig, 0, np.random.default_rng(seed))
    expect = control.probe_sample(sig, 0, np.random.default_rng(seed))
    np.testing.assert_array_equal(u, expect)
    np.testing.assert_array_equal(v, expect)


def test_policy_config_round_trip():
    for mech in (
        control.PinningLeader(x_leader=1.63, pattern=np.array([1.0]), kappa0=1.0),
        control.PinningLeader(x_leader=1.0, pattern=np.array([1.0]), affine_c1=0.5, affine_c2=0.2),
        control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2), lift_kind="quadratic_si"),
    ):
        cfg = mech.to_config()
        clone = control.policy_from_config(cfg, 2, mech.raw_dim)
        assert clone.to_config() == cfg
    with pytest.raises(ValueError):
        control.policy_from_config({"kind": "mpc"}, 2, 2)


# ---------------------------------------------------------------------------
# stacked products: a batch of runs gives the bits of its runs alone only
# while these numpy calls equal the per-run products slice by slice


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (2, 5), (3, 4)])
def test_stacked_products_equal_per_run_products_bit_for_bit(n, m):
    rng = np.random.default_rng(10 * n + m)
    runs, d = 6, n + m
    for _ in range(60):
        theta = rng.standard_normal((runs, d, n)) * rng.uniform(0.1, 10.0)
        p = rng.standard_normal((runs, d, d))
        p = p @ p.mT
        phi = rng.standard_normal((runs, d)) * rng.uniform(0.1, 10.0)
        x = rng.standard_normal((runs, n))
        stacked = {
            "A x": np.matvec(theta[:, :n].mT, x),
            "theta^T phi": np.matvec(theta.mT, phi),
            "P phi": np.matvec(p, phi),
            "phi . phi": np.vecdot(phi, phi),
            # the left-to-right order of phi @ P @ phi
            "phi^T P phi": np.vecdot(np.vecmat(phi, p), phi),
        }
        for r in range(runs):
            th, pr, ph, xr = theta[r], p[r], phi[r], x[r]
            alone = {
                "A x": th[:n].T @ xr,
                "theta^T phi": th.T @ ph,
                "P phi": pr @ ph,
                "phi . phi": ph @ ph,
                "phi^T P phi": ph @ pr @ ph,
            }
            for key, want in alone.items():
                assert np.array_equal(stacked[key][r], want), key
            # the same calls without a run axis, as a single run makes them
            assert np.array_equal(np.matvec(th[:n].T, xr), alone["A x"])
            assert np.array_equal(np.matvec(th.T, ph), alone["theta^T phi"])
            assert np.vecdot(ph, ph) == alone["phi . phi"]
            assert np.vecdot(np.vecmat(ph, pr), ph) == alone["phi^T P phi"]


def test_stacked_solve_equals_per_run_solve_bit_for_bit():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((500, 3, 3)) + 4.0 * np.eye(3)
    b = rng.standard_normal((500, 3))
    stacked = control._solve(a, b)
    for r in range(500):
        assert np.array_equal(stacked[r], np.linalg.solve(a[r], b[r]))
