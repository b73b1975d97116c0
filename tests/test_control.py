"""Policies, probing signals, and the Riccati fixed-point solver."""

import dataclasses
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
    # the message carries the residual of the last iterate
    with pytest.raises(control.DareError, match=r"exceeded 2 iterations \(residual [1-9]"):
        control.solve_dare(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]), max_iter=2)


def test_dare_stops_at_first_non_finite_iterate():
    # A^T P A overflows at the first iterate, so the residual is NaN and can
    # never meet the tolerance
    with pytest.raises(control.DareError, match=r"non-finite .* iteration 1\b"):
        control.solve_dare(np.array([[1e200]]), np.array([[1.0]]), np.array([[1.0]]))


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


@pytest.mark.parametrize("n", range(1, 6))
def test_warm_started_dare_chain_is_reference_loop_bit_for_bit(n):
    # a learning run: theta_hat drifts by shrinking steps, and the Riccati
    # cache warm-starts every solve from the one before; A is the theta[:n].T
    # view the engine passes
    rng = np.random.default_rng(40 + n)
    g = rng.standard_normal((n, n))
    Q, R = g @ g.T + np.eye(n), np.diag(rng.uniform(0.5, 2.0, n))
    mech = control.RiccatiFeedback(Q=Q, R=R)
    theta = 0.3 * rng.standard_normal((2 * n, n))
    prev = None
    for k in range(200):
        theta = theta + rng.standard_normal(theta.shape) / (k + 2)
        got = mech.riccati_solution(theta)
        assert np.array_equal(got, _reference_dare(theta[:n].T, Q, R, p0=prev)), k
        prev = got


def _untransposed_dare(A, Q, R, tol=1e-12, max_iter=100_000, p0=None):
    """solve_dare as written with P.dot(A) in every iteration and the
    residual from np.abs and np.maximum.reduce, error paths included."""
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = Q.copy() if p0 is None else np.asarray(p0, dtype=float).copy()
    a_t = A.T
    with np.errstate(all="ignore"):
        for k in range(1, max_iter + 1):
            at_p = a_t.dot(P)
            gain = control._umath_linalg.solve(R + P, P.dot(A), signature="dd->d")
            nxt = at_p.dot(A) - at_p.dot(gain) + Q
            nxt = 0.5 * (nxt + nxt.T)
            res = float(np.maximum.reduce(np.abs(nxt - P), axis=None))
            if res <= tol:
                return nxt
            if not np.isfinite(res):
                msg = f"DARE iterate non-finite at iteration {k} (residual {res:.3e})"
                raise control.DareError(msg)
            P = nxt
    raise control.DareError(f"DARE iteration exceeded {max_iter} iterations (residual {res:.3e})")


def _dare_outcome(solver, *args, **kwargs):
    """What a solver gives, to the bit: the solution, or the DareError's
    message, which carries the residual."""
    try:
        return "solved", solver(*args, **kwargs).tobytes()
    except control.DareError as exc:
        return "DareError", str(exc)


_DARE_EDGE_CASES = {
    # a caller's Q and p0 need not be symmetric: the first P A is P.dot(A)
    "cold, non-symmetric Q": (
        np.array([[0.9, 0.2], [-0.3, 0.7]]), np.array([[2.0, 0.7], [-0.4, 1.0]]), np.eye(2), {}),
    "warm, non-symmetric p0": (
        np.array([[0.9, 0.2], [-0.3, 0.7]]), np.eye(2), np.eye(2),
        {"p0": np.array([[1.5, 0.9], [-0.6, 1.2]])}),
    "n = 1, A < 0": (np.array([[-0.8]]), np.array([[1.0]]), np.array([[2.0]]), {}),
    "n = 1, A = -0.0": (np.array([[-0.0]]), np.array([[1.0]]), np.array([[1.0]]), {}),
    "-0.0 entries": (
        np.array([[-0.0, 0.4], [-0.0, -0.5]]), np.array([[1.0, -0.0], [-0.0, 1.0]]), np.eye(2),
        {"p0": np.array([[-0.0, -0.0], [-0.0, 2.0]])}),
    # A^T P A overflows and inf - inf leaves a NaN residual
    "overflow to NaN": (np.array([[1e200]]), np.array([[1.0]]), np.array([[1.0]]), {}),
    # a large R keeps the gain term finite, so the residual is inf
    "overflow to inf": (np.array([[1e200]]), np.array([[1.0]]), np.array([[1e300]]), {}),
    "singular R + P": (np.eye(2), np.diag([-1.0, 1.0]), np.eye(2), {}),
    # only the second diagonal entry overflows: the NaN is not the first entry
    "NaN off the first entry": (np.diag([0.5, 1e200]), np.eye(2), np.eye(2), {}),
    "max_iter reached": (np.array([[2.0, 0.1], [0.0, 1.5]]), np.eye(2), np.eye(2), {"max_iter": 3}),
}


@pytest.mark.parametrize("case", list(_DARE_EDGE_CASES))
def test_solve_dare_edge_cases_match_untransposed_loop(case):
    A, Q, R, kwargs = _DARE_EDGE_CASES[case]
    want = _dare_outcome(_untransposed_dare, A, Q, R, **kwargs)
    assert _dare_outcome(control.solve_dare, A, Q, R, **kwargs) == want
    if case == "NaN off the first entry":
        assert want[:2] == ("DareError", "DARE iterate non-finite at iteration 1 (residual nan)")
    if case == "overflow to inf":
        assert want[-1].endswith("(residual inf)")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_solve_dare_matches_untransposed_loop_on_random_systems(n):
    # the engine's layout: A is the theta[:n].T view, and a warm start comes
    # from a neighbouring system's solution
    rng = np.random.default_rng(300 + n)
    for _ in range(20):
        theta = rng.uniform(-1.5, 1.5, (n + 1, n))
        A = theta[:n].T
        g = rng.standard_normal((n, n))
        Q, R = g @ g.T + np.eye(n), np.diag(rng.uniform(0.5, 2.0, n))
        want = _dare_outcome(_untransposed_dare, A, Q, R)
        assert _dare_outcome(control.solve_dare, A, Q, R) == want
        if want[0] == "solved":
            p0 = np.frombuffer(want[1]).reshape(n, n)
            A2 = (theta + 1e-3 * rng.standard_normal(theta.shape))[:n].T
            warm = _dare_outcome(control.solve_dare, A2, Q, R, p0=p0)
            assert warm == _dare_outcome(_untransposed_dare, A2, Q, R, p0=p0)


@pytest.mark.parametrize("kwargs", [{"max_iter": 0}, {"max_iter": -3}, {"tol": np.nan}],
                         ids=["max_iter=0", "max_iter<0", "tol=nan"])
def test_dare_rejects_bad_iteration_arguments(kwargs):
    # max_iter = 0 would leave no residual to report, and a NaN tolerance is
    # never met, so the loop would spin to max_iter
    with pytest.raises(ValueError):
        control.solve_dare(np.eye(2), np.eye(2), np.eye(2), **kwargs)


# ---------------------------------------------------------------------------
# policy mechanisms


def test_pinning_leader_constant_gain():
    mech = control.PinningLeader(x_leader=1.63, pattern=np.array([1.0]), c2=1.0)
    theta = np.zeros((5, 4))
    u = control.policy_eval(mech, theta, np.array([5.0, -1.0, 0.0, 2.0]))
    np.testing.assert_allclose(u, [1.63])  # state-independent


def test_pinning_leader_affine_gain():
    mech = control.PinningLeader(
        x_leader=2.0, pattern=np.array([1.0, 0.0]), c1=0.5, c2=1.0
    )
    theta = np.zeros((3, 1))
    theta[0, 0] = 4.0  # Frobenius norm 4
    u = control.policy_eval(mech, theta, np.zeros(1))
    np.testing.assert_allclose(u, [(0.5 * 4.0 + 1.0) * 2.0, 0.0])


@pytest.mark.parametrize("c1, c2", [(-0.5, 3.0), (np.nan, 0.0), (0.5, np.inf), (0.0, np.nan)])
def test_pinning_leader_rejects_an_affine_pair_kappa_ignores(c1, c2):
    # a negative or NaN c1, or a c2 that is not finite, gives no usable gain;
    # c1 = 0 makes the gain the constant c2, whose norm it never takes
    with pytest.raises(ValueError):
        control.PinningLeader(1.0, np.ones(1), c1=c1, c2=c2)
    assert control.PinningLeader(1.0, np.ones(1), c1=0.0, c2=3.0).kappa(None) == 3.0


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


def _counting_solver(monkeypatch):
    """Replace control.solve_dare by a stub that counts its calls."""
    calls = []

    def solve(A, Q, R, p0=None):
        calls.append(A.copy())
        return np.full(Q.shape, float(len(calls)))

    monkeypatch.setattr(control, "solve_dare", solve)
    return calls


def test_riccati_cache_compares_a_block_as_arrays_compare(monkeypatch):
    # the cache test is == entry by entry: -0.0 equals 0.0, any changed
    # entry of the A block misses, and the B block is not looked at
    calls = _counting_solver(monkeypatch)
    mech = control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2))
    theta = np.array([[0.0, 0.5], [0.0, 0.0], [1.0, 2.0]])
    first = mech.riccati_solution(theta)
    signed = theta.copy()
    signed[0, 0] = signed[1, 1] = -0.0
    assert mech.riccati_solution(signed) is first
    other_b = theta.copy()
    other_b[2] = [3.0, -4.0]
    assert mech.riccati_solution(other_b) is first
    assert len(calls) == 1
    changed = theta.copy()
    changed[1, 0] = np.nextafter(0.0, 1.0)
    assert mech.riccati_solution(changed) is not first
    assert len(calls) == 2
    # the feedback solves with R + P of the cached solution
    np.testing.assert_array_equal(mech._cache_rp, np.eye(2) + 2.0)


def test_riccati_cache_never_hits_a_nan_block(monkeypatch):
    calls = _counting_solver(monkeypatch)
    mech = control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2))
    theta = np.array([[0.1, np.nan], [0.0, 0.3], [1.0, 2.0]])
    p1 = mech.riccati_solution(theta)
    p2 = mech.riccati_solution(theta)
    p3 = mech.riccati_solution(theta.copy())
    assert len(calls) == 3 and p1 is not p2 and p2 is not p3


def test_replaced_riccati_feedback_starts_with_a_cold_cache():
    # the cache belongs to the weights it was solved for: a copy with another
    # R must solve afresh, not return the P of the old R
    theta = np.array([[0.5], [1.0]])
    warm = control.RiccatiFeedback(Q=np.eye(1), R=np.eye(1))
    warm.riccati_solution(theta)
    got = dataclasses.replace(warm, R=10.0 * np.eye(1)).riccati_solution(theta)
    cold = control.RiccatiFeedback(Q=np.eye(1), R=10.0 * np.eye(1)).riccati_solution(theta)
    assert got.tobytes() == cold.tobytes()


# ---------------------------------------------------------------------------
# probing signal


def test_probe_no_decay_returns_raw_sample():
    sig = control.ProbingSignal(decay_b=0.0)
    rng = np.random.default_rng(1)
    v = control.probe_sample(sig, 10**6, rng, 3)
    assert np.all(np.abs(v) <= 1.0)
    assert np.any(v != 0.0)


def test_probe_decay_factor_exact():
    # at t = 255 the (t+1)^(-1/8) factor is exactly 1/2
    sig = control.ProbingSignal(decay_b=0.125, half_width=1.0)
    seed = 77
    raw = control.probe_sample(
        control.ProbingSignal(decay_b=0.0), 255, np.random.default_rng(seed), 1
    )
    scaled = control.probe_sample(sig, 255, np.random.default_rng(seed), 1)
    np.testing.assert_allclose(scaled, 0.5 * raw, rtol=1e-14)


def test_probe_moments_uniform_cube():
    sig = control.ProbingSignal(decay_b=0.0, half_width=1.0)
    rng = np.random.default_rng(4)
    samp = np.array([control.probe_sample(sig, 0, rng, 2) for _ in range(200_000)])
    assert np.abs(samp.mean(axis=0)).max() < 4.0 / np.sqrt(3 * 200_000)
    cov = np.cov(samp.T)
    np.testing.assert_allclose(np.diag(cov), [1 / 3, 1 / 3], rtol=0.02)


def test_probe_scaled_uniform_has_identity_covariance():
    # the half width config.py gives a "scaled_uniform" probe
    sig = control.ProbingSignal(decay_b=0.0, half_width=float(np.sqrt(3.0)))
    rng = np.random.default_rng(4)
    samp = np.array([control.probe_sample(sig, 0, rng, 1) for _ in range(200_000)])
    assert np.all(np.abs(samp) <= np.sqrt(3.0) + 1e-12)
    assert samp.var() == pytest.approx(1.0, rel=0.02)


def test_probe_disabled_is_zero():
    sig = control.ProbingSignal(decay_b=0.5, half_width=0.0)
    v = control.probe_sample(sig, 3, np.random.default_rng(0), 2)
    np.testing.assert_array_equal(v, np.zeros(2))


def test_adaptive_input_null_policy_is_pure_probe():
    mech = control.PinningLeader(0.0, np.zeros(2))
    sig = control.ProbingSignal(decay_b=0.0)
    seed = 5
    v_raw = control.probe_sample(sig, 0, np.random.default_rng(seed), 2)
    u, v = control.adaptive_input(mech, np.zeros((4, 2)), np.zeros(2), v_raw)
    expect = control.probe_sample(sig, 0, np.random.default_rng(seed), 2)
    np.testing.assert_array_equal(u, expect)
    np.testing.assert_array_equal(v, expect)


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


# ---------------------------------------------------------------------------
# single-run products: ndarray.dot makes the BLAS call of @ (and of the
# per-run np.matvec, np.vecmat and np.vecdot) without the gufunc dispatch,
# so each .dot form of the engine must give the bits of the form it replaced


@pytest.mark.parametrize("n", range(1, 8))
def test_riccati_dot_products_equal_matmul_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(60):
        theta = rng.standard_normal((n + 2, n)) * rng.uniform(0.1, 10.0)
        A = theta[:n].T  # the engine's layout: a transposed view
        a_t = A.T
        g = rng.standard_normal((n, n))
        P = g @ g.T  # C-contiguous, as every iterate
        at_p = a_t.dot(P)
        assert np.array_equal(at_p, a_t @ P)
        assert np.array_equal(at_p.dot(A), at_p @ A)
        assert np.array_equal(P.dot(A), P @ A)
        s = control._solve(np.eye(n) + P, P.dot(A))
        assert np.array_equal(at_p.dot(s), at_p @ s)


@pytest.mark.parametrize("n", range(1, 8))
def test_transposed_riccati_product_is_p_dot_a_bit_for_bit(n):
    # solve_dare forms P A as (A^T P)^T from the second iterate on, where P
    # is symmetrized as 0.5 * (S + S^T) and so exactly symmetric
    rng = np.random.default_rng(500 + n)
    for _ in range(200):
        theta = rng.standard_normal((n + 2, n)) * rng.uniform(0.1, 10.0)
        A = theta[:n].T
        s = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        P = 0.5 * (s + s.T)
        assert np.array_equal(A.T.dot(P).T, P.dot(A))
        assert np.array_equal(A.T.dot(P).T, P @ A)


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("n", range(1, 8))
def test_estimator_dot_products_equal_per_run_forms_bit_for_bit(n, m):
    # (4, 1), (2, 5) and (2, 2) are the shipped and benchmark shapes
    rng = np.random.default_rng(10 * n + m)
    d = n + m
    for _ in range(60):
        theta = rng.standard_normal((d, n)) * rng.uniform(0.1, 10.0)
        g = rng.standard_normal((d, d))
        p = g @ g.T
        phi = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
        assert np.array_equal(phi.dot(theta), np.matvec(theta.mT, phi))
        assert phi.dot(p).dot(phi) == np.vecdot(np.vecmat(phi, p), phi)
        assert phi.dot(phi) == np.vecdot(phi, phi)
        assert np.array_equal(p.dot(phi), np.matvec(p, phi))
        flat = theta.ravel("K")
        assert flat.dot(flat) == flat @ flat  # estimator.frobenius_norm


def test_riccati_feedback_keeps_positive_zero_for_scalar_state():
    # with n = 1, ndarray.dot multiplies 1x1 operands directly and would give
    # -0.0 for A < 0 and x = 0; @ and the batch's np.matvec give +0.0, so a
    # run's u_star column does not depend on how it was batched
    mech = control.RiccatiFeedback(Q=np.eye(1), R=np.eye(1))
    theta = np.array([[-0.5], [-1.0]])
    solo = mech.raw_eval(theta, np.zeros(1))
    batch = control._raw_eval((mech, mech), np.array([theta, theta]), np.zeros((2, 1)))
    assert not np.signbit(solo).any() and not np.signbit(batch).any()


@pytest.mark.parametrize("bad", [-1.0, np.nan])
@pytest.mark.parametrize("field", ["half_width"])
def test_probe_rejects_negative_widths(field, bad):
    # a negative half_width would turn the probe off without a word
    with pytest.raises(ValueError, match=f"probe {field} must be >= 0"):
        control.ProbingSignal(decay_b=0.1, **{field: bad})
    assert control.ProbingSignal(decay_b=0.1, **{field: 0.0}).half_width == 0.0


def test_probe_rejects_nan_decay():
    # a NaN exponent would make every probe NaN and abort the run later
    with pytest.raises(ValueError, match="decay exponent"):
        control.ProbingSignal(decay_b=np.nan)
