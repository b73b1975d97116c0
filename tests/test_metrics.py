"""Run diagnostics: excitation, tracking, regret, rate-probe parameters."""

import numpy as np
import pytest

from nadac import estimator as est, maps, metrics


def _diag(d=1.0, mu=1.0, a=1.0):
    return est.StepDiagnostics(d_gain=d, g_bar=1.0, a_weight=a, mu_weight=mu)


def _acc(n=1, m=1, **kw):
    return metrics.MetricAccumulator(n=n, m=m, **kw)


def _feed(acc, phi, **kw):
    n = acc.n
    kw.setdefault("x", phi[:n])
    kw.setdefault("x_next", np.zeros(n))
    kw.setdefault("v", np.zeros(acc.m))
    kw.setdefault("w", np.zeros(n))
    kw.setdefault("diag", _diag())
    kw.setdefault("link", maps.Identity(dim=n))
    acc.update(np.asarray(phi, dtype=float), **kw)


# ---------------------------------------------------------------------------
# excitation


def test_gram_cycling_basis_grows_lambda_linearly():
    # cycling through the standard basis k/2 times adds k/2 * 1/2 per axis
    acc = _acc(n=1, m=1)
    for t in range(12):
        _feed(acc, np.eye(2)[t % 2])
    # each basis visit contributes 1/(1+1) = 1/2 to its diagonal entry
    assert metrics.lambda_min_normalized(acc) == pytest.approx(6 * 0.5)


def test_gram_rank_one_direction_gives_zero_lambda():
    acc = _acc(n=1, m=1)
    for _ in range(50):
        _feed(acc, np.array([1.0, 1.0]))
    assert metrics.lambda_min_normalized(acc) == pytest.approx(0.0, abs=1e-12)


def test_lambda_before_any_step_raises():
    with pytest.raises(ValueError):
        metrics.lambda_min_normalized(_acc())


def test_lambda_nondecreasing_along_random_run():
    rng = np.random.default_rng(0)
    acc = _acc(n=2, m=1)
    prev = 0.0
    for _ in range(100):
        _feed(acc, rng.standard_normal(3), x=np.zeros(2), w=np.zeros(2),
              v=np.zeros(1), x_next=np.zeros(2), link=maps.Identity(dim=2))
        cur = metrics.lambda_min_normalized(acc)
        assert cur >= prev - 1e-12  # adding psd rank-ones never shrinks it
        prev = cur


# ---------------------------------------------------------------------------
# tracking / sign regret


def test_tracking_error_constant_offset():
    acc = _acc(n=1, m=1)
    for _ in range(10):
        _feed(acc, np.array([1.0, 0.0]), x=np.array([2.0]),
              x_star=np.array([1.0]), u=np.array([0.5]), u_star=np.array([0.0]))
    # (2-1)^2 + (0.5-0)^2 per step
    assert metrics.tracking_error(acc) == pytest.approx(1.25)
    assert metrics.tracking_error(acc, t=5) == pytest.approx(2.5)


def test_sign_regret_counts_flips():
    acc = _acc(n=1, m=1)
    _feed(acc, np.array([1.0, 0.0]), x=np.array([1.0]), x_star=np.array([-1.0]))
    _feed(acc, np.array([1.0, 0.0]), x=np.array([1.0]), x_star=np.array([1.0]))
    _feed(acc, np.array([1.0, 0.0]), x=np.array([0.0]), x_star=np.array([1.0]))
    # flip -> |1 - (-1)| = 2, agree -> 0, sgn(0) = 0 -> |0 - 1| = 1
    assert metrics.sign_regret(acc) == pytest.approx(3.0 / 3.0)


def test_tracking_needs_steps():
    with pytest.raises(ValueError):
        metrics.tracking_error(_acc())


# ---------------------------------------------------------------------------
# regret / Lyapunov


def test_prediction_regret_weighted_sum():
    theta_star = np.array([[1.0], [0.0]])
    acc = _acc(n=1, m=1, theta_star=theta_star)
    theta_hat = np.array([[0.5], [0.0]])
    _feed(acc, np.array([2.0, 0.0]), theta_hat=theta_hat, diag=_diag(mu=4.0))
    # psi = (1 - 0.5) * 2 = 1, psi^2/mu = 0.25
    assert metrics.prediction_regret(acc) == pytest.approx(0.25)


def test_prediction_regret_requires_ground_truth():
    acc = _acc()
    _feed(acc, np.array([1.0, 0.0]))
    with pytest.raises(metrics.GroundTruthRequired):
        metrics.prediction_regret(acc)
    with pytest.raises(metrics.GroundTruthRequired):
        metrics.lyapunov_value(acc)


def test_lyapunov_value_perfect_estimate_is_a_sum():
    theta_star = np.array([[1.0], [0.0]])
    acc = _acc(n=1, m=1, theta_star=theta_star)
    for _ in range(5):
        _feed(acc, np.array([1.0, 0.0]), theta_hat=theta_star,
              theta_hat_next=theta_star, diag=_diag(a=2.0))
    # psi = 0 throughout, V = 0
    assert metrics.lyapunov_value(acc) == pytest.approx(0.0)


def test_lyapunov_p_inv_tracks_independent_recursion():
    # p_inv accumulates (d^2/mu) phi phi^T on top of the identity
    acc = _acc(n=1, m=1, theta_star=np.array([[1.0], [0.0]]))
    phi = np.array([3.0, 0.0])
    _feed(acc, phi, theta_hat=np.zeros((2, 1)), diag=_diag(d=0.5, mu=2.0))
    expect = np.eye(2)
    expect[0, 0] += (0.25 / 2.0) * 9.0
    np.testing.assert_allclose(acc.p_inv, expect)
    # V = tr(err^T P^{-1} err) with err = theta* - theta_hat
    assert acc.lyapunov_v == pytest.approx(expect[0, 0] * 1.0)


def _reference_step(acc, phi, x, x_next, v, w, d, mu, a, prediction, prediction_star,
                    theta_hat_next, x_star, u, u_star, gamma):
    """One step of the accumulator's arithmetic as written per step, with
    ``+=`` on every sum: the reference the block path must reproduce."""
    phi_phi = np.outer(phi, phi)
    acc.gram_normalized += phi_phi / (1.0 + float(phi @ phi))
    acc.sum_v_pow_gamma += est.frobenius_norm(v) ** gamma
    acc.sum_w_pow_gamma += est.frobenius_norm(w) ** gamma
    acc.sum_xnext_pow_gamma += est.frobenius_norm(x_next) ** gamma
    acc.p_inv += (d**2 / mu) * phi_phi
    dx, du = x - x_star, u - u_star
    acc.sum_track_sq += float(dx @ dx)
    acc.sum_track_sq += float(du @ du)
    acc.sum_sign_mismatch += float(np.abs(np.sign(x) - np.sign(x_star)).sum())
    psi = prediction_star - prediction
    psi_sq = float(psi @ psi)
    acc.sum_pred_regret += psi_sq / mu
    acc.sum_a_psi_sq += a * psi_sq
    err = acc.theta_star - theta_hat_next
    acc.lyapunov_v = float((err.T @ acc.p_inv @ err).trace())
    acc.steps += 1
    return acc.lyapunov_v, acc.sum_track_sq


def test_blocks_absorb_exactly_as_single_steps():
    # one random trajectory fed through the per-step reference, step by step
    # and in uneven blocks: every running sum and the V_t and tracking
    # series agree to the bit
    rng = np.random.default_rng(3)
    n, m, T = 3, 2, 600
    theta_star = rng.standard_normal((n + m, n))
    x = rng.standard_normal((T + 1, n))
    u = rng.standard_normal((T, m))
    thetas = theta_star + 0.3 * rng.standard_normal((T + 1, n + m, n))
    steps = {
        "phi": np.hstack([x[:-1], u]), "x": x[:-1], "x_next": x[1:],
        "v": 0.1 * rng.standard_normal((T, m)), "w": 0.1 * rng.standard_normal((T, n)),
        "x_star": x[:-1] + 0.2 * rng.standard_normal((T, n)), "u": u,
        "u_star": u + 0.2 * rng.standard_normal((T, m)),
        "theta_hat_next": thetas[1:],
        "prediction_star": np.tanh(rng.standard_normal((T, n))),
    }
    d, mu, a = rng.uniform(1e-3, 1.0, T), rng.uniform(1.0, 50.0, T), rng.uniform(1e-3, 1.0, T)
    prediction = np.tanh(rng.standard_normal((T, n)))

    def fresh():
        return _acc(n=n, m=m, theta_star=theta_star)

    def feed(acc, rows):
        diag = est.StepDiagnostics(d_gain=d[rows], g_bar=1.0, a_weight=a[rows],
                                   mu_weight=mu[rows], prediction=prediction[rows])
        return acc.update(diag=diag, link=maps.ScaledTanh(dim=n), gamma=10.0,
                          theta_hat=thetas[rows], **{key: val[rows] for key, val in steps.items()})

    ref = fresh()
    ref_series = np.array([
        _reference_step(ref, d=float(d[t]), mu=float(mu[t]), a=float(a[t]),
                        prediction=prediction[t], gamma=10.0,
                        **{key: val[t] for key, val in steps.items()})
        for t in range(T)
    ]).T
    cuts = np.cumsum([0, 1, 7, 256, T - 264])
    for blocks in (range(T), [slice(i, j) for i, j in zip(cuts[:-1], cuts[1:])]):
        # range(T): arguments without the step axis, a block of one each
        acc = fresh()
        series = [np.concatenate(s) for s in zip(*(feed(acc, rows) for rows in blocks))]
        for key, val in vars(ref).items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(vars(acc)[key], val), key
            else:
                assert vars(acc)[key] == val, key
        assert np.array_equal(series, ref_series)


# ---------------------------------------------------------------------------
# gain ratio


def test_empirical_gain_ratio_hand_case():
    acc = _acc(n=1, m=1)
    _feed(acc, np.array([1.0, 0.0]), x_next=np.array([2.0]),
          v=np.array([1.0]), w=np.array([1.0]), gamma=4.0)
    # 2^4 / (1 + 1 + 1) = 16/3
    assert metrics.empirical_gain_ratio(acc) == pytest.approx(16.0 / 3.0)


# ---------------------------------------------------------------------------
# eta_default


def test_eta_default_reference_values():
    # b = 1/8, gamma = 10: interval (0.125, 2*8/120) = (0.125, 0.13333...)
    assert metrics.eta_default(0.125, 10.0) == pytest.approx(0.1291666666666667)
    # larger gamma widens the interval and shifts the midpoint down
    assert metrics.eta_default(0.01, 10.0) == pytest.approx(0.5 * (0.08 / 8 + 2 * 8 / 120))


def test_eta_default_empty_interval_fails():
    with pytest.raises(ValueError):
        metrics.eta_default(0.125, 4.0)  # (0.5, 1/6) is empty
    with pytest.raises(ValueError):
        metrics.eta_default(0.125, 2.0)


# ---------------------------------------------------------------------------
# offline recomputation


def test_offline_recompute_matches_online():
    # rebuild J_t and lambda_t from the logged arrays of a real run
    import json

    from nadac import cli, config as cfgmod, simulate

    with open(cli.preset_path("opinion")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 300
    ro = cfgmod.validate_config(cfg)
    rec = simulate.run_closed_loop(
        ro.plant, ro.pset, ro.mech, ro.probe, ro.noise, 300, ro.seed
    )
    # offline: replay x, x_star, u, u_star through a fresh accumulator
    off = np.cumsum(
        np.sum((rec.x[:300] - rec.x_star[:300]) ** 2, axis=1)
        + np.sum((rec.u[:300] - rec.u_star[:300]) ** 2, axis=1)
    ) / np.arange(1, 301)
    np.testing.assert_allclose(off, rec.j_t, atol=1e-9)
    acc = metrics.MetricAccumulator(n=ro.plant.n, m=ro.plant.m)
    for t in range(300):
        phi = np.concatenate([rec.x[t], rec.u[t]])
        acc.update(phi, rec.x[t], rec.x[t + 1], rec.v[t], rec.w[t],
                   _diag(), ro.plant.link)
    assert metrics.lambda_min_normalized(acc) == pytest.approx(
        rec.lambda_t[299], abs=1e-9
    )
