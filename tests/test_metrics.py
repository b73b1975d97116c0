"""Run diagnostics: excitation, tracking, regret, rate-probe parameters."""

import numpy as np
import pytest

from nadac import estimator as est, maps, metrics


def _acc(n=1, m=1, theta_star=None):
    if theta_star is None:
        theta_star = np.zeros((n + m, n))
    return metrics.MetricAccumulator(theta_star, maps.Identity(), 4.0)


def _feed(acc, phi, x_next=None, v=None, w=None, x_star=None, u_star=None,
          theta_hat=None, d=1.0, mu=1.0, a=1.0):
    """One step as a block of one, laid out as a run record holds it: x and u
    are phi's blocks, the estimate is theta* unless given and the step leaves
    it unchanged, the prediction is f(theta_hat^T phi), and u* is u unless
    given.  Returns update()'s param_err, J_t and V_t."""
    n = acc.theta_star.shape[1]
    m = len(acc.theta_star) - n
    phi = np.asarray(phi, dtype=float)
    x, u = phi[:n], phi[n:]
    theta_hat = acc.theta_star if theta_hat is None else theta_hat
    if x_star is not None:
        x_star = np.array([x_star, x_star])  # the second row, x*_{t+1}, is not read
        u_star = np.array([u if u_star is None else u_star], dtype=float)
    return acc.update(
        np.array([x, np.zeros(n) if x_next is None else x_next], dtype=float), u[None],
        np.zeros((1, m)) if v is None else np.array([v], dtype=float),
        np.zeros((1, n)) if w is None else np.array([w], dtype=float),
        x_star, u_star, np.array([d]), np.array([mu]), np.array([a]),
        np.array([theta_hat, theta_hat]), acc.link.eval(phi.dot(theta_hat))[None],
    )


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
        _feed(acc, rng.standard_normal(3))
        cur = metrics.lambda_min_normalized(acc)
        assert cur >= prev - 1e-12  # adding psd rank-ones never shrinks it
        prev = cur


# ---------------------------------------------------------------------------
# tracking / sign regret


def test_tracking_error_constant_offset():
    acc = _acc(n=1, m=1)
    for _ in range(10):
        _, j_t, _ = _feed(acc, np.array([2.0, 0.5]), x_star=np.array([1.0]),
                          u_star=np.array([0.0]))
    # (2-1)^2 + (0.5-0)^2 per step
    assert j_t[-1] == pytest.approx(1.25)
    assert acc.sum_track_sq / 5 == pytest.approx(2.5)


def test_sign_regret_counts_flips():
    acc = _acc(n=1, m=1)
    _feed(acc, np.array([1.0, 0.0]), x_star=np.array([-1.0]))
    _feed(acc, np.array([1.0, 0.0]), x_star=np.array([1.0]))
    _feed(acc, np.array([0.0, 0.0]), x_star=np.array([1.0]))
    # flip -> |1 - (-1)| = 2, agree -> 0, sgn(0) = 0 -> |0 - 1| = 1
    assert metrics.sign_regret(acc) == pytest.approx(3.0 / 3.0)


# ---------------------------------------------------------------------------
# regret / Lyapunov


def test_prediction_regret_weighted_sum():
    theta_star = np.array([[1.0], [0.0]])
    acc = _acc(n=1, m=1, theta_star=theta_star)
    theta_hat = np.array([[0.5], [0.0]])
    _feed(acc, np.array([2.0, 0.0]), theta_hat=theta_hat, mu=4.0)
    # psi = (1 - 0.5) * 2 = 1, psi^2/mu = 0.25
    assert acc.sum_pred_regret == pytest.approx(0.25)


def test_lyapunov_value_perfect_estimate_is_a_sum():
    theta_star = np.array([[1.0], [0.0]])
    acc = _acc(n=1, m=1, theta_star=theta_star)
    for _ in range(5):
        _, _, v_lyap = _feed(acc, np.array([1.0, 0.0]), theta_hat=theta_star, a=2.0)
    # psi = 0 throughout, V = 0: V_t + sum a||psi||^2 = 0
    assert v_lyap[-1] + acc.sum_a_psi_sq == pytest.approx(0.0)


def test_lyapunov_p_inv_tracks_independent_recursion():
    # p_inv accumulates (d^2/mu) phi phi^T on top of the identity
    acc = _acc(n=1, m=1, theta_star=np.array([[1.0], [0.0]]))
    phi = np.array([3.0, 0.0])
    _, _, v_lyap = _feed(acc, phi, theta_hat=np.zeros((2, 1)), d=0.5, mu=2.0)
    expect = np.eye(2)
    expect[0, 0] += (0.25 / 2.0) * 9.0
    np.testing.assert_allclose(acc.p_inv, expect)
    # V = tr(err^T P^{-1} err) with err = theta* - theta_hat
    assert v_lyap[-1] == pytest.approx(expect[0, 0] * 1.0)


def _reference_step(acc, x, x_next, u, v, w, x_star, u_star, d, mu, a, theta_hat_next,
                    prediction, prediction_star):
    """One step of the accumulator's arithmetic as written per step, with
    ``+=`` on every sum: the reference the block path must reproduce.
    Returns the step's param_err, J_t and V_t; without a reference run
    (x_star None) J_t is NaN."""
    phi = np.concatenate([x, u])
    phi_phi = np.outer(phi, phi)
    acc.gram_normalized += phi_phi / (1.0 + float(phi @ phi))
    acc.sum_v_pow_gamma += est.frobenius_norm(v) ** acc.gamma
    acc.sum_w_pow_gamma += est.frobenius_norm(w) ** acc.gamma
    acc.sum_xnext_pow_gamma += est.frobenius_norm(x_next) ** acc.gamma
    acc.p_inv += (d**2 / mu) * phi_phi
    acc.steps += 1
    j_t = np.nan
    if x_star is not None:
        dx, du = x - x_star, u - u_star
        acc.sum_track_sq += float(dx @ dx)
        acc.sum_track_sq += float(du @ du)
        acc.sum_sign_mismatch += float(np.abs(np.sign(x) - np.sign(x_star)).sum())
        j_t = acc.sum_track_sq / acc.steps
    psi = prediction_star - prediction
    psi_sq = float(psi @ psi)
    acc.sum_pred_regret += psi_sq / mu
    acc.sum_a_psi_sq += a * psi_sq
    err = acc.theta_star - theta_hat_next
    return est.frobenius_norm(err), j_t, float((err.T @ acc.p_inv @ err).trace())


def test_blocks_absorb_exactly_as_single_steps():
    # one random trajectory, with and without a reference run, fed through
    # the per-step reference and to update() as T blocks of one step, in
    # uneven blocks and as one block: every running sum and the returned
    # param_err, J_t and V_t series agree to the bit
    rng = np.random.default_rng(3)
    n, m, T = 3, 2, 600
    theta_star = rng.standard_normal((n + m, n))
    link = maps.ScaledTanh()
    x, u = rng.standard_normal((T + 1, n)), rng.standard_normal((T, m))
    # the record's layout: x, x_star and theta_hat hold T+1 rows, the rest T
    rec = {
        "x": x, "u": u, "v": 0.1 * rng.standard_normal((T, m)),
        "w": 0.1 * rng.standard_normal((T, n)),
        "x_star": x + 0.2 * rng.standard_normal((T + 1, n)),
        "u_star": u + 0.2 * rng.standard_normal((T, m)),
        "d_t": rng.uniform(1e-3, 1.0, T), "mu_t": rng.uniform(1.0, 50.0, T),
        "a_t": rng.uniform(1e-3, 1.0, T),
        "theta_hat": theta_star + 0.3 * rng.standard_normal((T + 1, n + m, n)),
        "prediction": np.tanh(rng.standard_normal((T, n))),
    }
    # f(theta*^T phi) as the block path forms it, one row per step
    prediction_star = link.eval(np.matvec(theta_star.T, np.hstack([x[:-1], u])))
    cuts = np.cumsum([0, 1, 7, 256, T - 264])
    splits = {
        "steps": [(t, t + 1) for t in range(T)],
        "uneven": list(zip(cuts[:-1], cuts[1:])),
        "whole": [(0, T)],
    }

    def feed(acc, start, stop, has_ref):
        blk = {key: val[start : stop + (len(val) > T)] for key, val in rec.items()}
        if not has_ref:
            blk["x_star"] = blk["u_star"] = None
        return acc.update(**blk)

    for has_ref in (True, False):
        ref = metrics.MetricAccumulator(theta_star, link, 10.0)
        ref_series = np.array([
            _reference_step(
                ref, x[t], x[t + 1], u[t], rec["v"][t], rec["w"][t],
                rec["x_star"][t] if has_ref else None, rec["u_star"][t],
                float(rec["d_t"][t]), float(rec["mu_t"][t]), float(rec["a_t"][t]),
                rec["theta_hat"][t + 1], rec["prediction"][t], prediction_star[t],
            )
            for t in range(T)
        ]).T
        assert np.isnan(ref_series[1]).all() != has_ref
        for name, blocks in splits.items():
            acc = metrics.MetricAccumulator(theta_star, link, 10.0)
            series = [np.concatenate(s) for s in zip(*(feed(acc, *b, has_ref) for b in blocks))]
            for key, val in vars(ref).items():
                if isinstance(val, np.ndarray):
                    assert np.array_equal(vars(acc)[key], val), (has_ref, name, key)
                elif key != "link":
                    assert vars(acc)[key] == val, (has_ref, name, key)
            assert np.array_equal(series, ref_series, equal_nan=True), (has_ref, name)


# ---------------------------------------------------------------------------
# gain ratio


def test_empirical_gain_ratio_hand_case():
    acc = _acc(n=1, m=1)
    _feed(acc, np.array([1.0, 0.0]), x_next=np.array([2.0]),
          v=np.array([1.0]), w=np.array([1.0]))
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
    acc = metrics.MetricAccumulator(ro.plant.theta_star, ro.plant.link, ro.gamma)
    thetas = np.array([ro.plant.theta_star] * 2)
    for t in range(300):
        phi = np.concatenate([rec.x[t], rec.u[t]])
        acc.update(rec.x[t : t + 2], rec.u[t : t + 1], rec.v[t : t + 1], rec.w[t : t + 1],
                   None, None, np.ones(1), np.ones(1), np.ones(1), thetas,
                   ro.plant.link.eval(phi.dot(ro.plant.theta_star))[None])
    assert metrics.lambda_min_normalized(acc) == pytest.approx(
        rec.lambda_t[299], abs=1e-9
    )
