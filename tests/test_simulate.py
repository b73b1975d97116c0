"""Plant stepping, noise streams, and the closed-loop engine."""

import copy
import json

import numpy as np
import pytest

from nadac import cli, config as cfgmod
from nadac import control, estimator as est, maps, simulate


def _identity_plant(a_gain=0.5, n=2):
    theta = np.vstack([(a_gain * np.eye(n)).T, np.eye(n).T])
    return simulate.PlantSpec(
        theta_star=theta, link=maps.Identity(dim=n), n=n, m=n, x0=np.zeros(n)
    )


# ---------------------------------------------------------------------------
# plant_step


def test_plant_step_pure_noise():
    plant = simulate.PlantSpec(
        theta_star=np.zeros((4, 2)), link=maps.Identity(dim=2), n=2, m=2, x0=np.zeros(2)
    )
    w = np.array([0.3, -0.2])
    np.testing.assert_array_equal(
        simulate.plant_step(plant, np.ones(2), np.ones(2), w), w
    )


def test_plant_step_tanh_equilibrium_at_zero():
    theta = np.zeros((5, 4))
    plant = simulate.PlantSpec(
        theta_star=theta, link=maps.ScaledTanh(dim=4, a=2.0), n=4, m=1, x0=np.zeros(4)
    )
    out = simulate.plant_step(plant, np.zeros(4), np.zeros(1), np.zeros(4))
    np.testing.assert_array_equal(out, np.zeros(4))


def test_plant_step_smoothed_clamp_midpoint():
    # drive the pre-activation to (N/2, N/2); the clamp mean is exact there
    a = np.array([[3.0, 1.5], [1.5, 3.0]])
    b = np.array([[-0.3, 0.0, -0.15, -1.0, 0.0], [0.0, -0.3, -0.15, 0.0, -1.0]])
    theta = np.vstack([a.T, b.T])
    plant = simulate.PlantSpec(
        theta_star=theta, link=maps.SmoothedClamp(dim=2, N=10.0, sigma=1.0),
        n=2, m=5, x0=np.zeros(2),
    )
    x = np.array([10.0, 10.0])
    u = np.array([0.0, 0.0, 0.0, 40.0, 40.0])  # A x + B u = (5, 5)
    out = simulate.plant_step(plant, x, u, np.zeros(2))
    np.testing.assert_allclose(out, [5.0, 5.0], atol=1e-12)


# ---------------------------------------------------------------------------
# noise


def test_noise_uniform_moments():
    spec = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.1)
    rng = np.random.default_rng(0)
    samp = np.array([simulate.noise_sample(spec, rng) for _ in range(200_000)])
    sd = 0.1 / np.sqrt(3.0)
    assert np.abs(samp.mean(axis=0)).max() < 4.0 * sd / np.sqrt(200_000)
    np.testing.assert_allclose(samp.var(axis=0), [0.01 / 3] * 2, rtol=0.02)


def test_noise_truncation_bound():
    spec = simulate.NoiseSpec(kind="truncated_gaussian", n=3, sigma=5.0, trunc=20.0)
    rng = np.random.default_rng(1)
    samp = np.array([simulate.noise_sample(spec, rng) for _ in range(50_000)])
    assert np.abs(samp).max() <= 20.0
    assert abs(samp.mean()) < 0.1  # clipping is symmetric, mean stays zero


def test_noise_determinism():
    spec = simulate.NoiseSpec(kind="gaussian", n=2, sigma=1.0)
    a = [simulate.noise_sample(spec, np.random.default_rng(9)) for _ in range(10)]
    b = [simulate.noise_sample(spec, np.random.default_rng(9)) for _ in range(10)]
    np.testing.assert_array_equal(np.array(a), np.array(b))


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        simulate.NoiseSpec(kind="levy", n=2)
    with pytest.raises(ValueError):
        simulate.NoiseSpec(kind="truncated_gaussian", n=2, trunc=np.inf)


def test_spawn_streams_are_independent_and_stable():
    streams = simulate.spawn_streams(42)
    assert set(streams) == {"noise", "probe", "policy", "test"}
    again = simulate.spawn_streams(42)
    a = streams["noise"].standard_normal(5)
    b = again["noise"].standard_normal(5)
    np.testing.assert_array_equal(a, b)
    # consuming the probe stream must not perturb the noise stream
    streams2 = simulate.spawn_streams(42)
    streams2["probe"].standard_normal(1000)
    np.testing.assert_array_equal(a, streams2["noise"].standard_normal(5))


# ---------------------------------------------------------------------------
# closed loop


def _null_policy(m, n):
    return control.CustomPolicy(fn=lambda theta, x: np.zeros(m), m=m)


def _run(plant, pset, mech, probe, noise, T, seed, **kw):
    return simulate.run_closed_loop(plant, pset, mech, probe, noise, T, seed, **kw)


def test_certainty_equivalence_zero_noise_tracks_exactly():
    # theta_hat0 = theta*, no probe, no noise: the adaptive loop equals the
    # reference trajectory step for step and the tracking error is zero
    plant = _identity_plant(a_gain=0.5)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    mech = control.RiccatiFeedback(Q=np.eye(2), R=np.eye(2))
    probe = control.ProbingSignal(decay_b=0.125, dim=2, bound_eps=0.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.0)
    plant = simulate.PlantSpec(
        theta_star=plant.theta_star, link=plant.link, n=2, m=2, x0=np.array([1.0, -2.0])
    )
    rec = _run(plant, pset, mech, probe, noise, 200, 0, theta0=plant.theta_star)
    np.testing.assert_allclose(rec.x, rec.x_star, atol=1e-12)
    np.testing.assert_allclose(rec.u, rec.u_star, atol=1e-12)
    assert rec.j_t[-1] == pytest.approx(0.0, abs=1e-20)


def test_reference_and_adaptive_share_noise_and_log_consistently():
    plant = _identity_plant(a_gain=0.3)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    mech = _null_policy(2, 2)
    probe = control.ProbingSignal(decay_b=0.125, dim=2)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.2)
    rec = _run(plant, pset, mech, probe, noise, 100, 7)
    for t in range(100):
        # both logged trajectories advance with the logged w_t
        np.testing.assert_allclose(
            rec.x[t + 1],
            simulate.plant_step(plant, rec.x[t], rec.u[t], rec.w[t]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            rec.x_star[t + 1],
            simulate.plant_step(plant, rec.x_star[t], rec.u_star[t], rec.w[t]),
            atol=1e-12,
        )


def test_probe_toggle_keeps_noise_realization():
    plant = _identity_plant(a_gain=0.3)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.2)
    on = _run(plant, pset, _null_policy(2, 2),
              control.ProbingSignal(decay_b=0.0, dim=2), noise, 50, 3)
    off = _run(plant, pset, _null_policy(2, 2),
               control.ProbingSignal(decay_b=0.0, dim=2, bound_eps=0.0), noise, 50, 3)
    np.testing.assert_array_equal(on.w, off.w)
    assert not np.allclose(on.x, off.x)


def test_run_determinism_bit_exact():
    plant = _identity_plant(a_gain=0.4)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    mech = _null_policy(2, 2)
    probe = control.ProbingSignal(decay_b=0.125, dim=2)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.2)
    a = _run(plant, pset, mech, probe, noise, 200, 11)
    b = _run(plant, pset, mech, probe, noise, 200, 11)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.param_err, b.param_err)
    np.testing.assert_array_equal(a.v_lyap, b.v_lyap)


def test_divergence_guard_aborts_with_partial_record():
    plant = _identity_plant(a_gain=2.0)  # unstable, null policy
    plant = simulate.PlantSpec(
        theta_star=plant.theta_star, link=plant.link, n=2, m=2, x0=np.array([1.0, 1.0])
    )
    pset = est.FrobeniusBall(5.0, rho_eps=0.9)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.0)
    with pytest.raises(simulate.RunAbort) as exc:
        _run(plant, pset, _null_policy(2, 2),
             control.ProbingSignal(decay_b=0.0, dim=2, bound_eps=0.0),
             noise, 500, 0, divergence_ceiling=1e3)
    assert 0 < exc.value.step < 500
    assert exc.value.record is not None
    assert exc.value.record.steps_completed == exc.value.step


def test_abort_mid_block_keeps_the_rows_before_it(monkeypatch):
    # step 150 lies inside the metrics block of steps 101..200; the rows
    # before it are absorbed before the abort and match an unaborted run
    plant = _identity_plant(a_gain=0.4)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    probe = control.ProbingSignal(decay_b=0.125, dim=2)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.2)
    full = _run(plant, pset, _null_policy(2, 2), probe, noise, 300, 11)

    real, calls = est.estimator_step, []

    def fail_at_step_150(*args):
        calls.append(None)
        if len(calls) == 151:
            raise est.NumericalAbort("injected")
        return real(*args)

    monkeypatch.setattr(est, "estimator_step", fail_at_step_150)
    with pytest.raises(simulate.RunAbort) as exc:
        _run(plant, pset, _null_policy(2, 2), probe, noise, 300, 11)
    rec = exc.value.record
    assert exc.value.step == rec.steps_completed == 150
    assert rec.acc.steps == 150
    for attr in ("lambda_t", "v_lyap", "j_t"):
        assert np.array_equal(getattr(rec, attr)[:150], getattr(full, attr)[:150]), attr
        assert np.isnan(getattr(rec, attr)[150:]).all(), attr


def test_theta_star_must_fit_the_shrunken_set():
    plant = _identity_plant(a_gain=0.5)
    pset = est.FrobeniusBall(1.0, rho_eps=0.5)  # ||theta*|| > 0.5
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.1)
    with pytest.raises(ValueError):
        _run(plant, pset, _null_policy(2, 2),
             control.ProbingSignal(decay_b=0.0, dim=2), noise, 10, 0)


def test_gaussian_noise_rejected_with_bounded_link():
    theta = np.zeros((5, 4))
    plant = simulate.PlantSpec(
        theta_star=theta, link=maps.ScaledTanh(dim=4, a=2.0), n=4, m=1, x0=np.zeros(4)
    )
    pset = est.FrobeniusBall(5.0)
    noise = simulate.NoiseSpec(kind="gaussian", n=4, sigma=1.0)
    with pytest.raises(ValueError):
        _run(plant, pset, _null_policy(1, 4),
             control.ProbingSignal(decay_b=0.0, dim=1), noise, 10, 0)


def test_reference_trajectory_forgets_initial_condition():
    # two reference-style rollouts from nearby starts on a shared noise
    # stream contract toward each other (geometric forgetting)
    import json
    from nadac import cli, config as cfgmod

    with open(cli.preset_path("opinion")) as fh:
        ro = cfgmod.validate_config(json.load(fh))
    rng = np.random.default_rng(123)
    x_a = ro.plant.x0.copy()
    x_b = x_a + 0.1 * rng.standard_normal(ro.plant.n)
    d0 = np.linalg.norm(x_a - x_b)
    noise_rng = simulate.spawn_streams(0)["noise"]
    for _ in range(200):
        w = simulate.noise_sample(ro.noise, noise_rng)
        u_a = control.policy_eval(ro.mech, ro.plant.theta_star, x_a)
        u_b = control.policy_eval(ro.mech, ro.plant.theta_star, x_b)
        x_a = simulate.plant_step(ro.plant, x_a, u_a, w)
        x_b = simulate.plant_step(ro.plant, x_b, u_b, w)
    d_end = np.linalg.norm(x_a - x_b)
    assert d_end < 1e-3 * d0
    rho = (d_end / d0) ** (1.0 / 200.0)
    assert rho < 1.0


# ---------------------------------------------------------------------------
# open loop


def test_open_loop_zero_input_stays_bounded():
    theta = np.zeros((5, 4))
    theta[:4] = (0.7 * np.eye(4)).T
    plant = simulate.PlantSpec(
        theta_star=theta, link=maps.ScaledTanh(dim=4, a=2.0), n=4, m=1,
        x0=np.array([1.0, 1.0, -1.0, -1.0]),
    )
    pset = est.FrobeniusBall(5.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=4, half_width=0.1)
    rec = simulate.run_open_loop_id(plant, pset, "zero", noise, 500, 1)
    assert np.nanmax(np.abs(rec.x)) <= 2.0 + 0.1 + 1e-12


def test_open_loop_excitation_grows_lambda_linearly():
    theta_star = np.array([[0.5], [0.3]])
    plant = simulate.PlantSpec(
        theta_star=theta_star, link=maps.Identity(dim=1), n=1, m=1, x0=np.zeros(1)
    )
    pset = est.FrobeniusBall(2.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=1, half_width=0.1)
    rec = simulate.run_open_loop_id(plant, pset, ("iid_uniform", 1.0), noise, 4_000, 2)
    lam_half, lam_full = rec.lambda_t[1_999], rec.lambda_t[3_999]
    assert lam_full > 0
    assert lam_full / lam_half == pytest.approx(2.0, rel=0.25)


def test_open_loop_rank_deficient_input_stalls_lambda_but_settles():
    # x0 = 0, zero noise, zero input: the regressor never leaves {0}
    theta_star = np.array([[0.5], [0.3]])
    plant = simulate.PlantSpec(
        theta_star=theta_star, link=maps.Identity(dim=1), n=1, m=1, x0=np.zeros(1)
    )
    pset = est.FrobeniusBall(2.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=1, half_width=0.0)
    rec = simulate.run_open_loop_id(plant, pset, "zero", noise, 200, 0)
    assert rec.lambda_t[-1] == 0.0
    assert rec.param_err[-1] == rec.param_err[0]  # estimate settled immediately


def test_open_loop_state_feedback_policy():
    theta_star = np.array([[0.5], [0.3]])
    plant = simulate.PlantSpec(
        theta_star=theta_star, link=maps.Identity(dim=1), n=1, m=1, x0=np.array([1.0])
    )
    pset = est.FrobeniusBall(2.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=1, half_width=0.1)
    K = np.array([[-0.4]])
    rec = simulate.run_open_loop_id(plant, pset, ("state_feedback", K), noise, 100, 3)
    np.testing.assert_allclose(rec.u[:100], rec.x[:100] @ K.T, atol=1e-12)


def _identification_plant():
    theta_star = np.array([[0.5], [0.3]])
    return simulate.PlantSpec(
        theta_star=theta_star, link=maps.Identity(dim=1), n=1, m=1, x0=np.array([1.0])
    )


@pytest.mark.parametrize("input_policy", [
    "zero", ("iid_uniform", 1.0), ("state_feedback", np.array([[-0.4]])),
], ids=["zero", "iid_uniform", "state_feedback"])
def test_open_loop_record_has_no_reference(input_policy):
    noise = simulate.NoiseSpec(kind="uniform_cube", n=1, half_width=0.1)
    rec = simulate.run_open_loop_id(
        _identification_plant(), est.FrobeniusBall(2.0), input_policy, noise, 50, 4
    )
    assert np.isnan(rec.x_star).all()
    assert np.isnan(rec.u_star).all()
    assert np.isnan(rec.j_t).all()
    assert (rec.v == 0.0).all()
    assert np.isfinite(rec.x).all() and np.isfinite(rec.u).all()


@pytest.mark.parametrize("input_policy", [
    ("state_feedback", np.array([[-0.4]])),
    ("iid_uniform", 1.0),
    None,  # closed loop: the reference trajectory rides the same call
], ids=["state_feedback", "iid_uniform", "closed_loop"])
def test_plant_step_calls_per_step(monkeypatch, input_policy):
    real, calls = simulate.plant_step, []

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(simulate, "plant_step", counting)
    plant = _identification_plant()
    pset = est.FrobeniusBall(2.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=1, half_width=0.1)
    if input_policy is None:
        _run(plant, pset, _null_policy(1, 1), control.ProbingSignal(decay_b=0.125, dim=1),
             noise, 40, 5)
    else:
        simulate.run_open_loop_id(plant, pset, input_policy, noise, 40, 5)
    assert len(calls) == 40


@pytest.mark.parametrize("input_policy", [
    ("state_feedback", np.array([[-0.4]])),
    ("iid_uniform", 1.0),
    None,
], ids=["state_feedback", "iid_uniform", "closed_loop"])
def test_link_eval_calls_per_step(monkeypatch, input_policy):
    # per step the plant step (with the reference, if any) and the
    # estimator's prediction f(theta_hat^T phi), which the metrics reuse; per
    # metric block the metrics' f(theta*^T phi).  40 steps at the eig stride
    # of 100 make two blocks: step 0, then steps 1 .. 39
    real, calls = maps.Identity.eval, []

    def counting(self, z):
        calls.append(None)
        return real(self, z)

    monkeypatch.setattr(maps.Identity, "eval", counting)
    plant = _identification_plant()
    pset = est.FrobeniusBall(2.0)
    noise = simulate.NoiseSpec(kind="uniform_cube", n=1, half_width=0.1)
    if input_policy is None:
        _run(plant, pset, _null_policy(1, 1), control.ProbingSignal(decay_b=0.125, dim=1),
             noise, 40, 5)
    else:
        simulate.run_open_loop_id(plant, pset, input_policy, noise, 40, 5)
    assert len(calls) == 2 * 40 + 2


# ---------------------------------------------------------------------------
# record plumbing


def test_csv_header_order_and_write(tmp_path):
    plant = _identity_plant(a_gain=0.3)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    rec = _run(plant, pset, _null_policy(2, 2),
               control.ProbingSignal(decay_b=0.0, dim=2),
               simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.1),
               20, 0)
    assert rec.csv_header() == [
        "t", "x0", "x1", "u0", "u1", "v0", "v1", "w0", "w1",
        "xstar0", "xstar1", "ustar0", "ustar1",
        "param_err", "J_t", "lambda_t", "V_t", "d_t", "mu_t", "a_t", "projected",
    ]
    out = tmp_path / "run.csv"
    rec.write_csv(out, stride=2)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 10
    assert lines[0].startswith("t,x0")
    # floats round-trip exactly through repr
    first = lines[1].split(",")
    assert float(first[1]) == rec.x[0, 0]


def _reference_csv(rec, stride=1):
    # plain writer: repr of every float, flags as 0/1, one row per stride
    lines = [",".join(rec.csv_header())]
    for t in range(0, rec.steps_completed, stride):
        row = [repr(t)]
        for attr, _, _, _ in simulate.COLUMNS:
            values = np.atleast_1d(getattr(rec, attr)[t])
            if values.dtype == bool:
                row += ["1" if flag else "0" for flag in values]
            else:
                row += [repr(float(z)) for z in values]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _projected_record():
    rng = np.random.default_rng(17)
    rec = simulate.RunRecord(n=2, m=3, horizon=11)
    for attr, _, _, _ in simulate.COLUMNS:
        arr = getattr(rec, attr)
        if arr.dtype == bool:
            arr[[1, 3, 4, 9]] = True
        else:
            arr[...] = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-9, 9, arr.shape)
    rec.j_t[2] = np.nan
    rec.x[5, 1] = -0.0
    rec.steps_completed = 11
    return rec


def _truncated_record():
    plant = simulate.PlantSpec(
        theta_star=_identity_plant(a_gain=2.0).theta_star, link=maps.Identity(dim=2),
        n=2, m=2, x0=np.array([1.0, 1.0]),
    )
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.1)
    with pytest.raises(simulate.RunAbort) as exc:
        _run(plant, est.FrobeniusBall(5.0, rho_eps=0.9), _null_policy(2, 2),
             control.ProbingSignal(decay_b=0.0, dim=2), noise, 500, 0,
             divergence_ceiling=1e3)
    return exc.value.record


def _empty_record():
    return simulate.RunRecord(n=2, m=2, horizon=5)  # aborted at step 0


@pytest.mark.parametrize("make_record, stride", [
    (_projected_record, 1),
    (_projected_record, 3),
    (_truncated_record, 1),
    (_truncated_record, 3),
    (_empty_record, 1),
], ids=["projected-1", "projected-3", "truncated-1", "truncated-3", "empty"])
def test_write_csv_matches_reference_writer(tmp_path, make_record, stride):
    rec = make_record()
    out = tmp_path / "run.csv"
    rec.write_csv(out, stride=stride)
    assert out.read_text() == _reference_csv(rec, stride)


def test_summary_fields():
    plant = _identity_plant(a_gain=0.3)
    pset = est.FrobeniusBall(3.0, rho_eps=0.9)
    rec = _run(plant, pset, _null_policy(2, 2),
               control.ProbingSignal(decay_b=0.0, dim=2),
               simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.1),
               50, 0)
    s = rec.summary()
    assert s["steps"] == 50
    assert s["final_param_err"] == pytest.approx(rec.param_err[-1])
    assert "prediction_regret" in s


# ---------------------------------------------------------------------------
# lockstep batches: every run of a batch gives the bytes it gives alone


def _record_bytes(rec, tmp_path):
    out = tmp_path / "run.csv"
    rec.write_csv(out)
    return out.read_bytes()


def _assert_same_run(solo, batched, tmp_path):
    assert _record_bytes(batched, tmp_path) == _record_bytes(solo, tmp_path)
    # compared as text: exact for every float, and NaN equals NaN
    assert json.dumps(batched.summary(), sort_keys=True) == json.dumps(
        solo.summary(), sort_keys=True
    )


def _preset(name, horizon):
    with open(cli.preset_path(name)) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = horizon
    return cfg


def _live_riccati_cfg(horizon):
    return {
        "mode": "closed_loop",
        "plant": {
            "n": 2, "m": 2, "link": {"kind": "leaky_relu", "slope": 0.3},
            "theta_star": [[0.6, 0.2], [0.3, 0.5], [-1.0, 0.0], [0.0, -1.0]],
        },
        "parameter_set": {"kind": "frobenius_ball", "radius": 5.0, "rho_eps": 0.5},
        "policy": {"kind": "riccati_feedback", "Q": [[1.0, 0.0], [0.0, 1.0]],
                   "R": [[1.0, 0.0], [0.0, 1.0]]},
        "probe": {"b": 0.125, "half_width": 1.0},
        "noise": {"kind": "uniform_cube", "half_width": 0.1},
        "horizon": horizon,
    }


def _tight_block_cfg(horizon):
    # a block set whose A-ball the estimate presses against: it projects
    cfg = _live_riccati_cfg(horizon)
    cfg["parameter_set"] = {"kind": "block_operator_balls", "radius_a": 0.82,
                            "radius_b": 1.02, "rho_eps": 1.0}
    cfg["estimator"] = {"theta0": [[0.82, 0.0], [0.0, 0.0], [-1.02, 0.0], [0.0, 0.0]]}
    return cfg


def _open_loop_iid_cfg(horizon):
    cfg = _preset("opinion", horizon)
    cfg["mode"] = "open_loop"
    cfg["input_policy"] = {"kind": "iid_uniform", "half_width": 1.0}
    del cfg["policy"], cfg["probe"]
    return cfg


def _variants(cfg, **fields):
    """One config per value of each listed field (dotted path -> values)."""
    out = []
    for path, values in fields.items():
        for value in values:
            c = copy.deepcopy(cfg)
            if path == "sigma":
                cli._apply_axis(c, "sigma", value[0])
                c["seed"] = value[1]
            elif path == "seed":
                c["seed"] = value
            else:
                cfgmod.set_field(c, path, value)
            out.append(c)
    return out


BATCHES = {
    # blocks of 300 steps cross the eig stride of 100
    "epidemic-sigma": lambda: _variants(
        _preset("epidemic_sigma5", 300), sigma=[(1.0, 22), (5.0, 23), (10.0, 24)]
    ),
    "tight-block-projects": lambda: _variants(_tight_block_cfg(300), seed=[9, 10, 11]),
    "live-riccati": lambda: _variants(_live_riccati_cfg(300), seed=[6, 7, 8]),
    "open-loop-iid": lambda: _variants(
        _open_loop_iid_cfg(300), **{"input_policy.half_width": [0.5, 1.0]}
    ),
}


@pytest.mark.parametrize("name", list(BATCHES))
def test_batch_runs_match_their_solo_runs(tmp_path, name):
    cfgs = BATCHES[name]()
    if name == "open-loop-iid":
        for seed, c in enumerate(cfgs):
            c["seed"] = seed
    batched = cfgmod.build_batch(cfgs)
    for cfg, rec in zip(cfgs, batched):
        _assert_same_run(cfgmod.build_run(cfg), rec, tmp_path)
    if name == "tight-block-projects":
        assert all(rec.summary()["projections"] > 0 for rec in batched)


@pytest.mark.parametrize("seeds", [[6], [6, 7]], ids=["solo", "batch"])
def test_record_columns_do_not_depend_on_the_metrics(seeds):
    # param_err and w are record columns, not metrics: a run without the
    # metrics logs them as a run with them, bit for bit
    def runs(collect_metrics):
        specs = [cfgmod.validate_config(c) for c in _variants(_live_riccati_cfg(300), seed=seeds)]
        return simulate.run_batch(specs, 300, 100, collect_metrics=collect_metrics)

    for on, off in zip(runs(True), runs(False)):
        for attr in ("param_err", "w", "x", "u", "x_star", "d_t"):
            assert np.array_equal(getattr(on, attr), getattr(off, attr)), attr
        assert not np.isnan(off.param_err).any()
        assert np.isnan(off.v_lyap).all()


def test_batch_steps_advance_all_runs_at_once(monkeypatch):
    # a batch runs its runs alone only when one of its steps raises: then
    # _run is called again for each run
    loops = []
    real = simulate._run
    monkeypatch.setattr(simulate, "_run", lambda *args: loops.append(None) or real(*args))
    calls = []
    real_step = est.estimator_step
    monkeypatch.setattr(
        est, "estimator_step", lambda *args: calls.append(None) or real_step(*args)
    )
    for name in BATCHES:
        calls.clear()
        loops.clear()
        cfgs = BATCHES[name]()
        cfgmod.build_batch(cfgs)
        assert len(calls) == cfgs[0]["horizon"], name
        assert len(loops) == 1, name


def test_rerun_of_one_spec_gives_the_same_bytes(tmp_path):
    # a run leaves its spec's Riccati cache as it found it, so running the
    # same validated spec again gives the same bits
    ro = cfgmod.validate_config(_tight_block_cfg(300) | {"seed": 5})
    (first,) = simulate.run_batch([ro], 300)
    first_bytes, first_summary = _record_bytes(first, tmp_path), first.summary()
    (second,) = simulate.run_batch([ro], 300)
    assert _record_bytes(second, tmp_path) == first_bytes
    assert json.dumps(second.summary(), sort_keys=True) == json.dumps(
        first_summary, sort_keys=True
    )


def _divergent_specs(ceilings):
    plant = simulate.PlantSpec(
        theta_star=_identity_plant(a_gain=1.05).theta_star, link=maps.Identity(dim=2),
        n=2, m=2, x0=np.array([1.0, 1.0]),
    )
    noise = simulate.NoiseSpec(kind="uniform_cube", n=2, half_width=0.2)
    return [
        simulate.RunSpec(
            plant, est.FrobeniusBall(5.0, rho_eps=0.9), noise, seed, mech=_null_policy(2, 2),
            probe=control.ProbingSignal(decay_b=0.125, dim=2), divergence_ceiling=ceiling,
        )
        for seed, ceiling in enumerate(ceilings)
    ]


@pytest.mark.parametrize("ceilings", [
    [1e9, 400.0, 1e9],  # two runs go on in the batch
    [400.0, 1e9],  # one run goes on, without a run axis
    [400.0, 300.0],  # all abort, at different steps
], ids=["middle", "first-of-two", "all"])
def test_batch_run_that_aborts_leaves_as_alone(tmp_path, ceilings):
    # a ceiling of 300 or 400 is crossed inside the metrics block of steps
    # 101..200, 1e9 never
    batched = simulate.run_batch(_divergent_specs(ceilings), 300)
    for spec, result in zip(_divergent_specs(ceilings), batched):
        try:
            solo = simulate.run_closed_loop(
                spec.plant, spec.pset, spec.mech, spec.probe, spec.noise, 300, spec.seed,
                divergence_ceiling=spec.divergence_ceiling,
            )
        except simulate.RunAbort as exc:
            solo = exc
        if isinstance(solo, simulate.RunAbort):
            assert isinstance(result, simulate.RunAbort)
            assert 101 < solo.step < 200
            assert (str(result), result.step) == (str(solo), solo.step)
            assert result.record.acc.steps == solo.record.acc.steps == solo.step
            for attr in ("lambda_t", "v_lyap", "j_t", "x", "u", "d_t"):
                assert np.array_equal(
                    getattr(result.record, attr), getattr(solo.record, attr), equal_nan=True
                ), attr
            _assert_same_run(solo.record, result.record, tmp_path)
        else:
            _assert_same_run(solo, result, tmp_path)


def _late_crossing_ceiling(rec, after):
    """A ceiling that the run of ``rec`` first crosses at a step past
    ``after``: the midpoint between the running maximum of the state norms
    and the first new maximum past that step."""
    norms = est.run_norms(rec.x[1:], 1)
    peak = np.maximum.accumulate(norms)
    t = after + 1 + int(np.argmax(norms[after + 1 :] > peak[after:-1]))
    assert norms[t] > peak[t - 1]
    return 0.5 * (peak[t - 1] + norms[t]), t


def test_riccati_batch_run_that_aborts_late_leaves_as_alone(tmp_path):
    # the batch's steps warm each run's Riccati cache before the middle run
    # crosses its ceiling; every run still gives its solo bytes, so what the
    # batch ran first leaks into no run
    horizon, seeds = 400, [100, 4, 101]

    def specs(ceiling=None):
        out = [cfgmod.validate_config(c) for c in _variants(_tight_block_cfg(horizon), seed=seeds)]
        if ceiling is not None:
            out[1].divergence_ceiling = ceiling
        return out

    ceiling, cross = _late_crossing_ceiling(simulate.run_batch(specs()[1:2], horizon)[0], 60)
    batched = simulate.run_batch(specs(ceiling), horizon)
    solos = [simulate.run_batch([spec], horizon)[0] for spec in specs(ceiling)]
    assert isinstance(solos[1], simulate.RunAbort) and solos[1].step == cross
    for solo, result in zip(solos, batched):
        if isinstance(solo, simulate.RunAbort):
            assert isinstance(result, simulate.RunAbort)
            assert (str(result), result.step) == (str(solo), solo.step)
            _assert_same_run(solo.record, result.record, tmp_path)
        else:
            _assert_same_run(solo, result, tmp_path)


def test_batch_rejects_runs_of_different_kinds():
    specs = _divergent_specs([1e9, 1e9])
    specs[1].noise = simulate.NoiseSpec(kind="gaussian", n=2)
    with pytest.raises(ValueError, match="batch_key"):
        simulate.run_batch(specs, 10)
