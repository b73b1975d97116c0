"""End-to-end acceptance gate: one test per shipped criterion.

Each test prints a single PASS/FAIL line through conftest.record_criterion;
the block is echoed at the end of the session.  Several long-horizon
statistical criteria are currently red; the checks are implemented at face
value and left failing rather than loosened.
"""

import copy
import json
import math

import numpy as np
import pytest

from nadac import cli, config as cfgmod, control, estimator as est, maps, metrics, simulate
from conftest import record_criterion

SEEDS = [20250824, 1, 2, 3, 4]


def _preset(name, **overrides):
    with open(cli.preset_path(name)) as fh:
        cfg = json.load(fh)
    cfg.update(overrides)
    return cfg


def _opinion_objects(seed=None, horizon=None):
    cfg = _preset("opinion")
    if seed is not None:
        cfg["seed"] = seed
    if horizon is not None:
        cfg["horizon"] = horizon
    return cfgmod.validate_config(cfg)


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="module")
def openloop_run():
    """Open-loop identification on the consensus plant with i.i.d. inputs,
    T = 1e5, recording the per-step prediction-regret contributions and the
    normalized-Gram eigenvalue along the way."""
    ro = _opinion_objects()
    plant, pset, delta = ro.plant, ro.pset, ro.delta
    T = 100_000
    n, m = plant.n, plant.m
    streams = simulate.spawn_streams(ro.seed)
    rng_noise, rng_input = streams["noise"], streams["probe"]
    state = est.new_estimator(np.zeros((n + m, n)), pset, delta, plant.link)
    x = plant.x0.copy()
    gram = np.zeros((n + m, n + m))
    param_err = np.empty(T)
    pred = np.empty(T)
    lam_idx, lam_val, r_val = [], [], []
    for t in range(T):
        u = rng_input.uniform(-1.0, 1.0, size=m)
        w = simulate.noise_sample(ro.noise, rng_noise, n)
        x_next = simulate.plant_step(plant, x, u, w)
        phi = np.concatenate([x, u])
        psi = plant.link.eval(plant.theta_star.T @ phi) - plant.link.eval(
            state.theta_hat.T @ phi
        )
        state, diag = est.estimator_step(state, phi, x_next, plant.link, pset)
        pred[t] = float(psi @ psi) / diag.mu_weight
        param_err[t] = np.linalg.norm(plant.theta_star - state.theta_hat)
        gram += np.outer(phi, phi) / (1.0 + float(phi @ phi))
        if t % 500 == 499:
            lam_idx.append(t)
            lam_val.append(float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0]))
            r_val.append(state.r_accum)
        x = x_next
    return {
        "param_err": param_err,
        "pred": pred,
        "lam_idx": np.array(lam_idx),
        "lam": np.array(lam_val),
        "r": np.array(r_val),
        "delta": delta,
    }


def _build_batch(cfgs):
    """simulate.run_batch of the validated configs, raising the first run's
    exception as build_run would; every run gives the same record as alone."""
    recs = simulate.run_batch([cfgmod.validate_config(c) for c in cfgs])
    for rec in recs:
        if isinstance(rec, Exception):
            raise rec
    return recs


@pytest.fixture(scope="module")
def opinion_runs():
    """Full-horizon consensus closed-loop runs, five seeds, in one batch."""
    recs = _build_batch([_preset("opinion", seed=seed) for seed in SEEDS])
    return dict(zip(SEEDS, recs))


@pytest.fixture(scope="module")
def epidemic_runs():
    """The epidemic runs for sigma in {1, 5, 10}, five seeds each, in one
    batch (the three presets share simulate.batch_key).  Keeps each run's
    final parameter error by sigma, and the record of sigma = 5 at SEEDS[0],
    the preset's own run, copied out of the batch's arrays."""
    sigmas = (1, 5, 10)
    cfgs = [_preset(f"epidemic_sigma{sig}", seed=seed) for sig in sigmas for seed in SEEDS]
    recs = _build_batch(cfgs)
    errors = {
        sig: [float(rec.param_err[-1]) for rec in recs[i * len(SEEDS) : (i + 1) * len(SEEDS)]]
        for i, sig in enumerate(sigmas)
    }
    return errors, copy.deepcopy(recs[sigmas.index(5) * len(SEEDS)])


@pytest.fixture(scope="module")
def epidemic_run(epidemic_runs):
    return epidemic_runs[1]


@pytest.fixture(scope="module")
def sigma_sweep(epidemic_runs):
    """Final parameter error for sigma in {1, 5, 10}, five seeds each."""
    return epidemic_runs[0]


# ---------------------------------------------------------------------------
# 1. algorithm transcription equivalence


def test_criterion_01_transcription_equivalence():
    link = maps.LeakyRelu(slope=0.3)
    pset = est.FrobeniusBall(10.0, rho_eps=0.5)
    theta_star = np.array([[0.8], [0.5]])
    rng = np.random.default_rng(12345)
    delta = 0.5

    state = est.new_estimator(np.zeros((2, 1)), pset, delta, link)
    # independent straight-line transcription of the same recursion
    theta = np.zeros((2, 1))
    P = np.eye(2)
    r = 1.0

    x = np.array([1.0])
    max_dev = 0.0
    for _ in range(50):
        u = rng.uniform(-1.0, 1.0, size=1)
        w = rng.uniform(-0.1, 0.1, size=1)
        phi = np.concatenate([x, u])
        x_next = link.eval(theta_star.T @ phi) + w

        state, _ = est.estimator_step(state, phi, x_next, link, pset)

        r = r + float(phi @ phi)
        c = float(np.linalg.norm(theta.T @ phi)) + 10.0 * float(np.linalg.norm(phi))
        d = 0.5 * 0.3  # leaky-ReLU lower slope
        g = 1.0
        quad = float(phi @ P @ phi)
        mu = (1.0 + math.log(r)) ** (1.0 + delta) + d * g * g * quad
        a = 1.0 / (mu + d * d * quad)
        p_phi = P @ phi
        P1 = P - (a * d * d) * np.outer(p_phi, p_phi)
        P1 = 0.5 * (P1 + P1.T)
        resid = x_next - link.eval(theta.T @ phi)
        theta = theta + (d / mu) * np.outer(P1 @ phi, resid)
        P = P1

        max_dev = max(
            max_dev,
            float(np.max(np.abs(state.theta_hat - theta))),
            float(np.max(np.abs(state.p_matrix - P))),
            abs(state.r_accum - r),
        )
        assert c >= 0.0  # transcription sanity

    ok = max_dev <= 1e-12
    record_criterion(1, "transcription-equivalence", ok, f"max deviation {max_dev:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. Sherman-Morrison invariant


def test_criterion_02_sherman_morrison_invariant():
    ro = _opinion_objects(horizon=10_000)
    rec = simulate.run_closed_loop(
        ro.plant, ro.pset, ro.mech, ro.probe, ro.noise, ro.horizon, ro.seed,
        theta0=ro.theta0, delta=ro.delta,
    )
    # replay the estimator offline; P_{t+1}^{-1} must equal
    # P_t^{-1} + (d_t^2/mu_t) phi phi^T at every step
    state = est.new_estimator(ro.theta0, ro.pset, ro.delta, ro.plant.link)
    p_inv = np.eye(ro.plant.n + ro.plant.m)
    worst = 0.0
    for t in range(10_000):
        phi = np.concatenate([rec.x[t], rec.u[t]])
        state, diag = est.estimator_step(state, phi, rec.x[t + 1], ro.plant.link, ro.pset)
        p_inv = p_inv + (diag.d_gain**2 / diag.mu_weight) * np.outer(phi, phi)
        direct = np.linalg.inv(state.p_matrix)
        worst = max(
            worst,
            float(np.max(np.abs(direct - p_inv)) / np.max(np.abs(p_inv))),
        )
    ok = worst <= 1e-8
    record_criterion(2, "sherman-morrison-invariant", ok, f"max rel deviation {worst:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# 3. projection optimality


def test_criterion_03_projection_optimality():
    rng = np.random.default_rng(99)
    worst_gap = -np.inf
    for trial in range(1_000):
        n, m = (1, 1) if trial % 2 == 0 else (2, 1)
        if trial % 4 < 2:
            pset = est.FrobeniusBall(float(rng.uniform(0.5, 3.0)), rho_eps=0.5)
        else:
            pset = est.BlockOperatorBalls(
                float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)), rho_eps=0.5
            )
        g = rng.standard_normal((n + m, n + m))
        weight = g.T @ g + 0.1 * np.eye(n + m)
        x = rng.standard_normal((n + m, n)) * rng.uniform(1.0, 5.0)

        y = est.project_weighted(x, weight, pset)
        assert pset.contains(y, shrunk=True, tol=1e-8)

        def obj(z):
            d = x - z
            return float(np.trace(d.T @ weight @ d))

        best = np.inf
        for _ in range(300):
            cand = pset.sample(n, m, rng) * pset.rho_eps
            best = min(best, obj(cand))
        # include the radial shrink of x itself when feasible
        scaled = x * 0.999 * pset.rho_eps / max(np.linalg.norm(x) / getattr(pset, "radius", np.inf), 1e-12) if isinstance(pset, est.FrobeniusBall) else None
        if scaled is not None and pset.contains(scaled, shrunk=True):
            best = min(best, obj(scaled))
        worst_gap = max(worst_gap, obj(y) - best)
    ok = worst_gap <= 1e-4
    record_criterion(3, "projection-optimality", ok, f"worst objective gap {worst_gap:.3e}")
    assert ok


# ---------------------------------------------------------------------------
# 4. self-convergence without excitation


def test_criterion_04_self_convergence_zero_input():
    ro = _opinion_objects()
    plant, pset = ro.plant, ro.pset
    T = 100_000
    n, m = plant.n, plant.m
    rng_noise = simulate.spawn_streams(ro.seed)["noise"]
    state = est.new_estimator(np.zeros((n + m, n)), pset, ro.delta, plant.link)
    x = plant.x0.copy()
    max_change = 0.0
    for t in range(T):
        u = np.zeros(m)
        w = simulate.noise_sample(ro.noise, rng_noise, n)
        x_next = simulate.plant_step(plant, x, u, w)
        prev = state.theta_hat
        state, _ = est.estimator_step(
            state, np.concatenate([x, u]), x_next, plant.link, pset
        )
        if t >= int(0.9 * T):
            max_change = max(max_change, float(np.linalg.norm(state.theta_hat - prev)))
        x = x_next
    ok = max_change <= 1e-3
    record_criterion(
        4, "self-convergence-no-excitation", ok,
        f"max step change over last 10% = {max_change:.3e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5/6. consistency and prediction regret under excitation


def test_criterion_05_consistency_under_excitation(openloop_run):
    pe = openloop_run["param_err"]
    ratio = pe[-1] / pe[999]
    probe = pe[openloop_run["lam_idx"]] ** 2 * openloop_run["lam"] / (
        (np.log(openloop_run["r"])) ** (1.0 + openloop_run["delta"])
    )
    half = len(probe) // 2
    med_first, med_last = np.median(probe[:half]), np.median(probe[half:])
    trend_ok = med_last <= 1.5 * med_first
    ok = ratio <= 0.1 and trend_ok
    record_criterion(
        5, "consistency-under-excitation", ok,
        f"param_err ratio {ratio:.3f} (need <= 0.1); probe medians "
        f"{med_first:.3g} -> {med_last:.3g} (need <= 1.5x)",
    )
    assert ok


def test_criterion_06_prediction_regret_plateau(openloop_run):
    pred = openloop_run["pred"]
    total = pred.sum()
    last_half = pred[len(pred) // 2 :].sum()
    frac = last_half / total if total > 0 else 0.0
    ok = frac < 0.10
    record_criterion(
        6, "prediction-regret-plateau", ok,
        f"last-half share {frac:.3f} of total {total:.4g} (need < 0.10)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. closed-loop stability


def test_criterion_07_stability(opinion_runs, epidemic_run):
    details = []
    ok = True
    for name, rec in (("consensus", opinion_runs[20250824]), ("epidemic", epidemic_run)):
        T = rec.steps_completed
        csum = np.cumsum(np.sum(rec.x[1 : T + 1] ** 2, axis=1))
        avg_half = csum[T // 2 - 1] / (T // 2)
        avg_full = csum[T - 1] / T
        ratio = avg_full / avg_half
        ok &= ratio <= 1.2 and T == 100_000
        details.append(f"{name} avg ratio {ratio:.4f}")
    record_criterion(7, "closed-loop-stability", ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 8. closed-loop consistency (5 seeds)


def test_criterion_08_closed_loop_consistency(opinion_runs):
    b, delta = 0.125, 0.5
    eta = metrics.eta_default(b, 10.0)
    expo = 1.0 - 2.0 * b - eta
    ratios, plateau_ok = [], True
    for seed, rec in opinion_runs.items():
        pe = rec.param_err
        ratios.append(pe[-1] / pe[999])
        ts = np.arange(1_000, len(pe), 500, dtype=float)
        probe = pe[ts.astype(int)] ** 2 * ts**expo / np.log(ts) ** (1.0 + delta)
        half = len(probe) // 2
        plateau_ok &= np.median(probe[half:]) <= 1.5 * np.median(probe[:half])
    ok = all(r < 0.2 for r in ratios) and plateau_ok
    record_criterion(
        8, "closed-loop-consistency", ok,
        f"param_err ratios {['%.3f' % r for r in ratios]} (need < 0.2 each); "
        f"rate probe plateau: {plateau_ok}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. tracking


def test_criterion_09_tracking(opinion_runs):
    rec = opinion_runs[20250824]
    j_ratio = rec.j_t[-1] / rec.j_t[999]
    sign = rec.acc.sum_sign_mismatch / (rec.steps_completed * rec.n)
    ok = j_ratio <= 0.3 and sign <= 0.05
    record_criterion(
        9, "tracking-regret", ok,
        f"J ratio {j_ratio:.3f} (need <= 0.3); sign regret {sign:.4f} per agent-step",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. noise-helps ordering


def test_criterion_10_noise_helps_ordering(sigma_sweep):
    med = {s: float(np.median(v)) for s, v in sigma_sweep.items()}
    ok = med[1] > med[5] > med[10]
    record_criterion(
        10, "noise-helps-ordering", ok,
        f"median final param_err: sigma1={med[1]:.4f} sigma5={med[5]:.4f} "
        f"sigma10={med[10]:.4f} (need strictly decreasing)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11. smoothed clamp vs Monte Carlo


def test_criterion_11_smoothed_clamp_monte_carlo():
    N, sigma = 10.0, 5.0
    n_samp, chunks = 10_000_000, 10
    zs = np.linspace(-10.0, 20.0, 31)
    rng = np.random.default_rng(2024)
    s1 = np.zeros_like(zs)
    s2 = np.zeros_like(zs)
    per = n_samp // chunks
    for _ in range(chunks):
        eta = sigma * rng.standard_normal(per)
        for i, z in enumerate(zs):
            c = np.clip(z + eta, 0.0, N)
            s1[i] += c.sum()
            s2[i] += (c * c).sum()
    mean = s1 / n_samp
    se = np.sqrt((s2 / n_samp - mean**2) / n_samp)
    exact = maps.SmoothedClamp(N=N, sigma=sigma).eval(zs)
    dev = np.abs(exact - mean) / np.maximum(se, 1e-300)
    ok = bool(np.all(dev <= 3.0))
    record_criterion(
        11, "smoothed-clamp-oracle", ok, f"max deviation {dev.max():.2f} standard errors"
    )
    assert ok


# ---------------------------------------------------------------------------
# 12. DARE residuals


def test_criterion_12_dare_residuals():
    # scalar case against the quadratic-root oracle
    a, q, r = 2.0, 1.0, 1.0
    roots = np.roots([1.0, r - a * a * r - q, -q * r])
    p_oracle = float(roots[roots > 0][0])
    P = control.solve_dare(np.array([[a]]), np.array([[q]]), np.array([[r]]))
    scalar_err = abs(P[0, 0] - p_oracle)
    scalar_res = control.dare_residual(P, np.array([[a]]), np.array([[q]]), np.array([[r]]))

    cfg = _preset("epidemic_sigma1")
    n = cfg["plant"]["n"]
    A = np.array(cfg["plant"]["theta_star"], dtype=float)[:n].T
    P2 = control.solve_dare(A, np.eye(n), np.eye(n))
    preset_res = control.dare_residual(P2, A, np.eye(n), np.eye(n))

    ok = scalar_err <= 1e-10 and scalar_res <= 1e-10 and preset_res <= 1e-10
    record_criterion(
        12, "dare-residuals", ok,
        f"scalar root err {scalar_err:.2e}, residuals {scalar_res:.2e} / {preset_res:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 13. determinism


def test_criterion_13_determinism(tmp_path):
    cfg = _preset("opinion")
    rec_a = cfgmod.build_run(cfg)
    rec_b = cfgmod.build_run(cfg)
    rec_a.write_csv(tmp_path / "a.csv", stride=int(cfg.get("log_stride", 1)))
    rec_b.write_csv(tmp_path / "b.csv", stride=int(cfg.get("log_stride", 1)))
    ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    record_criterion(13, "determinism", ok, "byte-identical CSV" if ok else "CSV mismatch")
    assert ok
