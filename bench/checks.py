"""Correctness checks of a nadac run, recomputed apart from the program.

Each check reads what the command wrote (run.csv, run_manifest.json,
sweep.csv) and recomputes it from the config alone: the benchmark's own
link formulas, a straight-line transcription of the WLS recursion, the
tracking sums and scipy's Riccati solver.  A failed check raises
CheckFailure.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg
from scipy.special import ndtr

ALPHA_FLOOR = 1e-300
PLANT_TOL = 1e-10  # absolute, on states of size <= 20
TRANSCRIPTION_TOL = 1e-9  # absolute, on param_err and the step weights


class CheckFailure(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# links, written independently of nadac.maps


class Link:
    """f, and the derivative bounds alpha(c) <= f' <= beta(c) on [-c, c]."""

    def __init__(self, cfg):
        kind = cfg["kind"]
        if kind == "scaled_tanh":
            a = float(cfg["a"])
            self.f = lambda z: a * np.tanh(z)
            # a * sech(c)^2; cosh overflows to inf for huge c, giving 0
            self._alpha = lambda c: a / np.cosh(c) ** 2
            self.beta = lambda c: a
        elif kind == "leaky_relu":
            s = float(cfg["slope"])
            self.f = lambda z: np.where(z >= 0.0, z, s * z)
            self._alpha = lambda c: s
            self.beta = lambda c: 1.0
        elif kind == "smoothed_clamp":
            N, sig = float(cfg["N"]), float(cfg["sigma"])

            def ramp(y):  # E[max(y + eta, 0)], eta ~ N(0, sig^2)
                return y * ndtr(y / sig) + sig * np.exp(-0.5 * (y / sig) ** 2) / math.sqrt(
                    2.0 * math.pi
                )

            def deriv(z):
                return float(ndtr(z / sig) - ndtr((z - N) / sig))

            # clamp(y, 0, N) = max(y, 0) - max(y - N, 0)
            self.f = lambda z: ramp(z) - ramp(z - N)
            self._alpha = lambda c: min(deriv(-c), deriv(c))
            self.beta = lambda c: max(
                [deriv(-c), deriv(c)] + ([deriv(0.5 * N)] if c >= 0.5 * N else [])
            )
        else:
            raise CheckFailure(f"no reference formula for link kind {kind!r}")

    def alpha(self, c):
        with np.errstate(over="ignore"):
            return max(float(self._alpha(c)), ALPHA_FLOOR)


# ---------------------------------------------------------------------------
# run.csv


def csv_header(n, m):
    cols = ["t"]
    for prefix, k in (("x", n), ("u", m), ("v", m), ("w", n), ("xstar", n), ("ustar", m)):
        cols += [f"{prefix}{i}" for i in range(k)]
    return cols + ["param_err", "J_t", "lambda_t", "V_t", "d_t", "mu_t", "a_t", "projected"]


def read_run_csv(path, n, m, rows):
    """Parse run.csv; every float must print back to the exact text read."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = csv_header(n, m)
    require(lines[0].split(",") == header, f"{path}: unexpected header {lines[0][:80]!r}")
    require(len(lines) - 1 == rows, f"{path}: {len(lines) - 1} rows, expected {rows}")
    table = np.empty((rows, len(header)))
    for t, line in enumerate(lines[1:]):
        fields = line.split(",")
        require(len(fields) == len(header), f"{path}: row {t} has {len(fields)} fields")
        require(fields[0] == str(t), f"{path}: row {t} is labelled {fields[0]!r}")
        require(fields[-1] in ("0", "1"), f"{path}: row {t} projected={fields[-1]!r}")
        for j, text in enumerate(fields[1:-1], start=1):
            value = float(text)
            require(repr(value) == text, f"{path}: row {t} value {text!r} does not round-trip")
            table[t, j] = value
        table[t, 0], table[t, -1] = t, int(fields[-1])
    cols = {}
    j = 1
    for key, k in (("x", n), ("u", m), ("v", m), ("w", n), ("xstar", n), ("ustar", m)):
        cols[key] = table[:, j : j + k]
        j += k
    for key in ("param_err", "J_t", "lambda_t", "V_t", "d_t", "mu_t", "a_t", "projected"):
        cols[key] = table[:, j]
        j += 1
    return cols


def same_as_record(cols, rec):
    """The CSV holds exactly the values of the in-memory run record."""
    T = len(cols["param_err"])
    pairs = {
        "x": rec.x, "u": rec.u, "v": rec.v, "w": rec.w, "xstar": rec.x_star,
        "ustar": rec.u_star, "param_err": rec.param_err, "J_t": rec.j_t,
        "lambda_t": rec.lambda_t, "V_t": rec.v_lyap, "d_t": rec.d_t, "mu_t": rec.mu_t,
        "a_t": rec.a_t, "projected": rec.projected.astype(float),
    }
    for key, arr in pairs.items():
        require(
            np.array_equal(cols[key], arr[:T], equal_nan=True),
            f"run.csv column {key} differs from the run record",
        )


# ---------------------------------------------------------------------------
# recomputations


def plant_replay(cols, cfg):
    """x_{t+1} - f(theta*^T phi_t) is the recorded w_t, on both trajectories."""
    theta = np.asarray(cfg["plant"]["theta_star"], dtype=float)
    f = Link(cfg["plant"]["link"]).f
    trajectories = [("x", "u")]
    if cfg.get("mode", "closed_loop") == "closed_loop":
        trajectories.append(("xstar", "ustar"))
    for xk, uk in trajectories:
        phi = np.hstack([cols[xk][:-1], cols[uk][:-1]])
        pred = np.array([f(theta.T @ p) for p in phi])
        err = float(np.max(np.abs(cols[xk][1:] - pred - cols["w"][:-1])))
        require(err <= PLANT_TOL, f"plant replay on {xk}: max |x' - f(theta* phi) - w| = {err:.3e}")
    noise = cfg["noise"]
    bound = noise["half_width"] if noise["kind"] == "uniform_cube" else noise.get("trunc", math.inf)
    require(float(np.max(np.abs(cols["w"]))) <= bound, "noise sample outside its support")


def _in_set(theta, pset, n):
    if pset["kind"] == "frobenius_ball":
        return np.linalg.norm(theta) <= pset["radius"] * (1.0 + 1e-12)
    return (
        np.linalg.norm(theta[:n], 2) <= pset["radius_a"] * (1.0 + 1e-12)
        and np.linalg.norm(theta[n:], 2) <= pset["radius_b"] * (1.0 + 1e-12)
    )


def _support(phi, pset, n):
    if pset["kind"] == "frobenius_ball":
        return pset["radius"] * np.linalg.norm(phi)
    return pset["radius_a"] * np.linalg.norm(phi[:n]) + pset["radius_b"] * np.linalg.norm(phi[n:])


def wls_transcription(cols, cfg):
    """Re-run the estimator recursion on the recorded (phi_t, x_{t+1}).

    Checks param_err, d_t, mu_t and a_t, and returns the estimate before
    each step (theta_hat_t, t = 0..T-2).  A step whose candidate leaves
    the parameter set would need the weighted projection, which this
    transcription does not cover; it fails the check.
    """
    n, m = cfg["plant"]["n"], cfg["plant"]["m"]
    link = Link(cfg["plant"]["link"])
    pset = cfg["parameter_set"]
    est = cfg.get("estimator", {})
    delta = float(est.get("delta", 0.5))
    theta = np.asarray(est.get("theta0", np.zeros((n + m, n))), dtype=float)
    theta_star = np.asarray(cfg["plant"]["theta_star"], dtype=float)
    P = np.eye(n + m)
    r = 1.0
    T = len(cols["param_err"]) - 1
    thetas = np.empty((T, n + m, n))
    dev = 0.0
    for t in range(T):
        thetas[t] = theta
        phi = np.concatenate([cols["x"][t], cols["u"][t]])
        x_next = cols["x"][t + 1]
        r += float(phi @ phi)
        c = float(np.linalg.norm(theta.T @ phi)) + _support(phi, pset, n)
        d = 0.5 * link.alpha(c)
        g = link.beta(c)
        quad = float(phi @ P @ phi)
        mu = (1.0 + math.log(r)) ** (1.0 + delta) + d * g * g * quad
        a = 1.0 / (mu + d * d * quad)
        require(a * d * d * quad < 1.0, f"step {t}: covariance contraction >= 1")
        p_phi = P @ phi
        P = P - (a * d * d) * np.outer(p_phi, p_phi)
        P = 0.5 * (P + P.T)
        theta = theta + (d / mu) * np.outer(P @ phi, x_next - link.f(theta.T @ phi))
        require(_in_set(theta, pset, n), f"step {t}: the update left the parameter set")
        dev = max(
            dev,
            abs(np.linalg.norm(theta_star - theta) - cols["param_err"][t]),
            abs(d - cols["d_t"][t]),
            abs(mu - cols["mu_t"][t]) / mu,
            abs(a - cols["a_t"][t]) / a,
        )
    require(dev <= TRANSCRIPTION_TOL, f"WLS transcription deviates by {dev:.3e}")
    require(not cols["projected"].any(), "a projection was recorded")
    return thetas


def excitation(cols, cfg):
    """lambda_t is the smallest eigenvalue of sum phi phi^T / (1 + |phi|^2),
    refreshed every eig_stride steps."""
    stride = int(cfg.get("metrics", {}).get("eig_stride", 100))
    phi = np.hstack([cols["x"], cols["u"]])
    gram = np.cumsum(
        np.einsum("ti,tj->tij", phi, phi) / (1.0 + np.einsum("ti,ti->t", phi, phi))[:, None, None],
        axis=0,
    )
    for t in range(0, len(phi), stride):
        lam = np.linalg.eigvalsh(gram[t])[0]
        require(
            abs(lam - cols["lambda_t"][t]) <= 1e-9 * max(1.0, abs(lam)),
            f"lambda_t at step {t}: {cols['lambda_t'][t]!r}, recomputed {lam!r}",
        )


def _riccati_gain(A, Q, R):
    """Feedback (R + P)^{-1} P A of the DARE with B = I, solved by scipy."""
    P = scipy.linalg.solve_discrete_are(A, np.eye(len(A)), Q, R)
    return np.linalg.solve(R + P, P @ A)


def _lift(policy, x, raw):
    if policy.get("lift", "direct") == "quadratic_si":
        return np.concatenate([[x[0] ** 2, x[1] ** 2, x[0] * x[1]], raw])
    return raw


def control_and_tracking(cols, cfg, thetas):
    """Probe bound, the controller's law on both trajectories, and J_t."""
    n = cfg["plant"]["n"]
    T = len(cols["param_err"])
    x, u, v, xs, us = cols["x"], cols["u"], cols["v"], cols["xstar"], cols["ustar"]
    if cfg.get("mode", "closed_loop") == "open_loop":
        hw = cfg["input_policy"]["half_width"]
        require(float(np.max(np.abs(u))) <= hw, "open-loop input outside its support")
        require(not v.any(), "open-loop run recorded a probe")
        for key in ("xstar", "ustar", "J_t"):
            require(np.isnan(cols[key]).all(), f"open-loop run recorded {key}")
        return

    probe = cfg["probe"]
    t1 = np.arange(1, T + 1, dtype=float)[:, None]
    bound = t1 ** (-probe["b"]) * probe["half_width"] * (1.0 + 1e-12)
    require(bool(np.all(np.abs(v) <= bound)), "|v_t| exceeds (t+1)^-b h")

    policy = cfg["policy"]
    if policy["kind"] == "pinning_leader":
        law = policy["x_leader"] * policy["gain"]["kappa0"] * np.asarray(policy["pattern"])
        require(np.allclose(us, law, rtol=0, atol=1e-12), "u*_t is not the pinning input")
        require(np.allclose(u - v, law, rtol=0, atol=1e-12), "u_t - v_t is not the pinning input")
    else:
        Q, R = np.asarray(policy["Q"]), np.asarray(policy["R"])
        theta_star = np.asarray(cfg["plant"]["theta_star"])
        K = _riccati_gain(theta_star[:n].T, Q, R)
        ref = np.array([_lift(policy, z, K @ z) for z in xs[:T]])
        err = float(np.max(np.abs(us - ref)))
        require(err <= 1e-9 * max(1.0, float(np.max(np.abs(ref)))), f"u*_t off the DARE feedback by {err:.3e}")
        # the controller at t uses theta_hat_{t-1}; sampled, since each
        # scipy solve costs about a millisecond
        for t in range(1, len(thetas), max(1, len(thetas) // 20)):
            Kt = _riccati_gain(thetas[t - 1][:n].T, Q, R)
            want = _lift(policy, x[t], Kt @ x[t])
            got = u[t] - v[t]
            require(
                np.allclose(got, want, rtol=1e-8, atol=1e-10),
                f"u_t - v_t at step {t} is not the certainty-equivalence feedback",
            )

    cost = np.sum((x - xs) ** 2, axis=1) + np.sum((u - us) ** 2, axis=1)
    J = np.cumsum(cost) / np.arange(1, T + 1)
    err = float(np.max(np.abs(J - cols["J_t"]) / np.maximum(1.0, np.abs(J))))
    require(err <= 1e-12, f"J_t recomputation deviates by {err:.3e}")


def check_run(csv_path, manifest_path, cfg, rec=None):
    """All checks of one `nadac run`; returns the parsed columns."""
    n, m, T = cfg["plant"]["n"], cfg["plant"]["m"], cfg["horizon"]
    cols = read_run_csv(csv_path, n, m, T)
    if rec is not None:
        same_as_record(cols, rec)
    with open(manifest_path) as fh:
        summary = json.load(fh)["summary"]
    require(summary["steps"] == T, f"manifest reports {summary['steps']} steps")
    require(
        summary["final_param_err"] == cols["param_err"][-1], "manifest final_param_err != CSV"
    )
    plant_replay(cols, cfg)
    thetas = wls_transcription(cols, cfg)
    excitation(cols, cfg)
    control_and_tracking(cols, cfg, thetas)
    return cols


def check_learning(cols, cfg):
    """The live workload must keep learning: param_err at least halves and
    the gain stays far above the envelope floor."""
    theta_star = np.asarray(cfg["plant"]["theta_star"])
    n, m = cfg["plant"]["n"], cfg["plant"]["m"]
    theta0 = np.asarray(cfg.get("estimator", {}).get("theta0", np.zeros((n + m, n))))
    initial = float(np.linalg.norm(theta_star - theta0))
    final = float(cols["param_err"][-1])
    require(final <= 0.5 * initial, f"param_err {initial:.3g} -> {final:.3g}: not learning")
    med = float(np.median(cols["d_t"]))
    require(med >= 1e-3, f"median d_t {med:.3g} is near the envelope floor")


def read_sweep_csv(path, tasks):
    """Every (sigma, seed) task has exactly one finite row."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    require(lines[0] == "value,seed,final_param_err,final_J", f"{path}: bad header")
    rows = {}
    for line in lines[1:]:
        value, seed, err, J = line.split(",")
        key = (float(value), int(seed))
        require(key not in rows, f"{path}: duplicate row {key}")
        rows[key] = (float(err), float(J))
        require(all(map(math.isfinite, rows[key])), f"{path}: non-finite row {key}")
    require(sorted(rows) == sorted(tasks), f"{path}: rows {sorted(rows)} != tasks")
    return rows
