"""Run diagnostics: excitation, tracking, regret, and Lyapunov quantities.

Everything here is a running sum over one trajectory, absorbed one block of
consecutive steps at a time and recomputable offline from the CSV log (no
hidden state).  A block gives the same floats as its steps taken one by one:
running sums are sequential adds along the step axis (np.cumsum, never
np.sum or einsum), products are stacked matmuls, one BLAS call per step, and
powers stay per-element Python float powers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MetricAccumulator",
    "lambda_min_normalized",
    "tracking_error",
    "sign_regret",
    "prediction_regret",
    "empirical_gain_ratio",
    "eta_default",
]


def _sgn(x):
    # sgn(0) := 0 so the metric is deterministic at the (measure-zero) tie
    return np.sign(x)


def _steps(a, ndim):
    """``a`` as floats with a leading step axis: unchanged when it already has
    one (more than ``ndim`` dimensions, the per-step rank), else a block of
    one step.  None stays None."""
    if a is None:
        return None
    a = np.asarray(a, dtype=float)
    return a if a.ndim > ndim else a[None]


def _dots(a, b):
    """a_k @ b_k for each step k, each one BLAS dot as in the per-step code."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _running(carry, terms):
    """carry + terms[0] + terms[1] + ..., one IEEE add per step in step
    order, as ``+=`` once per step; returns the value after each step."""
    return np.cumsum(np.concatenate([np.asarray(carry, dtype=float)[None], terms]), axis=0)[1:]


def _total(carry, terms):
    """The last value of _running(carry, terms), as a float."""
    return float(_running(carry, terms)[-1])


def _pow(a, p):
    """a_k ** p per element as Python floats (the C pow), which numpy's
    power does not match to the last bit."""
    return np.array([ak ** p for ak in a.tolist()])


def _norm_pow(a, p):
    """||a_k|| ** p for each step k."""
    return _pow(np.sqrt(_dots(a, a)), p)


@dataclass
class MetricAccumulator:
    """Per-run accumulator; update() absorbs steps in trajectory order."""

    n: int
    m: int
    theta_star: np.ndarray

    steps: int = field(init=False, default=0)
    gram_normalized: np.ndarray = field(init=False)
    p_inv: np.ndarray = field(init=False)  # independent Sherman-Morrison track
    sum_track_sq: float = field(init=False, default=0.0)
    sum_sign_mismatch: float = field(init=False, default=0.0)
    sum_pred_regret: float = field(init=False, default=0.0)
    sum_a_psi_sq: float = field(init=False, default=0.0)
    sum_v_pow_gamma: float = field(init=False, default=0.0)
    sum_w_pow_gamma: float = field(init=False, default=0.0)
    sum_xnext_pow_gamma: float = field(init=False, default=0.0)
    lyapunov_v: float = field(init=False, default=float("nan"))

    def __post_init__(self):
        dim = self.n + self.m
        self.gram_normalized = np.zeros((dim, dim))
        self.p_inv = np.eye(dim)

    def update(
        self,
        phi,
        x,
        x_next,
        v,
        w,
        diag,
        link,
        theta_hat=None,  # estimate used at this step (pre-update), for psi;
        # diag.prediction, when set, is f(theta_hat^T phi) from the estimator
        theta_hat_next=None,  # post-update estimate, for the Lyapunov value
        x_star=None,
        u=None,
        u_star=None,
        gamma=4.0,
    ):
        """Absorb K consecutive steps.  Each per-step argument carries a
        leading step axis of length K, and the fields d_gain, mu_weight,
        a_weight and prediction of ``diag`` are per-step arrays; without the
        axis the call is one step.  Returns the Lyapunov value V_t and the
        tracking sum after each step, two arrays of length K."""
        phi = _steps(phi, 1)
        x, x_next, v, w = (_steps(a, 1) for a in (x, x_next, v, w))
        x_star, u, u_star = (_steps(a, 1) for a in (x_star, u, u_star))
        theta_hat, theta_hat_next = (_steps(a, 2) for a in (theta_hat, theta_hat_next))
        d_gain, mu, a_weight = (
            _steps(a, 0) for a in (diag.d_gain, diag.mu_weight, diag.a_weight)
        )
        K = len(phi)

        phi_phi = phi[:, :, None] * phi[:, None, :]
        gram = _running(self.gram_normalized, phi_phi / (1.0 + _dots(phi, phi))[:, None, None])
        self.gram_normalized = gram[-1]
        self.sum_v_pow_gamma = _total(self.sum_v_pow_gamma, _norm_pow(v, gamma))
        self.sum_w_pow_gamma = _total(self.sum_w_pow_gamma, _norm_pow(w, gamma))
        self.sum_xnext_pow_gamma = _total(self.sum_xnext_pow_gamma, _norm_pow(x_next, gamma))

        p_inv = _running(self.p_inv, (_pow(d_gain, 2) / mu)[:, None, None] * phi_phi)
        self.p_inv = p_inv[-1]

        track = np.full(K, self.sum_track_sq)
        if x_star is not None:
            dx = x - x_star
            terms = _dots(dx, dx)[:, None]
            if u is not None and u_star is not None:
                du = u - u_star
                terms = np.column_stack([terms, _dots(du, du)])
            # the state term and then the input term of each step, in turn
            track = _running(self.sum_track_sq, terms.ravel())[terms.shape[1] - 1 :: terms.shape[1]]
            self.sum_track_sq = float(track[-1])
            mismatch = np.abs(_sgn(x) - _sgn(x_star)).sum(axis=1)
            self.sum_sign_mismatch = _total(self.sum_sign_mismatch, mismatch)

        lyapunov = np.full(K, self.lyapunov_v)
        if theta_hat is not None:
            prediction = _steps(diag.prediction, 1)
            if prediction is None:
                prediction = link.eval(np.matvec(theta_hat.mT, phi))
            psi = link.eval(np.matvec(self.theta_star.T, phi)) - prediction
            psi_sq = _dots(psi, psi)
            self.sum_pred_regret = _total(self.sum_pred_regret, psi_sq / mu)
            self.sum_a_psi_sq = _total(self.sum_a_psi_sq, a_weight * psi_sq)
            err = self.theta_star - (theta_hat_next if theta_hat_next is not None else theta_hat)
            lyapunov = np.trace(err.transpose(0, 2, 1) @ p_inv @ err, axis1=1, axis2=2)
            self.lyapunov_v = float(lyapunov[-1])

        self.steps += K
        return lyapunov, track


def lambda_min_normalized(acc):
    """Smallest eigenvalue of the accumulated normalized Gram matrix."""
    if acc.steps < 1:
        raise ValueError("no regressor absorbed yet")
    sym = 0.5 * (acc.gram_normalized + acc.gram_normalized.T)
    return float(np.linalg.eigvalsh(sym)[0])


def tracking_error(acc):
    """Time-averaged squared state+input deviation from the reference run."""
    if acc.steps < 1:
        raise ValueError("tracking error needs t >= 1")
    return acc.sum_track_sq / acc.steps


def sign_regret(acc):
    if acc.steps < 1:
        raise ValueError("sign regret needs t >= 1")
    return acc.sum_sign_mismatch / acc.steps


def prediction_regret(acc):
    """Accumulated mu^{-1}-weighted squared prediction error."""
    return acc.sum_pred_regret


def lyapunov_value(acc):
    """V_t + sum a_tau ||psi_tau||^2, the quantity bounded along any run."""
    return acc.lyapunov_v + acc.sum_a_psi_sq


def empirical_gain_ratio(acc):
    """sum ||x_{t+1}||^gamma / (sum ||v||^gamma + sum ||w||^gamma + 1)."""
    return acc.sum_xnext_pow_gamma / (acc.sum_v_pow_gamma + acc.sum_w_pow_gamma + 1.0)


def eta_default(b, gamma):
    """Midpoint of the admissible rate-probe interval; fails fast when the
    interval (8b/(gamma-2), 2(gamma-2)/(gamma*(gamma+2))) is empty."""
    if gamma <= 2:
        raise ValueError("rate probes need gamma > 2")
    lo = 8.0 * b / (gamma - 2.0)
    hi = 2.0 * (gamma - 2.0) / (gamma * (gamma + 2.0))
    if lo >= hi:
        raise ValueError(
            f"empty eta interval for b={b}, gamma={gamma}: ({lo:.4g}, {hi:.4g}); "
            f"b must be < (gamma-2)^2/(4*gamma*(gamma+2)) = "
            f"{(gamma - 2.0) ** 2 / (4.0 * gamma * (gamma + 2.0)):.4g}"
        )
    return 0.5 * (lo + hi)
