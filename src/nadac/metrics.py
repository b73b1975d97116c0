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

from .estimator import run_norms

__all__ = [
    "MetricAccumulator",
    "lambda_min_normalized",
    "sign_regret",
    "empirical_gain_ratio",
    "eta_default",
]


def _sgn(x):
    # sgn(0) := 0 so the metric is deterministic at the (measure-zero) tie
    return np.sign(x)


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
    """Per-run accumulator of a run's constants (theta*, the link f and the
    gain ratio's gamma); update() absorbs steps in trajectory order."""

    theta_star: np.ndarray  # (n+m, n)
    link: object
    gamma: float

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

    def __post_init__(self):
        dim = self.theta_star.shape[0]
        self.gram_normalized = np.zeros((dim, dim))
        self.p_inv = np.eye(dim)

    def update(self, x, u, v, w, x_star, u_star, d_t, mu_t, a_t, theta_hat, prediction):
        """Absorb K consecutive steps as the run record holds them: x and
        x_star hold K+1 states, theta_hat the K+1 estimates from before the
        first update to after the last, and the rest (prediction is the
        estimator's f(theta_hat^T phi)) K rows; x_star and u_star are None
        without a reference.  Returns param_err, J_t and V_t after each
        step, arrays of length K; J_t is NaN without a reference."""
        K = len(u)
        x, x_next = x[:-1], x[1:]
        phi = np.concatenate([x, u], axis=1)

        phi_phi = phi[:, :, None] * phi[:, None, :]
        gram = _running(self.gram_normalized, phi_phi / (1.0 + _dots(phi, phi))[:, None, None])
        self.gram_normalized = gram[-1]
        self.sum_v_pow_gamma = _total(self.sum_v_pow_gamma, _norm_pow(v, self.gamma))
        self.sum_w_pow_gamma = _total(self.sum_w_pow_gamma, _norm_pow(w, self.gamma))
        self.sum_xnext_pow_gamma = _total(self.sum_xnext_pow_gamma, _norm_pow(x_next, self.gamma))

        p_inv = _running(self.p_inv, (_pow(d_t, 2) / mu_t)[:, None, None] * phi_phi)
        self.p_inv = p_inv[-1]

        j_t = np.full(K, np.nan)
        if x_star is not None:
            dx, du = x - x_star[:-1], u - u_star
            # the state term and then the input term of each step, in turn
            terms = np.column_stack([_dots(dx, dx), _dots(du, du)]).ravel()
            track = _running(self.sum_track_sq, terms)[1::2]
            self.sum_track_sq = float(track[-1])
            j_t = track / np.arange(self.steps + 1, self.steps + K + 1)
            mismatch = np.abs(_sgn(x) - _sgn(x_star[:-1])).sum(axis=1)
            self.sum_sign_mismatch = _total(self.sum_sign_mismatch, mismatch)

        psi = self.link.eval(np.matvec(self.theta_star.T, phi)) - prediction
        psi_sq = _dots(psi, psi)
        self.sum_pred_regret = _total(self.sum_pred_regret, psi_sq / mu_t)
        self.sum_a_psi_sq = _total(self.sum_a_psi_sq, a_t * psi_sq)
        err = self.theta_star - theta_hat[1:]
        v_lyap = np.trace(err.transpose(0, 2, 1) @ p_inv @ err, axis1=1, axis2=2)

        self.steps += K
        return run_norms(err, 2), j_t, v_lyap


def lambda_min_normalized(acc):
    """Smallest eigenvalue of the accumulated normalized Gram matrix."""
    if acc.steps < 1:
        raise ValueError("no regressor absorbed yet")
    sym = 0.5 * (acc.gram_normalized + acc.gram_normalized.T)
    return float(np.linalg.eigvalsh(sym)[0])


def sign_regret(acc):
    if acc.steps < 1:
        raise ValueError("sign regret needs t >= 1")
    return acc.sum_sign_mismatch / acc.steps


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
