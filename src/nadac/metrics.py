"""Run diagnostics: excitation, tracking, regret, and Lyapunov quantities.

Everything here is a running sum over one trajectory, updated once per step
and recomputable offline from the CSV log (no hidden state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import frobenius_norm

__all__ = [
    "MetricAccumulator",
    "lambda_min_normalized",
    "tracking_error",
    "sign_regret",
    "prediction_regret",
    "empirical_gain_ratio",
    "stage_cost_regret",
    "eta_default",
    "GroundTruthRequired",
]


class GroundTruthRequired(RuntimeError):
    """Metric needs theta*, which this run withheld."""


def _sgn(x):
    # sgn(0) := 0 so the metric is deterministic at the (measure-zero) tie
    return np.sign(x)


@dataclass
class MetricAccumulator:
    """Per-run accumulator; update() once per step in trajectory order."""

    n: int
    m: int
    theta_star: np.ndarray | None = None
    stage_cost: object | None = None  # optional Lipschitz c(x, u) -> real

    steps: int = 0
    gram_normalized: np.ndarray = field(init=False)
    p_inv: np.ndarray = field(init=False)  # independent Sherman-Morrison track
    sum_track_sq: float = 0.0
    sum_sign_mismatch: float = 0.0
    sum_pred_regret: float = 0.0
    sum_a_psi_sq: float = 0.0
    sum_v_pow_gamma: float = 0.0
    sum_w_pow_gamma: float = 0.0
    sum_xnext_pow_gamma: float = 0.0
    sum_stage_cost_sq: float = 0.0
    lyapunov_v: float = float("nan")

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
        phi = np.asarray(phi, dtype=float)
        nphi2 = float(phi @ phi)
        phi_phi = np.outer(phi, phi)
        self.gram_normalized += phi_phi / (1.0 + nphi2)
        self.sum_v_pow_gamma += frobenius_norm(v) ** gamma
        self.sum_w_pow_gamma += frobenius_norm(w) ** gamma
        self.sum_xnext_pow_gamma += frobenius_norm(x_next) ** gamma

        self.p_inv += (diag.d_gain**2 / diag.mu_weight) * phi_phi

        if x_star is not None:
            dx = np.asarray(x) - np.asarray(x_star)
            self.sum_track_sq += float(dx @ dx)
            if u is not None and u_star is not None:
                du = np.asarray(u) - np.asarray(u_star)
                self.sum_track_sq += float(du @ du)
            self.sum_sign_mismatch += float(np.abs(_sgn(x) - _sgn(x_star)).sum())
            if self.stage_cost is not None and u is not None and u_star is not None:
                self.sum_stage_cost_sq += (
                    float(self.stage_cost(x, u)) - float(self.stage_cost(x_star, u_star))
                ) ** 2

        if self.theta_star is not None and theta_hat is not None:
            prediction = diag.prediction
            if prediction is None:
                prediction = link.eval(theta_hat.T @ phi)
            psi = link.eval(self.theta_star.T @ phi) - prediction
            psi_sq = float(psi @ psi)
            self.sum_pred_regret += psi_sq / diag.mu_weight
            self.sum_a_psi_sq += diag.a_weight * psi_sq
            err = self.theta_star - (theta_hat_next if theta_hat_next is not None else theta_hat)
            self.lyapunov_v = float((err.T @ self.p_inv @ err).trace())

        self.steps += 1


def lambda_min_normalized(acc):
    """Smallest eigenvalue of the accumulated normalized Gram matrix."""
    if acc.steps < 1:
        raise ValueError("no regressor absorbed yet")
    sym = 0.5 * (acc.gram_normalized + acc.gram_normalized.T)
    return float(np.linalg.eigvalsh(sym)[0])


def tracking_error(acc, t=None):
    """Time-averaged squared state+input deviation from the reference run."""
    t = acc.steps if t is None else t
    if t < 1:
        raise ValueError("tracking error needs t >= 1")
    return acc.sum_track_sq / t


def sign_regret(acc, t=None):
    t = acc.steps if t is None else t
    if t < 1:
        raise ValueError("sign regret needs t >= 1")
    return acc.sum_sign_mismatch / t


def prediction_regret(acc):
    """Accumulated mu^{-1}-weighted squared prediction error (needs theta*)."""
    if acc.theta_star is None:
        raise GroundTruthRequired("prediction regret requires theta*")
    return acc.sum_pred_regret


def lyapunov_value(acc):
    """V_t + sum a_tau ||psi_tau||^2, the quantity bounded along any run."""
    if acc.theta_star is None:
        raise GroundTruthRequired("Lyapunov diagnostic requires theta*")
    return acc.lyapunov_v + acc.sum_a_psi_sq


def empirical_gain_ratio(acc):
    """sum ||x_{t+1}||^gamma / (sum ||v||^gamma + sum ||w||^gamma + 1)."""
    return acc.sum_xnext_pow_gamma / (acc.sum_v_pow_gamma + acc.sum_w_pow_gamma + 1.0)


def stage_cost_regret(acc, t=None):
    if acc.stage_cost is None:
        raise ValueError("no stage cost configured")
    t = acc.steps if t is None else t
    if t < 1:
        raise ValueError("stage-cost regret needs t >= 1")
    return acc.sum_stage_cost_sq / t


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
