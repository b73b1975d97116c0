"""Control design mechanisms, probing signals, and the Riccati solver.

A policy mechanism maps a parameter matrix theta = [A, B]^T to a state
feedback law.  The adaptive input at time t is the certainty-equivalence
feedback under the latest settled estimate plus a decaying probe
v_t = (t+1)^{-b} * eps_t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .maps import all_finite

__all__ = [
    "PinningLeader",
    "RiccatiFeedback",
    "CustomPolicy",
    "ProbingSignal",
    "solve_dare",
    "probe_sample",
    "adaptive_input",
    "policy_eval",
    "DareError",
    "policy_from_config",
    "probe_from_config",
]


class DareError(RuntimeError):
    """Fixed-point Riccati iteration failed to converge."""

    def __init__(self, message, last_p=None, residual=None):
        super().__init__(message)
        self.last_p = last_p
        self.residual = residual


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")
def _solve(a, b):
    """np.linalg.solve(a, b) for float64 arrays, to the last bit and without
    its Python-level dispatch: the LAPACK gufunc it wraps, under the same
    floating-point error state, so a singular ``a`` raises LinAlgError and
    warns nothing.  Stacked systems solve slice by slice."""
    gufunc = _umath_linalg.solve1 if b.ndim == a.ndim - 1 else _umath_linalg.solve
    return gufunc(a, b, signature="dd->d")


def solve_dare(A, Q, R, tol=1e-12, max_iter=100_000, p0=None):
    """Fixed point of P = A^T P A - A^T P (R + P)^{-1} P A + Q.

    Plain iteration from P0 = Q (or a warm start); returns symmetric PSD P
    with sup-norm residual <= tol.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if tol <= 0:
        raise ValueError("tol must be positive")
    P = Q.copy() if p0 is None else np.asarray(p0, dtype=float).copy()
    a_t = A.T
    for _ in range(max_iter):
        at_p = a_t @ P  # A.T @ P @ A evaluates left to right
        nxt = at_p @ A - at_p @ _solve(R + P, P @ A) + Q
        nxt = 0.5 * (nxt + nxt.T)
        res = float(np.maximum.reduce(np.abs(nxt - P), axis=None))
        P = nxt
        if res <= tol:
            return P
    raise DareError(
        f"DARE iteration exceeded {max_iter} iterations (residual {res:.3e})",
        last_p=P,
        residual=res,
    )


def dare_residual(P, A, Q, R):
    A = np.asarray(A, dtype=float)
    rhs = A.T @ P @ A - A.T @ P @ np.linalg.solve(R + P, P @ A) + Q
    return float(np.max(np.abs(P - rhs)))


# ---------------------------------------------------------------------------
# Policy mechanisms


def _a_block(theta, n):
    return theta[:n].T


@dataclass
class PinningLeader:
    """State-independent pinning input: kappa(theta) * x_L on a fixed pattern.

    Gain families: constant kappa0, or affine in the parameter norm
    kappa(theta) = c1 * ||theta||_F + c2.
    """

    x_leader: float
    pattern: np.ndarray  # length m, e.g. e1
    kappa0: float = 1.0
    affine_c1: float = 0.0  # kappa = affine_c1 * ||theta||_F + affine_c2 when c1 > 0
    affine_c2: float = 0.0
    lipschitz_L: float = 0.0
    param_lipschitz_L1: float = 0.0

    def __post_init__(self):
        self.pattern = np.asarray(self.pattern, dtype=float)

    @property
    def raw_dim(self):
        return self.pattern.size

    def kappa(self, theta):
        if self.affine_c1 > 0.0:
            return self.affine_c1 * float(np.linalg.norm(theta)) + self.affine_c2
        return self.kappa0

    def raw_eval(self, theta, x):
        return self.kappa(theta) * self.x_leader * self.pattern

    def lift(self, x, u_raw):
        return u_raw

    def lift_probe(self, v):
        return v

    def to_config(self):
        cfg = {
            "kind": "pinning_leader",
            "x_leader": self.x_leader,
            "pattern": self.pattern.tolist(),
        }
        if self.affine_c1 > 0.0:
            cfg["gain"] = {"kind": "affine_norm", "c1": self.affine_c1, "c2": self.affine_c2}
        else:
            cfg["gain"] = {"kind": "constant", "kappa0": self.kappa0}
        return cfg


@dataclass
class RiccatiFeedback:
    """Certainty-equivalence feedback (R + P)^{-1} P A x from the DARE of
    theta's A-block, optionally lifted into a larger input vector.

    ``lift_kind``: "direct" passes the raw feedback through; "quadratic_si"
    prepends the monomials [x1^2, x2^2, x1*x2] used by the two-community
    epidemic model (n = 2, m = 5).
    """

    Q: np.ndarray
    R: np.ndarray
    lift_kind: str = "direct"
    lipschitz_L: float = 1.0
    param_lipschitz_L1: float = 1.0
    dare_tol: float = 1e-12
    dare_max_iter: int = 100_000
    _cache_theta: np.ndarray | None = field(default=None, repr=False)
    _cache_p: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.lift_kind not in ("direct", "quadratic_si"):
            raise ValueError(f"unknown lift kind {self.lift_kind!r}")
        if np.any(np.linalg.eigvalsh(self.R) <= 0):
            raise ValueError("R must be positive definite")

    @property
    def raw_dim(self):
        return self.R.shape[0]

    def riccati_solution(self, theta):
        """DARE solution for theta's A-block, warm-started per mechanism."""
        n = self.Q.shape[0]
        A = _a_block(theta, n)
        # A has the same shape on every call, so == decides equality alone
        cached = self._cache_theta
        if cached is not None and np.logical_and.reduce(A == cached, axis=None):
            return self._cache_p
        p0 = self._cache_p
        P = solve_dare(A, self.Q, self.R, tol=self.dare_tol, max_iter=self.dare_max_iter, p0=p0)
        self._cache_theta = A.copy()
        self._cache_p = P
        return P

    def raw_eval(self, theta, x):
        n = self.Q.shape[0]
        A = _a_block(theta, n)
        P = self.riccati_solution(theta)
        return _solve(self.R + P, P @ (A @ x))

    def lift(self, x, u_raw):
        """The input vector from the raw feedback; rows of x and u_raw are
        runs of a batch when they carry a run axis.  The monomials stay
        per-run float powers, which numpy's power does not match."""
        if self.lift_kind == "direct":
            return u_raw
        if x.ndim == 1:
            return np.concatenate([[x[0] ** 2, x[1] ** 2, x[0] * x[1]], u_raw])
        monomials = [[a**2, b**2, a * b] for a, b in x[:, :2].tolist()]
        return np.concatenate([monomials, u_raw], axis=1)

    def lift_probe(self, v):
        if self.lift_kind == "direct":
            return v
        return np.concatenate([np.zeros(v.shape[:-1] + (3,)), v], axis=-1)

    def to_config(self):
        return {
            "kind": "riccati_feedback",
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "lift": self.lift_kind,
        }


@dataclass
class CustomPolicy:
    """Delegates to a user function (theta, x) -> u with declared constants."""

    fn: object
    m: int
    lipschitz_L: float = 0.0
    param_lipschitz_L1: float = 0.0

    @property
    def raw_dim(self):
        return self.m

    def raw_eval(self, theta, x):
        return np.asarray(self.fn(theta, x), dtype=float)

    def lift(self, x, u_raw):
        return u_raw

    def lift_probe(self, v):
        return v

    def to_config(self):
        raise ValueError("custom policies are not serializable")


def _raw_eval(mech, theta, x):
    """mech.raw_eval(theta, x).  For a batch, ``mech`` holds one mechanism
    per run (one class and lift), theta and x carry a leading run axis, and
    the result has one row per run.  Riccati feedback keeps each run's DARE
    cache and solves the runs' feedback systems in one stacked call."""
    if x.ndim == 1:
        return mech.raw_eval(theta, x)
    if isinstance(mech[0], RiccatiFeedback):
        n = x.shape[-1]
        P = np.array([mk.riccati_solution(th) for mk, th in zip(mech, theta)])
        A = theta[:, :n].mT
        return _solve(np.array([mk.R for mk in mech]) + P, np.matvec(P, np.matvec(A, x)))
    return np.array([mk.raw_eval(th, xr) for mk, th, xr in zip(mech, theta, x)])


def policy_eval(mech, theta, x, pset=None):
    """Full policy output for one state (lift applied, no probe); for a batch
    as in ``adaptive_input``."""
    x = np.asarray(x, dtype=float)
    if not all_finite(x):
        raise ValueError("state must be finite")
    if pset is not None and not pset.contains(theta):
        raise ValueError("theta lies outside the parameter set")
    return (mech if x.ndim == 1 else mech[0]).lift(x, _raw_eval(mech, theta, x))


def validate_lipschitz(mech, pset, n, m, rng, pairs=10_000, x_scale=5.0, tol=1e-9):
    """Randomized check of the declared Lipschitz constants.

    Raises ValueError on the first sampled violation of either the
    state-Lipschitz bound L or the parameter-sensitivity bound L1.
    """
    for _ in range(pairs):
        theta = pset.sample(n, m, rng)
        theta2 = pset.sample(n, m, rng)
        x = rng.standard_normal(n) * x_scale
        x2 = rng.standard_normal(n) * x_scale
        u1 = mech.raw_eval(theta, x)
        du = np.linalg.norm(u1 - mech.raw_eval(theta, x2))
        if du > mech.lipschitz_L * np.linalg.norm(x - x2) + tol:
            raise ValueError(
                f"state Lipschitz bound violated: {du:.6g} > "
                f"{mech.lipschitz_L} * ||dx||"
            )
        dup = np.linalg.norm(u1 - mech.raw_eval(theta2, x))
        bound = mech.param_lipschitz_L1 * np.linalg.norm(theta - theta2) * np.linalg.norm(x)
        if dup > bound + tol:
            raise ValueError(
                f"parameter Lipschitz bound violated: {dup:.6g} > {bound:.6g}"
            )


# ---------------------------------------------------------------------------
# Probing signal


@dataclass
class ProbingSignal:
    """v_t = (t+1)^{-decay_b} * eps_t; eps bounded, zero mean, i.i.d.

    Distributions: "uniform_cube" is uniform on [-h, h] per coordinate (the
    experimental choice, covariance h^2/3 * I); "scaled_uniform" is uniform
    on [-sqrt(3), sqrt(3)], giving exactly identity covariance.
    """

    decay_b: float
    dim: int
    distribution: str = "uniform_cube"
    half_width: float = 1.0
    bound_eps: float | None = None

    def __post_init__(self):
        if self.decay_b < 0:
            raise ValueError("decay exponent must be >= 0")
        if self.distribution not in ("uniform_cube", "scaled_uniform"):
            raise ValueError(f"unknown probe distribution {self.distribution!r}")
        if self.bound_eps is None:
            self.bound_eps = (
                self.half_width if self.distribution == "uniform_cube" else np.sqrt(3.0)
            )

    @property
    def enabled(self):
        return self.bound_eps > 0.0

    def to_config(self):
        return {
            "b": self.decay_b,
            "distribution": self.distribution,
            "half_width": self.half_width,
            "bound_eps": self.bound_eps,
        }


def probe_sample(sig, t, rng, steps=None):
    """Draw v_t; deterministic given the generator state.  With ``steps``,
    draw v_t .. v_{t+steps-1} at once, one row per step: the same values and
    the same use of the stream as ``steps`` single draws."""
    shape = sig.dim if steps is None else (steps, sig.dim)
    if not sig.enabled:
        return np.zeros(shape)
    h = sig.half_width if sig.distribution == "uniform_cube" else np.sqrt(3.0)
    eps = rng.uniform(-h, h, size=shape)
    if steps is None:
        return (t + 1.0) ** (-sig.decay_b) * eps
    return np.array([[(s + 1.0) ** (-sig.decay_b)] for s in range(t, t + steps)]) * eps


def adaptive_input(mech, theta_hat_prev, x, sig, t, rng, pset=None, v_raw=None):
    """u_t = pi_{theta_hat}(x_t) + v_t; returns (u, v) with v in input space.

    ``v_raw``: the raw probe when it is already drawn by probe_sample (sig,
    t and rng are then unused).  A batch passes one mechanism per run,
    theta_hat_prev and x with a leading run axis, and v_raw with one row per
    run; u and v then have one row per run.
    """
    x = np.asarray(x, dtype=float)
    if pset is not None and not pset.contains(theta_hat_prev):
        raise ValueError("theta_hat lies outside the parameter set")
    u_raw = _raw_eval(mech, theta_hat_prev, x)
    if v_raw is None:
        v_raw = probe_sample(sig, t, rng)
    lift = mech if x.ndim == 1 else mech[0]
    return lift.lift(x, u_raw + v_raw), lift.lift_probe(v_raw)


# ---------------------------------------------------------------------------
# Config plumbing


def policy_from_config(cfg, n, m):
    kind = cfg.get("kind")
    if kind == "pinning_leader":
        gain = cfg.get("gain", {"kind": "constant", "kappa0": 1.0})
        pattern = np.asarray(cfg.get("pattern", [1.0] * m), dtype=float)
        if gain.get("kind") == "affine_norm":
            return PinningLeader(
                x_leader=float(cfg["x_leader"]),
                pattern=pattern,
                affine_c1=float(gain["c1"]),
                affine_c2=float(gain["c2"]),
            )
        return PinningLeader(
            x_leader=float(cfg["x_leader"]),
            pattern=pattern,
            kappa0=float(gain.get("kappa0", 1.0)),
        )
    if kind == "riccati_feedback":
        return RiccatiFeedback(
            Q=np.asarray(cfg.get("Q", np.eye(n).tolist()), dtype=float),
            R=np.asarray(cfg.get("R", np.eye(n).tolist()), dtype=float),
            lift_kind=cfg.get("lift", "direct"),
        )
    raise ValueError(f"unknown policy kind {kind!r}")


def probe_from_config(cfg, raw_dim):
    return ProbingSignal(
        decay_b=float(cfg.get("b", 0.0)),
        dim=raw_dim,
        distribution=cfg.get("distribution", "uniform_cube"),
        half_width=float(cfg.get("half_width", 1.0)),
        bound_eps=(float(cfg["bound_eps"]) if "bound_eps" in cfg else None),
    )
