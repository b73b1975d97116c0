"""Online weighted-least-squares parameter estimator with projection.

State model: x_{t+1} = f(theta^T phi_t) + w_{t+1} with theta = [A, B]^T of
shape (n+m, n) and regressor phi_t = [x_t; u_t].  The recursion keeps an
estimate theta_hat, an inverse-Hessian surrogate P, and the cumulative
regressor energy r; weights mu_t grow like (1 + log r_t)^(1+delta), which
forces the estimate sequence to settle even without excitation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrobeniusBall",
    "BlockOperatorBalls",
    "EstimatorState",
    "StepDiagnostics",
    "new_estimator",
    "support_value",
    "frobenius_norm",
    "step_weights",
    "estimator_step",
    "project_weighted",
    "ProjectionError",
    "NumericalAbort",
    "parameter_set_from_config",
]


class ProjectionError(RuntimeError):
    """Weighted projection failed to converge; carries the best iterate."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class NumericalAbort(RuntimeError):
    """Non-finite arithmetic or a persistent weight-identity violation."""


# ---------------------------------------------------------------------------
# Parameter sets


def frobenius_norm(a):
    """np.linalg.norm(a) of a float array, to the last bit and without its
    dispatch: the square root of the array's dot product with itself,
    raveled in memory order as np.linalg.norm ravels it."""
    a = np.asarray(a, dtype=float).ravel("K")
    return math.sqrt(a @ a)


def _spectral_within(a, bound):
    """np.linalg.norm(a, 2) <= bound: the largest singular value of a matrix
    against a bound.  ||a||_2 <= ||a||_F, so a Frobenius norm below the bound
    by more than the SVD's rounding settles it without the SVD."""
    if frobenius_norm(a) <= bound * (1.0 - 1e-9):
        return True
    return float(np.linalg.svd(a, compute_uv=False)[0]) <= bound


@dataclass(frozen=True)
class FrobeniusBall:
    """Theta = {theta : ||theta||_F <= radius}; the shrunken copy used by the
    projection is rho_eps * Theta."""

    radius: float
    rho_eps: float = 0.5

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if not 0.0 < self.rho_eps <= 1.0:
            raise ValueError("rho_eps must lie in (0, 1]")

    def contains(self, theta, shrunk=False, tol=1e-12):
        r = self.radius * (self.rho_eps if shrunk else 1.0)
        return frobenius_norm(theta) <= r * (1.0 + tol)

    def support_value(self, phi, n=None):
        return self.radius * frobenius_norm(phi)

    def sample(self, n, m, rng):
        """Uniform-in-radius random member, for randomized checks."""
        g = rng.standard_normal((n + m, n))
        g /= max(np.linalg.norm(g), 1e-300)
        return g * self.radius * rng.uniform() ** (1.0 / (n * (n + m)))

    def to_config(self):
        return {"kind": "frobenius_ball", "radius": self.radius, "rho_eps": self.rho_eps}


@dataclass(frozen=True)
class BlockOperatorBalls:
    """Theta = {[A, B]^T : ||A|| <= radius_a, ||B|| <= radius_b} in the
    induced operator (spectral) norm, blocks split at row n."""

    radius_a: float
    radius_b: float
    rho_eps: float = 0.5

    def __post_init__(self):
        if self.radius_a <= 0 or self.radius_b <= 0:
            raise ValueError("block radii must be positive")
        if not 0.0 < self.rho_eps <= 1.0:
            raise ValueError("rho_eps must lie in (0, 1]")

    def contains(self, theta, shrunk=False, tol=1e-12):
        n = theta.shape[1]
        s = self.rho_eps if shrunk else 1.0
        # both blocks are tested, so a non-finite block raises as the SVD does
        in_a = _spectral_within(theta[:n].T, s * self.radius_a * (1.0 + tol))
        in_b = theta.shape[0] <= n or _spectral_within(
            theta[n:].T, s * self.radius_b * (1.0 + tol)
        )
        return in_a and in_b

    def support_value(self, phi, n=None):
        if n is None:
            raise ValueError("block set needs the state dimension to split phi")
        return self.radius_a * frobenius_norm(phi[:n]) + self.radius_b * frobenius_norm(phi[n:])

    def sample(self, n, m, rng):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        a *= self.radius_a * rng.uniform() / max(np.linalg.norm(a, 2), 1e-300)
        b *= self.radius_b * rng.uniform() / max(np.linalg.norm(b, 2), 1e-300)
        return np.vstack([a.T, b.T])

    def to_config(self):
        return {
            "kind": "block_operator_balls",
            "radius_a": self.radius_a,
            "radius_b": self.radius_b,
            "rho_eps": self.rho_eps,
        }


def parameter_set_from_config(cfg):
    kind = cfg.get("kind")
    if kind == "frobenius_ball":
        return FrobeniusBall(float(cfg["radius"]), float(cfg.get("rho_eps", 0.5)))
    if kind == "block_operator_balls":
        return BlockOperatorBalls(
            float(cfg["radius_a"]), float(cfg["radius_b"]), float(cfg.get("rho_eps", 0.5))
        )
    raise ValueError(f"unknown parameter-set kind {kind!r}")


def support_value(pset, phi, n=None):
    """sup over theta in Theta of ||theta^T phi|| (exact for both kinds)."""
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("regressor must be finite")
    return pset.support_value(phi, n=n)


# ---------------------------------------------------------------------------
# Weighted projection onto the shrunken set


def _project_frobenius(x, weight, radius, tol=1e-10, max_iter=300):
    """argmin_{||y||_F <= radius} tr[(x-y)^T M (x-y)] via the Lagrangian
    y(lam) = (M + lam I)^{-1} M x; ||y(lam)||_F is monotone decreasing."""
    if np.linalg.norm(x) <= radius:
        return x.copy()
    dim = weight.shape[0]
    eye = np.eye(dim)
    mx = weight @ x

    def y_of(lam):
        return np.linalg.solve(weight + lam * eye, mx)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(y_of(hi)) > radius:
        hi *= 2.0
        if hi > 1e300:
            raise ProjectionError("Frobenius-ball bisection failed to bracket", best=y_of(1e300))
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        ymid = y_of(mid)
        nrm = np.linalg.norm(ymid)
        if abs(nrm - radius) <= tol:
            return ymid
        if nrm > radius:
            lo = mid
        else:
            hi = mid
    y = y_of(0.5 * (lo + hi))
    # bisection interval collapsed without hitting the tolerance exactly;
    # the iterate is still feasible up to the bracket width
    if np.linalg.norm(y) <= radius * (1.0 + 1e-9):
        return y
    raise ProjectionError(
        "Frobenius-ball bisection did not converge",
        best=y,
        residual=abs(np.linalg.norm(y) - radius),
    )


def _clip_operator_norm(block, radius):
    """Euclidean projection of a matrix onto {||.||_2 <= radius}."""
    u, s, vt = np.linalg.svd(block, full_matrices=False)
    if s.size == 0 or s[0] <= radius:
        return block
    return u @ np.diag(np.minimum(s, radius)) @ vt


def _project_blocks(x, weight, pset, n, tol=1e-12, max_iter=10_000):
    """Projected gradient on the weighted quadratic with spectral-ball
    Euclidean projections per block; step 1/lambda_max(M)."""
    ra = pset.radius_a * pset.rho_eps
    rb = pset.radius_b * pset.rho_eps

    def proj(y):
        out = y.copy()
        out[:n] = _clip_operator_norm(y[:n].T, ra).T
        out[n:] = _clip_operator_norm(y[n:].T, rb).T
        return out

    def obj(y):
        d = x - y
        return float(np.trace(d.T @ weight @ d))

    step = 1.0 / float(np.linalg.eigvalsh(weight)[-1])
    y = proj(x)
    prev = obj(y)
    for _ in range(max_iter):
        grad = -2.0 * weight @ (x - y)
        y = proj(y - 0.5 * step * grad)
        cur = obj(y)
        if prev - cur <= tol * max(1.0, abs(prev)):
            return y
        prev = cur
    raise ProjectionError(
        "block projected-gradient did not converge", best=y, residual=prev - cur
    )


def project_weighted(x, weight, pset, n=None):
    """Minimize tr[(x-y)^T M (x-y)] over the shrunken set rho_eps * Theta.

    Returns x unchanged when it is already feasible.
    """
    x = np.asarray(x, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if pset.contains(x, shrunk=True):
        return x.copy()
    if isinstance(pset, FrobeniusBall):
        return _project_frobenius(x, weight, pset.radius * pset.rho_eps)
    if isinstance(pset, BlockOperatorBalls):
        if n is None:
            n = x.shape[1]
        return _project_blocks(x, weight, pset, n)
    raise TypeError(f"unsupported parameter set {type(pset).__name__}")


# ---------------------------------------------------------------------------
# Estimator recursion


@dataclass
class EstimatorState:
    theta_hat: np.ndarray  # (n+m, n)
    p_matrix: np.ndarray  # (n+m, n+m), symmetric PD
    r_accum: float  # 1 + sum ||phi||^2
    step: int
    delta: float
    projection_count: int = 0

    @property
    def n(self):
        return self.theta_hat.shape[1]

    @property
    def m(self):
        return self.theta_hat.shape[0] - self.theta_hat.shape[1]

    def to_json(self):
        return json.dumps(
            {
                "theta_hat": self.theta_hat.flatten().tolist(),
                "shape": list(self.theta_hat.shape),
                "p_matrix": self.p_matrix.flatten().tolist(),
                "r_accum": self.r_accum,
                "step": self.step,
                "delta": self.delta,
                "projection_count": self.projection_count,
            }
        )

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        shape = tuple(d["shape"])
        dim = shape[0]
        return cls(
            theta_hat=np.array(d["theta_hat"]).reshape(shape),
            p_matrix=np.array(d["p_matrix"]).reshape((dim, dim)),
            r_accum=float(d["r_accum"]),
            step=int(d["step"]),
            delta=float(d["delta"]),
            projection_count=int(d["projection_count"]),
        )


@dataclass
class StepDiagnostics:
    d_gain: float
    g_bar: float
    a_weight: float
    mu_weight: float
    residual_norm: float = float("nan")
    projected: bool = False
    quad: float = float("nan")  # phi^T P phi with the pre-update P
    prediction: np.ndarray | None = None  # f(theta_hat^T phi), pre-update theta_hat


def new_estimator(theta0, pset, delta, f):
    """Fresh recursion state: P0 = identity, r0 = 1 (no regressor absorbed)."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 2 or theta0.shape[0] <= theta0.shape[1]:
        raise ValueError("theta0 must have shape (n+m, n) with m >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not pset.contains(theta0):
        raise ValueError("theta0 lies outside the parameter set")
    dim = theta0.shape[0]
    return EstimatorState(
        theta_hat=theta0.copy(),
        p_matrix=np.eye(dim),
        r_accum=1.0,
        step=0,
        delta=float(delta),
    )


def step_weights(state, phi, f, pset):
    """Adaptive weights for one step; absorbs ||phi||^2 into r first.

    Mutates state.r_accum (r_t includes the current regressor by definition).
    """
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("regressor must be finite")
    state.r_accum += float(phi @ phi)
    c = frobenius_norm(state.theta_hat.T @ phi) + pset.support_value(phi, n=state.n)
    d = 0.5 * f.alpha_env(c)
    g_bar = f.beta_env(c)
    quad = float(phi @ state.p_matrix @ phi)
    mu = (1.0 + np.log(state.r_accum)) ** (1.0 + state.delta) + d * g_bar**2 * quad
    a = 1.0 / (mu + d * d * quad)
    return StepDiagnostics(d_gain=d, g_bar=g_bar, a_weight=a, mu_weight=mu, quad=quad)


def estimator_step(state, phi, x_next, f, pset):
    """One recursion step on (phi_t, x_{t+1}); returns (new state, diagnostics).

    Order matters: r absorbs phi before mu is formed, and the covariance is
    contracted before the parameter update (which multiplies by P_{t+1}).
    """
    phi = np.asarray(phi, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    if phi.shape != (state.n + state.m,) or x_next.shape != (state.n,):
        raise ValueError(
            f"dimension mismatch: phi {phi.shape}, x_next {x_next.shape}, "
            f"expected ({state.n + state.m},) and ({state.n},)"
        )
    # the arrays are shared with ``state`` until replaced below; neither is
    # ever written in place
    st = EstimatorState(
        theta_hat=state.theta_hat,
        p_matrix=state.p_matrix,
        r_accum=state.r_accum,
        step=state.step,
        delta=state.delta,
        projection_count=state.projection_count,
    )
    diag = step_weights(st, phi, f, pset)
    d, a, mu, quad = diag.d_gain, diag.a_weight, diag.mu_weight, diag.quad

    contraction = a * d * d * quad
    if contraction >= 1.0:
        # impossible in exact arithmetic: a*(mu + d^2 quad) = 1; re-derive in
        # extended precision before declaring the run numerically dead
        quad_l = np.longdouble(phi) @ np.longdouble(st.p_matrix) @ np.longdouble(phi)
        mu_l = (1.0 + np.log(np.longdouble(st.r_accum))) ** (1.0 + st.delta) + (
            np.longdouble(d) * np.longdouble(diag.g_bar) ** 2 * quad_l
        )
        a_l = 1.0 / (mu_l + np.longdouble(d) ** 2 * quad_l)
        contraction = float(a_l * np.longdouble(d) ** 2 * quad_l)
        if contraction >= 1.0:
            raise NumericalAbort(
                f"covariance contraction factor {contraction} >= 1 at step {st.step}"
            )
        a = float(a_l)
        mu = float(mu_l)
        diag.a_weight, diag.mu_weight = a, mu

    p_phi = st.p_matrix @ phi
    p_next = st.p_matrix - (a * d * d) * np.outer(p_phi, p_phi)
    p_next = 0.5 * (p_next + p_next.T)

    diag.prediction = f.eval(st.theta_hat.T @ phi)
    residual = x_next - diag.prediction
    diag.residual_norm = frobenius_norm(residual)
    candidate = st.theta_hat + (d / mu) * np.outer(p_next @ phi, residual)
    if not np.isfinite(candidate).all():
        raise NumericalAbort(f"non-finite parameter update at step {st.step}")

    if pset.contains(candidate):
        st.theta_hat = candidate
    else:
        weight = np.linalg.inv(p_next)
        weight = 0.5 * (weight + weight.T)
        st.theta_hat = project_weighted(candidate, weight, pset, n=st.n)
        st.projection_count += 1
        diag.projected = True

    st.p_matrix = p_next
    st.step += 1
    return st, diag
