"""Online weighted-least-squares parameter estimator with projection.

State model: x_{t+1} = f(theta^T phi_t) + w_{t+1} with theta = [A, B]^T of
shape (n+m, n) and regressor phi_t = [x_t; u_t].  The recursion keeps an
estimate theta_hat, an inverse-Hessian surrogate P, and the cumulative
regressor energy r; weights mu_t grow like (1 + log r_t)^(1+delta), which
forces the estimate sequence to settle even without excitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import all_finite

__all__ = [
    "FrobeniusBall",
    "BlockOperatorBalls",
    "EstimatorState",
    "StepDiagnostics",
    "new_estimator",
    "frobenius_norm",
    "run_norms",
    "link_input",
    "step_weights",
    "estimator_step",
    "project_weighted",
    "ProjectionError",
    "NumericalAbort",
]


class ProjectionError(RuntimeError):
    """Weighted projection failed to converge."""


class NumericalAbort(RuntimeError):
    """Non-finite arithmetic or a persistent weight-identity violation."""


# ---------------------------------------------------------------------------
# Parameter sets


def frobenius_norm(a):
    """np.linalg.norm(a) of a float array, to the last bit and without its
    dispatch: the square root of the array's dot product with itself,
    raveled in memory order as np.linalg.norm ravels it."""
    a = np.asarray(a, dtype=float).ravel("K")
    return math.sqrt(a.dot(a))


def run_norms(a, rank):
    """frobenius_norm(a) of an array of rank ``rank`` (1 for a vector, 2 for
    a matrix).  With a leading run axis, the norm of each run's C-ordered
    slice, as an array: np.vecdot is the same dot per slice."""
    if a.ndim == rank:
        return frobenius_norm(a)
    a = a.reshape(len(a), -1)
    return np.sqrt(np.vecdot(a, a))


def _spectral_within(block, bound):
    """np.linalg.norm(block.T, 2) <= bound: the largest singular value of a
    parameter block against a bound, per run for a batch (``bound`` may then
    hold one value per run).  ||M||_2 <= ||M||_F, so a Frobenius norm below
    the bound by more than the SVD's rounding settles it without the SVD."""
    inside = run_norms(block, 2) <= bound * (1.0 - 1e-9)
    if block.ndim == 2:
        return inside or float(np.linalg.svd(block.T, compute_uv=False)[0]) <= bound
    if not np.logical_and.reduce(inside):
        bounds = np.broadcast_to(bound, inside.shape)
        for r in np.flatnonzero(~inside):
            inside[r] = float(np.linalg.svd(block[r].T, compute_uv=False)[0]) <= bounds[r]
    return inside


@dataclass(frozen=True)
class FrobeniusBall:
    """Theta = {theta : ||theta||_F <= radius}; the shrunken copy used by the
    projection is rho_eps * Theta."""

    radius: float
    rho_eps: float = 0.5

    def __post_init__(self):
        if not self.radius > 0:  # NaN too
            raise ValueError("radius must be positive")
        if not 0.0 < self.rho_eps <= 1.0:
            raise ValueError("rho_eps must lie in (0, 1]")

    def contains(self, theta, shrunk=False, tol=1e-12):
        r = self.radius * (self.rho_eps if shrunk else 1.0)
        return run_norms(theta, 2) <= r * (1.0 + tol)

    def support_value(self, phi, n):
        return self.radius * run_norms(phi, 1)

    def sample(self, n, m, rng):
        """Uniform-in-radius random member, for randomized checks."""
        g = rng.standard_normal((n + m, n))
        g /= max(np.linalg.norm(g), 1e-300)
        return g * self.radius * rng.uniform() ** (1.0 / (n * (n + m)))


@dataclass(frozen=True)
class BlockOperatorBalls:
    """Theta = {[A, B]^T : ||A|| <= radius_a, ||B|| <= radius_b} in the
    induced operator (spectral) norm, blocks split at row n."""

    radius_a: float
    radius_b: float
    rho_eps: float = 0.5

    def __post_init__(self):
        if not (self.radius_a > 0 and self.radius_b > 0):  # NaN too
            raise ValueError("block radii must be positive")
        if not 0.0 < self.rho_eps <= 1.0:
            raise ValueError("rho_eps must lie in (0, 1]")

    def contains(self, theta, shrunk=False, tol=1e-12):
        n = theta.shape[-1]
        s = self.rho_eps if shrunk else 1.0
        # both blocks are tested, so a non-finite block raises as the SVD does
        in_a = _spectral_within(theta[..., :n, :], s * self.radius_a * (1.0 + tol))
        if theta.shape[-2] <= n:
            return in_a
        in_b = _spectral_within(theta[..., n:, :], s * self.radius_b * (1.0 + tol))
        return in_a & in_b

    def support_value(self, phi, n):
        return self.radius_a * run_norms(phi[..., :n], 1) + self.radius_b * run_norms(
            phi[..., n:], 1
        )

    def sample(self, n, m, rng):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        a *= self.radius_a * rng.uniform() / max(np.linalg.norm(a, 2), 1e-300)
        b *= self.radius_b * rng.uniform() / max(np.linalg.norm(b, 2), 1e-300)
        return np.vstack([a.T, b.T])


# ---------------------------------------------------------------------------
# Weighted projection onto the shrunken set


def _project_frobenius(x, weight, radius):
    """argmin_{||y||_F <= radius} tr[(x-y)^T M (x-y)] via the Lagrangian
    y(lam) = (M + lam I)^{-1} M x; ||y(lam)||_F is monotone decreasing.
    The caller has returned already for an x in the ball."""
    dim = weight.shape[0]
    eye = np.eye(dim)
    mx = weight @ x

    def y_of(lam):
        return np.linalg.solve(weight + lam * eye, mx)

    lo, hi = 0.0, 1.0
    while np.linalg.norm(y_of(hi)) > radius:
        hi *= 2.0
        if hi > 1e300:
            raise ProjectionError("Frobenius-ball bisection failed to bracket")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        ymid = y_of(mid)
        nrm = np.linalg.norm(ymid)
        if abs(nrm - radius) <= 1e-10:
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
    raise ProjectionError("Frobenius-ball bisection did not converge")


def _clip_operator_norm(block, radius):
    """Euclidean projection of a matrix onto {||.||_2 <= radius}."""
    u, s, vt = np.linalg.svd(block, full_matrices=False)
    if s.size == 0 or s[0] <= radius:
        return block
    return u @ np.diag(np.minimum(s, radius)) @ vt


def _project_blocks(x, weight, pset):
    """Projected gradient on the weighted quadratic with spectral-ball
    Euclidean projections per block, split at row n = x.shape[1]; step
    1/lambda_max(M)."""
    n = x.shape[1]
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
    for _ in range(10_000):
        grad = -2.0 * weight @ (x - y)
        y = proj(y - 0.5 * step * grad)
        cur = obj(y)
        if prev - cur <= 1e-12 * max(1.0, abs(prev)):
            return y
        prev = cur
    raise ProjectionError("block projected-gradient did not converge")


def project_weighted(x, weight, pset):
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
        return _project_blocks(x, weight, pset)
    raise TypeError(f"unsupported parameter set {type(pset).__name__}")


# ---------------------------------------------------------------------------
# Estimator recursion


@dataclass
class EstimatorState:
    theta_hat: np.ndarray  # (n+m, n)
    p_matrix: np.ndarray  # (n+m, n+m), symmetric PD
    r_accum: float  # 1 + sum ||phi||^2
    delta: float

    @property
    def n(self):
        return self.theta_hat.shape[-1]

    @property
    def m(self):
        return self.theta_hat.shape[-2] - self.theta_hat.shape[-1]


@dataclass
class StepDiagnostics:
    d_gain: float
    g_bar: float
    a_weight: float
    mu_weight: float
    projected: bool = False
    quad: float = float("nan")  # phi^T P phi with the pre-update P
    prediction: np.ndarray | None = None  # f(theta_hat^T phi), pre-update theta_hat
    z: np.ndarray | None = None  # theta_hat^T phi, the link input of the prediction


def new_estimator(theta0, pset, delta, f):
    """Fresh recursion state: P0 = identity, r0 = 1 (no regressor absorbed)."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 2 or theta0.shape[0] <= theta0.shape[1]:
        raise ValueError("theta0 must have shape (n+m, n) with m >= 1")
    if not delta > 0:  # NaN too
        raise ValueError("delta must be positive")
    if not pset.contains(theta0):
        raise ValueError("theta0 lies outside the parameter set")
    dim = theta0.shape[0]
    return EstimatorState(
        theta_hat=theta0.copy(),
        p_matrix=np.eye(dim),
        r_accum=1.0,
        delta=float(delta),
    )


def _runs(obj, count):
    """The per-run objects of a stacked link or set (maps.stacked); an object
    that is not stacked serves every run."""
    return getattr(obj, "runs", None) or (obj,) * count


def _weights(f, delta, r, c, quad):
    """d_t, g_bar, mu_t and a_t of one run from its envelopes at radius c;
    Python float powers, which numpy's array power does not match bit for
    bit (the libm pow of a numpy scalar does, and gives inf where Python's
    raises OverflowError)."""
    alpha, g_bar = f.envelopes(c)
    d = 0.5 * alpha
    try:
        lead = (1.0 + float(np.log(r))) ** (1.0 + delta)
    except OverflowError:
        lead = math.inf
    mu = lead + d * g_bar**2 * quad
    return d, g_bar, mu, 1.0 / (mu + d * d * quad)


def link_input(theta_hat, phi):
    """theta_hat^T phi, the link input of the prediction f(theta_hat^T phi);
    with a leading run axis on both, one row per run."""
    return phi.dot(theta_hat) if phi.ndim == 1 else np.matvec(theta_hat.mT, phi)


def step_weights(state, phi, f, pset, z=None):
    """Adaptive weights for one step; absorbs ||phi||^2 into r first.

    Mutates state.r_accum (r_t includes the current regressor by definition).
    ``z`` is link_input(state.theta_hat, phi), formed here when not given.
    With a leading run axis on the state and phi (a batch, with f and pset
    stacked by maps.stacked), the weights are arrays with one entry per run,
    the scalar envelope math runs run by run, and state.r_accum is replaced
    rather than written in place.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim == 1:
        # phi.phi, which r absorbs, is not finite for a non-finite phi, so
        # phi itself is checked only when the dot is not finite
        energy = phi.dot(phi)
        if not math.isfinite(energy) and not all_finite(phi):
            raise ValueError("regressor must be finite")
        if z is None:
            z = link_input(state.theta_hat, phi)
        if type(pset) is FrobeniusBall and phi.flags.c_contiguous:
            # the ball's support, radius * frobenius_norm(phi), whose dot on
            # a contiguous phi is the phi.phi at hand
            support = pset.radius * math.sqrt(energy)
        else:
            support = pset.support_value(phi, n=state.n)
        c = math.sqrt(z.dot(z)) + support
        quad = float(phi.dot(state.p_matrix).dot(phi))  # phi @ P @ phi, left to right
        state.r_accum += float(energy)
        d, g_bar, mu, a = _weights(f, state.delta, state.r_accum, c, quad)
    else:
        if not all_finite(phi):
            raise ValueError("regressor must be finite")
        if z is None:
            z = link_input(state.theta_hat, phi)
        c = run_norms(z, 1) + pset.support_value(phi, n=state.n)
        quad = np.vecdot(np.vecmat(phi, state.p_matrix), phi)
        state.r_accum = state.r_accum + np.vecdot(phi, phi)
        runs = zip(
            *map(
                _weights, _runs(f, len(phi)), state.delta.tolist(), state.r_accum.tolist(),
                c.tolist(), quad.tolist(),
            )
        )
        d, g_bar, mu, a = (np.array(col) for col in runs)
    return StepDiagnostics(d_gain=d, g_bar=g_bar, a_weight=a, mu_weight=mu, quad=quad, z=z)


def _extended_weights(phi, p_matrix, r_accum, delta, d, g_bar):
    """(a_t, mu_t) of one run re-derived in extended precision, for a
    contraction factor a d^2 quad >= 1, which is impossible in exact
    arithmetic: a (mu + d^2 quad) = 1.  Raises NumericalAbort when the
    factor stays >= 1."""
    quad_l = np.longdouble(phi) @ np.longdouble(p_matrix) @ np.longdouble(phi)
    mu_l = (1.0 + np.log(np.longdouble(r_accum))) ** (1.0 + delta) + (
        np.longdouble(d) * np.longdouble(g_bar) ** 2 * quad_l
    )
    a_l = 1.0 / (mu_l + np.longdouble(d) ** 2 * quad_l)
    contraction = float(a_l * np.longdouble(d) ** 2 * quad_l)
    if contraction >= 1.0:
        raise NumericalAbort(f"covariance contraction factor {contraction} >= 1")
    return float(a_l), float(mu_l)


def _project(candidate, p_next, pset):
    """Weighted projection of one run's candidate, weight P_{t+1}^{-1}."""
    weight = np.linalg.inv(p_next)
    weight = 0.5 * (weight + weight.T)
    return project_weighted(candidate, weight, pset)


def _step_one(st, diag, phi, x_next, f, pset, prediction):
    """The rest of estimator_step for a state without a run axis, from its
    weights: the arithmetic of a batch of one, to the same bits, in fewer
    numpy calls."""
    d, a, mu, quad = diag.d_gain, diag.a_weight, diag.mu_weight, diag.quad
    if a * d * d * quad >= 1.0:
        a, mu = _extended_weights(phi, st.p_matrix, st.r_accum, st.delta, d, diag.g_bar)
        diag.a_weight, diag.mu_weight = a, mu
    p_phi = st.p_matrix.dot(phi)
    p_next = st.p_matrix - (a * d * d) * np.multiply.outer(p_phi, p_phi)
    p_next = 0.5 * (p_next + p_next.T)
    if prediction is None:
        prediction = f.eval(diag.z)
    diag.prediction = prediction
    update = np.multiply.outer(p_next.dot(phi), x_next - prediction)
    candidate = st.theta_hat + (d / mu) * update
    if not all_finite(candidate):
        raise NumericalAbort("non-finite parameter update")
    if pset.contains(candidate):
        st.theta_hat = candidate
    else:
        st.theta_hat = _project(candidate, p_next, pset)
        diag.projected = True
    st.p_matrix = p_next
    return st, diag


def estimator_step(state, phi, x_next, f, pset, z=None, prediction=None):
    """One recursion step on (phi_t, x_{t+1}); returns (new state, diagnostics).

    Order matters: r absorbs phi before mu is formed, and the covariance is
    contracted before the parameter update (which multiplies by P_{t+1}).
    ``z`` and ``prediction`` are link_input(state.theta_hat, phi) and f(z),
    for a caller that has formed them (the simulation loop evaluates f once
    per step, on the plant's inputs and z together); each is formed here
    when not given.
    A state without a run axis finishes in _step_one.  A leading run axis
    on the state (theta_hat (R, n+m, n), p_matrix (R, n+m, n+m), r_accum
    and delta (R,)), phi and x_next advances R runs at
    once, each to the same bits as alone; the extended-precision fallback
    and the projection then run per run.
    """
    phi = np.asarray(phi, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    runs = state.theta_hat.shape[:-2]
    if phi.shape != runs + (state.n + state.m,) or x_next.shape != runs + (state.n,):
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
        delta=state.delta,
    )
    diag = step_weights(st, phi, f, pset, z)
    if not runs:
        return _step_one(st, diag, phi, x_next, f, pset, prediction)
    d, a, mu, quad = diag.d_gain, diag.a_weight, diag.mu_weight, diag.quad

    contraction = a * d * d * quad
    if np.maximum.reduce(contraction) >= 1.0:
        for r in np.flatnonzero(contraction >= 1.0):
            a[r], mu[r] = _extended_weights(
                phi[r], st.p_matrix[r], st.r_accum[r], st.delta[r], d[r], diag.g_bar[r]
            )

    gain, step = (a * d * d)[:, None, None], (d / mu)[:, None, None]
    p_phi = np.matvec(st.p_matrix, phi)
    p_next = st.p_matrix - gain * (p_phi[:, :, None] * p_phi[:, None, :])
    p_next = 0.5 * (p_next + p_next.mT)

    diag.prediction = f.eval(diag.z) if prediction is None else prediction
    residual = x_next - diag.prediction
    update = np.matvec(p_next, phi)[:, :, None] * residual[:, None, :]
    candidate = st.theta_hat + step * update
    if not all_finite(candidate):
        raise NumericalAbort("non-finite parameter update")

    inside = pset.contains(candidate)
    diag.projected = ~inside
    if not np.logical_and.reduce(inside):
        sets = _runs(pset, len(phi))
        for r in np.flatnonzero(diag.projected):
            candidate[r] = _project(candidate[r], p_next[r], sets[r])
    st.theta_hat = candidate
    st.p_matrix = p_next
    return st, diag
