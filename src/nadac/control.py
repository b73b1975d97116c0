"""Control design mechanisms, probing signals, and the Riccati solver.

A policy mechanism maps a parameter matrix theta = [A, B]^T to a state
feedback law.  The adaptive input at time t is the certainty-equivalence
feedback under the latest settled estimate plus a decaying probe
v_t = (t+1)^{-b} * eps_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .maps import all_finite

__all__ = [
    "PinningLeader",
    "RiccatiFeedback",
    "ProbingSignal",
    "solve_dare",
    "probe_sample",
    "adaptive_input",
    "policy_eval",
    "frozen_policy",
    "DareError",
]


class DareError(RuntimeError):
    """Fixed-point Riccati iteration failed to converge."""


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
    with sup-norm residual <= tol.  A non-finite iterate (one that overflows,
    or a singular R + P) ends the iteration at once, with a DareError naming
    it and its residual.
    """
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    P = Q.copy() if p0 is None else np.asarray(p0, dtype=float).copy()
    a_t = A.T
    # one error state for the whole iteration, in place of one per _solve:
    # what would warn or raise LinAlgError makes the residual non-finite.
    # ndarray.dot makes the BLAS call of @ without the gufunc dispatch; a 1x1
    # dot may give -0.0 where @ gives +0.0, and adding Q clears it
    with np.errstate(all="ignore"):
        at_p = a_t.dot(P)  # A.T @ P @ A evaluates left to right
        # a caller's Q or p0 need not be symmetric, so the first P A is its
        # own product; every later P is symmetrized, and P A is (A^T P)^T
        p_a = P.dot(A)
        for k in range(1, max_iter + 1):
            gain = _umath_linalg.solve(R + P, p_a, signature="dd->d")
            nxt = at_p.dot(A) - at_p.dot(gain) + Q
            nxt = 0.5 * (nxt + nxt.T)
            # the sup norm of nxt - P on Python floats: max passes over a
            # NaN, which the sum of the magnitudes keeps
            dev = list(map(abs, (nxt - P).ravel().tolist()))
            res = sum(dev)
            if res == res:
                res = max(dev)
            if res <= tol:
                return nxt
            if not math.isfinite(res):
                raise DareError(f"DARE iterate non-finite at iteration {k} (residual {res:.3e})")
            P = nxt
            at_p = a_t.dot(P)
            p_a = at_p.T
    raise DareError(f"DARE iteration exceeded {max_iter} iterations (residual {res:.3e})")


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
    """State-independent pinning input: kappa(theta) * x_L on a fixed pattern,
    with the gain kappa(theta) = c1 * ||theta||_F + c2 affine in the
    parameter norm; c1 = 0 makes it the constant c2.
    """

    x_leader: float
    pattern: np.ndarray  # length m, e.g. e1
    c1: float = 0.0
    c2: float = 1.0

    def __post_init__(self):
        self.pattern = np.asarray(self.pattern, dtype=float)
        if not (self.c1 >= 0.0 and math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("a pinning gain needs a finite c1 >= 0 and a finite c2")

    @property
    def raw_dim(self):
        return self.pattern.size

    def kappa(self, theta):
        if self.c1 == 0.0:
            return self.c2
        return self.c1 * float(np.linalg.norm(theta)) + self.c2

    def raw_eval(self, theta, x):
        return self.kappa(theta) * self.x_leader * self.pattern

    def lift(self, x, u_raw):
        return u_raw

    def lift_probe(self, v):
        return v


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
    _cache_theta: list | None = field(init=False, default=None, repr=False)
    _cache_p: np.ndarray | None = field(init=False, default=None, repr=False)
    _cache_rp: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.lift_kind not in ("direct", "quadratic_si"):
            raise ValueError(f"unknown lift kind {self.lift_kind!r}")
        # relative to the largest |eigenvalue|, so a singular PSD Q passes
        q_eig = np.linalg.eigvalsh(self.Q)
        if q_eig[0] < -1e-12 * np.abs(q_eig).max():
            raise ValueError("Q must be positive semidefinite")
        if np.any(np.linalg.eigvalsh(self.R) <= 0):
            raise ValueError("R must be positive definite")

    @property
    def raw_dim(self):
        return self.R.shape[0]

    def riccati_solution(self, theta):
        """DARE solution for theta's A-block, warm-started per mechanism.
        The cache also keeps R + P, which the feedback solves with."""
        A = _a_block(theta, self.Q.shape[0])
        # the A block as Python floats: list == compares entry by entry as
        # the arrays' == does (-0.0 equals 0.0, NaN never matches), since a
        # fresh tolist never shares a float object with the cached one
        key = A.tolist()
        if key == self._cache_theta:
            return self._cache_p
        P = solve_dare(A, self.Q, self.R, p0=self._cache_p)
        self._cache_theta, self._cache_p, self._cache_rp = key, P, self.R + P
        return P

    def raw_eval(self, theta, x):
        P = self.riccati_solution(theta)
        return _feedback(self._cache_rp, P, _a_block(theta, self.Q.shape[0]), x)

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


def _feedback(rp, P, A, x):
    """(R + P)^{-1} P A x from R + P, P and A; a batch passes all four with
    a leading run axis.  One run uses @, not ndarray.dot: for n = 1, dot
    multiplies the 1x1 operands directly and keeps the sign of a zero
    (A < 0, x = 0 gives -0.0), where @ and the batch's np.matvec add the
    product to +0.0."""
    if x.ndim == 1:
        return _solve(rp, P @ (A @ x))
    return _solve(rp, np.matvec(P, np.matvec(A, x)))


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
        rp = np.array([mk._cache_rp for mk in mech])  # R + P, kept by each run's cache
        return _feedback(rp, P, theta[:, :n].mT, x)
    return np.array([mk.raw_eval(th, xr) for mk, th, xr in zip(mech, theta, x)])


def policy_eval(mech, theta, x):
    """Full policy output for one state (lift applied, no probe); for a batch
    as in ``adaptive_input``."""
    x = np.asarray(x, dtype=float)
    if not all_finite(x):
        raise ValueError("state must be finite")
    return (mech if x.ndim == 1 else mech[0]).lift(x, _raw_eval(mech, theta, x))


def frozen_policy(mech, theta):
    """x -> policy_eval(mech, theta, x), to the last bit, for a theta that
    never changes (a batch passes one mechanism per run, as a tuple).
    Riccati feedback solves each run's DARE once, on a cold copy of its
    mechanism (the caller's cache is left as it is), and keeps P, R + P and
    A; a pinning input is a constant."""
    batched = isinstance(mech, tuple)
    mechs, thetas = (mech, theta) if batched else ((mech,), (theta,))
    first = mechs[0]
    if isinstance(first, PinningLeader):
        u = np.array([mk.raw_eval(th, None) for mk, th in zip(mechs, thetas)])
        u = u if batched else u[0]

        def raw(x):
            return u
    else:
        n = first.Q.shape[0]
        cold = [replace(mk) for mk in mechs]
        P = np.array([mk.riccati_solution(th) for mk, th in zip(cold, thetas)])
        rp, A = np.array([mk._cache_rp for mk in cold]), theta[..., :n, :].mT
        if not batched:
            P, rp = P[0], rp[0]

        def raw(x):
            return _feedback(rp, P, A, x)

    def evaluate(x):
        if not all_finite(x):
            raise ValueError("state must be finite")
        return first.lift(x, raw(x))

    return evaluate


# ---------------------------------------------------------------------------
# Probing signal


@dataclass
class ProbingSignal:
    """v_t = (t+1)^{-decay_b} * eps_t, eps i.i.d. uniform on [-h, h] per
    coordinate (zero mean, covariance h^2/3 * I; h = sqrt(3) gives the
    identity).  A half width h of 0 switches the probe off: no draws.  With
    decay_b = 0 it is i.i.d., the open-loop input of identification."""

    decay_b: float
    half_width: float = 1.0

    def __post_init__(self):
        if not self.decay_b >= 0:  # NaN too
            raise ValueError("decay exponent must be >= 0")
        if not self.half_width >= 0:  # NaN too
            raise ValueError("probe half_width must be >= 0")


def probe_sample(sig, t, rng, shape):
    """Draw v_t of ``shape``, the mechanism's raw_dim; deterministic given
    the generator state.  A shape (steps, raw_dim) draws v_t ..
    v_{t+steps-1} at once, one row per step: the same values and the same
    use of the stream as that many single draws."""
    if sig.half_width == 0.0:
        return np.zeros(shape)
    eps = rng.uniform(-sig.half_width, sig.half_width, size=shape)
    if eps.ndim == 1:
        return (t + 1.0) ** (-sig.decay_b) * eps
    return np.array([[(s + 1.0) ** (-sig.decay_b)] for s in range(t, t + len(eps))]) * eps


def adaptive_input(mech, theta_hat_prev, x, v_raw):
    """u_t = pi_{theta_hat}(x_t) + v_t; returns (u, v) with v in input space.

    ``v_raw`` is the raw probe v_t as probe_sample draws it.  A batch passes
    one mechanism per run, theta_hat_prev and x with a leading run axis, and
    v_raw with one row per run; u and v then have one row per run.
    """
    x = np.asarray(x, dtype=float)
    lift = mech if x.ndim == 1 else mech[0]
    return lift.lift(x, _raw_eval(mech, theta_hat_prev, x) + v_raw), lift.lift_probe(v_raw)
