"""Nonlinear link functions with certified monotonicity/Lipschitz envelopes.

Each link f acts componentwise on R^n.  Besides evaluation, every kind
provides two radius-indexed envelopes:

* ``alpha_env(c)``: a positive lower bound on the derivative of each
  component over [-c, c] (strong-monotonicity modulus), nonincreasing in c.
* ``beta_env(c)``: an upper bound on the derivative over [-c, c]
  (Lipschitz constant), nondecreasing in c.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinkFunction",
    "Identity",
    "ScaledTanh",
    "Sigmoid",
    "LeakyRelu",
    "GaussianSurvival",
    "SmoothedClamp",
    "all_finite",
    "stacked",
    "EnvelopeContractError",
]

# A nonpositive alpha_env is a broken envelope contract.  A merely tiny
# one is legitimate for saturating links at large radii (the worst-case
# modulus decays exponentially), so it is clamped to a positive floor
# rather than rejected: the estimator gain d_t = alpha/2 only multiplies
# rank-one updates, it never divides.
_ALPHA_CLAMP_FLOOR = 1e-300

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class EnvelopeContractError(ValueError):
    """An envelope evaluated to a value incompatible with its contract."""


def ndtr(x):
    """The standard normal cdf, scipy.special.ndtr.  scipy is imported on
    the first call, which rebinds this module's ``ndtr`` to the scipy ufunc:
    later calls, the hot path's among them, go to the ufunc directly.  Only
    the links that take a Gaussian cdf call it, so the other links never
    load scipy."""
    global ndtr
    from scipy.special import ndtr
    return ndtr(x)


def _check_radius(c):
    if not math.isfinite(c) or c < 0:
        raise ValueError(f"envelope radius must be finite and >= 0, got {c}")


def all_finite(a):
    """np.isfinite(a).all() as a numpy bool, without the Python-level wrapper
    of ndarray.all."""
    return np.logical_and.reduce(np.isfinite(a), axis=None)


def _check_finite(z):
    z = np.asarray(z, dtype=float)
    if not all_finite(z):
        raise ValueError("link input must be finite")
    return z


def stacked(objs, trailing=0):
    """One object standing for R runs along a leading run axis: a copy of the
    first of ``objs`` (frozen dataclasses of one type) whose numeric fields
    that differ between the runs become arrays of shape (R,) followed by
    ``trailing`` unit axes, so that they broadcast against the runs' arrays.
    Fields the runs share stay Python scalars.  ``runs`` keeps the per-run
    objects, for what is evaluated per run."""
    first = objs[0]
    if any(type(obj) is not type(first) for obj in objs):
        raise ValueError("the runs of a batch must share the kind of each object")
    batch = copy.copy(first)
    for f in dataclasses.fields(first):
        vals = [getattr(obj, f.name) for obj in objs]
        if any(v != vals[0] for v in vals):
            if not all(isinstance(v, (int, float)) for v in vals):
                raise ValueError(f"the runs of a batch must share {type(first).__name__}.{f.name}")
            object.__setattr__(batch, f.name, np.array(vals).reshape((-1,) + (1,) * trailing))
    object.__setattr__(batch, "runs", tuple(objs))
    return batch


def _floor_alpha(a):
    # exact zero is underflow of a saturating tail, not a contract breach
    if not math.isfinite(a) or a < 0.0:
        raise EnvelopeContractError(
            f"alpha envelope must be nonnegative and finite, got {a!r}"
        )
    return max(a, _ALPHA_CLAMP_FLOOR)


@dataclass(frozen=True)
class LinkFunction:
    """Base class; immutable, safe to share across concurrent runs."""

    bounded = False

    def eval(self, z):
        raise NotImplementedError

    def alpha_env(self, c):
        raise NotImplementedError

    def beta_env(self, c):
        raise NotImplementedError

    def envelopes(self, c):
        """(alpha_env(c), beta_env(c)), for a caller that needs both."""
        return self.alpha_env(c), self.beta_env(c)


@dataclass(frozen=True)
class Identity(LinkFunction):
    bounded = False

    def eval(self, z):
        return _check_finite(z)

    def alpha_env(self, c):
        _check_radius(c)
        return 1.0

    def beta_env(self, c):
        _check_radius(c)
        return 1.0


@dataclass(frozen=True)
class ScaledTanh(LinkFunction):
    """z -> a*tanh(z); derivative a*sech^2 peaks at 0 and decays outward."""

    a: float = 1.0

    bounded = True

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("scale a must be positive")

    def eval(self, z):
        return self.a * np.tanh(_check_finite(z))

    def alpha_env(self, c):
        _check_radius(c)
        # 4a/(e^c + e^-c)^2 rewritten overflow-free for large c
        e = math.exp(-2.0 * c)
        return _floor_alpha(4.0 * self.a * e / (1.0 + e) ** 2)

    def beta_env(self, c):
        _check_radius(c)
        return self.a


@dataclass(frozen=True)
class Sigmoid(LinkFunction):
    bounded = True

    def eval(self, z):
        z = _check_finite(z)
        return 1.0 / (1.0 + np.exp(-z))

    def alpha_env(self, c):
        _check_radius(c)
        e = math.exp(-c)
        return _floor_alpha(e / (1.0 + e) ** 2)

    def beta_env(self, c):
        _check_radius(c)
        return 0.25


@dataclass(frozen=True)
class LeakyRelu(LinkFunction):
    slope: float = 0.1

    bounded = False

    def __post_init__(self):
        if not 0.0 < self.slope < 1.0:
            raise ValueError("leaky-ReLU slope must lie in (0, 1)")

    def eval(self, z):
        z = _check_finite(z)
        return np.maximum(self.slope * z, z)

    def alpha_env(self, c):
        _check_radius(c)
        return self.slope

    def beta_env(self, c):
        _check_radius(c)
        return 1.0


@dataclass(frozen=True)
class GaussianSurvival(LinkFunction):
    """Gaussian threshold link: z -> 1 - F(-z) = F(z), F the standard
    normal cdf.  The increasing branch used by probit/threshold models."""

    bounded = True

    def __post_init__(self):
        ndtr(0.0)  # binds scipy's ndtr while the config is validated

    def eval(self, z):
        # 1 - F(-z) = F(z): the increasing branch used by threshold models.
        return ndtr(_check_finite(z))

    def alpha_env(self, c):
        _check_radius(c)
        return _floor_alpha(_INV_SQRT_2PI * math.exp(-0.5 * c * c))

    def beta_env(self, c):
        _check_radius(c)
        return _INV_SQRT_2PI


def _clamp_mean(N, sigma, sigma_sq, z):
    """E[clamp(z + eta, 0, N)] for eta ~ N(0, sigma^2), in closed form, on a
    finite float array z: N - z*G(-z) - (N-z)*G(N-z) + sigma^2*(g(-z) - g(N-z))
    with G, g the cdf/pdf of N(0, sigma^2).  N, sigma and sigma_sq (sigma**2
    as a Python float power) may be (R, 1) columns of a batch."""
    n_mz = N - z
    # both standardized endpoints in one array, so that each of ndtr and exp
    # runs once; squaring -z/sigma gives exactly (z/sigma)^2
    s = np.array((-z / sigma, n_mz / sigma))
    G = ndtr(s)
    g = _INV_SQRT_2PI / sigma * np.exp(-0.5 * s**2)
    # the exact value lies in (0, N); the clip removes the cancellation error
    # of the closed form far outside the interval (about -3e-16 at z = -8 sigma)
    value = N - z * G[0] - n_mz * G[1] + sigma_sq * (g[0] - g[1])
    return np.minimum(np.maximum(value, 0.0), N)


@dataclass(frozen=True)
class SmoothedClamp(LinkFunction):
    """Gaussian-smoothed clamp onto [0, N]: z -> E[clamp(z + eta, 0, N)].

    The derivative is G(N-z) - G(-z), unimodal with its peak at z = N/2,
    so envelopes reduce to endpoint/critical-point evaluation.
    """

    N: float = 1.0
    sigma: float = 1.0
    sigma_sq: float = field(init=False, repr=False, compare=False)
    peak: float = field(init=False, repr=False, compare=False)  # _deriv(N/2)

    bounded = True

    def __post_init__(self):
        if self.N <= 0 or self.sigma <= 0:
            raise ValueError("SmoothedClamp requires N > 0 and sigma > 0")
        object.__setattr__(self, "sigma_sq", self.sigma**2)
        object.__setattr__(self, "peak", self._deriv(0.5 * self.N))  # binds scipy's ndtr

    def eval(self, z):
        return _clamp_mean(self.N, self.sigma, self.sigma_sq, _check_finite(z))

    def _deriv(self, z):
        return ndtr((self.N - z) / self.sigma) - ndtr(-z / self.sigma)

    def alpha_env(self, c):
        return self.envelopes(c)[0]

    def beta_env(self, c):
        return self.envelopes(c)[1]

    def envelopes(self, c):
        _check_radius(c)
        # the derivative is unimodal: its minimum over [-c, c] sits at an
        # endpoint, its maximum there or at the peak when [-c, c] holds N/2
        lo, hi = self._deriv(-c), self._deriv(c)
        beta = max(lo, hi, self.peak) if 0.5 * self.N <= c else max(lo, hi)
        return _floor_alpha(float(min(lo, hi))), float(beta)

