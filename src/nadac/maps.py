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
from scipy.special import ndtr

__all__ = [
    "LinkFunction",
    "Identity",
    "ScaledTanh",
    "Sigmoid",
    "LeakyRelu",
    "GaussianSurvival",
    "SmoothedClamp",
    "CustomComponentwise",
    "smoothed_clamp_value",
    "all_finite",
    "stacked",
    "link_from_config",
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
            if f.name == "dim" or not all(isinstance(v, (int, float)) for v in vals):
                raise ValueError(f"the runs of a batch must share {type(first).__name__}.{f.name}")
            object.__setattr__(batch, f.name, np.array(vals).reshape((-1,) + (1,) * trailing))
    object.__setattr__(batch, "runs", tuple(objs))
    return batch


def _floor_alpha(a):
    # exact zero is underflow of a saturating tail, not a contract breach
    if not np.isfinite(a) or a < 0.0:
        raise EnvelopeContractError(
            f"alpha envelope must be nonnegative and finite, got {a!r}"
        )
    return max(a, _ALPHA_CLAMP_FLOOR)


@dataclass(frozen=True)
class LinkFunction:
    """Base class; immutable, safe to share across concurrent runs."""

    dim: int = 1

    bounded = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def eval(self, z):
        raise NotImplementedError

    def alpha_env(self, c):
        raise NotImplementedError

    def beta_env(self, c):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


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

    def to_config(self):
        return {"kind": "identity"}


@dataclass(frozen=True)
class ScaledTanh(LinkFunction):
    """z -> a*tanh(z); derivative a*sech^2 peaks at 0 and decays outward."""

    a: float = 1.0

    bounded = True

    def __post_init__(self):
        super().__post_init__()
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

    def to_config(self):
        return {"kind": "scaled_tanh", "a": self.a}


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

    def to_config(self):
        return {"kind": "sigmoid"}


@dataclass(frozen=True)
class LeakyRelu(LinkFunction):
    slope: float = 0.1

    bounded = False

    def __post_init__(self):
        super().__post_init__()
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

    def to_config(self):
        return {"kind": "leaky_relu", "slope": self.slope}


@dataclass(frozen=True)
class GaussianSurvival(LinkFunction):
    """Gaussian threshold link: z -> 1 - F(-z) = F(z), F the standard
    normal cdf.  The increasing branch used by probit/threshold models."""

    bounded = True

    def eval(self, z):
        # 1 - F(-z) = F(z): the increasing branch used by threshold models.
        return ndtr(_check_finite(z))

    def alpha_env(self, c):
        _check_radius(c)
        return _floor_alpha(_INV_SQRT_2PI * math.exp(-0.5 * c * c))

    def beta_env(self, c):
        _check_radius(c)
        return _INV_SQRT_2PI

    def to_config(self):
        return {"kind": "gaussian_survival"}


def smoothed_clamp_value(N, sigma, z):
    """E[clamp(z + eta, 0, N)] for eta ~ N(0, sigma^2), in closed form.

    Equals N - z*G(-z) - (N-z)*G(N-z) + sigma^2*(g(-z) - g(N-z)) with G, g
    the cdf/pdf of N(0, sigma^2).  Vectorized over z.
    """
    if N <= 0 or sigma <= 0:
        raise ValueError("smoothed clamp requires N > 0 and sigma > 0")
    return _clamp_mean(N, sigma, sigma**2, _check_finite(z))


def _clamp_mean(N, sigma, sigma_sq, z):
    """smoothed_clamp_value on a finite float array; N, sigma and sigma_sq
    (sigma**2 as a Python float power) may be (R, 1) columns of a batch."""
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

    bounded = True

    def __post_init__(self):
        super().__post_init__()
        if self.N <= 0 or self.sigma <= 0:
            raise ValueError("SmoothedClamp requires N > 0 and sigma > 0")
        object.__setattr__(self, "sigma_sq", self.sigma**2)

    def eval(self, z):
        return _clamp_mean(self.N, self.sigma, self.sigma_sq, _check_finite(z))

    def _deriv(self, z):
        return ndtr((self.N - z) / self.sigma) - ndtr(-z / self.sigma)

    def alpha_env(self, c):
        _check_radius(c)
        # derivative is unimodal: minimum over [-c, c] sits at an endpoint
        return _floor_alpha(float(min(self._deriv(-c), self._deriv(c))))

    def beta_env(self, c):
        _check_radius(c)
        cands = [self._deriv(-c), self._deriv(c)]
        if -c <= 0.5 * self.N <= c:
            cands.append(self._deriv(0.5 * self.N))
        return float(max(cands))

    def to_config(self):
        return {"kind": "smoothed_clamp", "N": self.N, "sigma": self.sigma}


@dataclass(frozen=True)
class CustomComponentwise(LinkFunction):
    """User-supplied scalar components with derivative-bound callbacks.

    ``deriv_lower(c)`` / ``deriv_upper(c)`` must bound the derivative of the
    matching component over [-c, c].  The bounds are spot-checked against
    finite differences at construction and rejected if violated.
    """

    components: tuple = ()
    deriv_lower: tuple = ()
    deriv_upper: tuple = ()
    bounded_flag: bool = False
    _fd_check_points: int = field(default=64, repr=False)

    @property
    def bounded(self):  # type: ignore[override]
        return self.bounded_flag

    def __post_init__(self):
        super().__post_init__()
        if not (len(self.components) == len(self.deriv_lower) == len(self.deriv_upper) == self.dim):
            raise ValueError("need one component and one bound pair per dimension")
        self._verify_bounds()

    def _verify_bounds(self, radius=5.0, h=1e-6, tol=1e-4):
        zs = np.linspace(-radius, radius, self._fd_check_points)
        for fi, lo, hi in zip(self.components, self.deriv_lower, self.deriv_upper):
            lo_c, hi_c = lo(radius), hi(radius)
            for z in zs:
                d = (fi(z + h) - fi(z - h)) / (2.0 * h)
                if d < lo_c - tol or d > hi_c + tol:
                    raise EnvelopeContractError(
                        f"sampled derivative {d:.6g} at z={z:.3g} escapes "
                        f"declared bounds [{lo_c:.6g}, {hi_c:.6g}]"
                    )

    def eval(self, z):
        z = _check_finite(z)
        rows = np.reshape(z, (-1, self.dim))  # one row per run of a batch
        out = np.array([[fi(zi) for fi, zi in zip(self.components, row)] for row in rows])
        return out.reshape(np.shape(z))

    def alpha_env(self, c):
        _check_radius(c)
        return _floor_alpha(min(lo(c) for lo in self.deriv_lower))

    def beta_env(self, c):
        _check_radius(c)
        return max(hi(c) for hi in self.deriv_upper)

    def to_config(self):
        raise ValueError("custom componentwise links are not serializable")


_KINDS = {
    "identity": lambda cfg, dim: Identity(dim=dim),
    "scaled_tanh": lambda cfg, dim: ScaledTanh(dim=dim, a=float(cfg["a"])),
    "sigmoid": lambda cfg, dim: Sigmoid(dim=dim),
    "leaky_relu": lambda cfg, dim: LeakyRelu(dim=dim, slope=float(cfg["slope"])),
    "gaussian_survival": lambda cfg, dim: GaussianSurvival(dim=dim),
    "smoothed_clamp": lambda cfg, dim: SmoothedClamp(
        dim=dim, N=float(cfg["N"]), sigma=float(cfg["sigma"])
    ),
}


def link_from_config(cfg, dim):
    """Build a LinkFunction from its tagged-object config form."""
    kind = cfg.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown link kind {kind!r}; known: {sorted(_KINDS)}")
    return _KINDS[kind](cfg, dim)
