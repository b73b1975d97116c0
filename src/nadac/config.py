"""Run-configuration schema: validation and object construction.

Configs are plain JSON, and this module is the only one that reads them:
each field is read once, and a violated constraint is reported by the
dotted path of its field.  The objects of a run are built from the parsed
values; a ValueError of a constructor's own checks names the section.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import control, estimator, maps, metrics, simulate

__all__ = [
    "ConfigError", "validate_config", "build_run", "load_config",
    "RunObjects", "output_dir", "dare_matrices",
]


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def load_config(path):
    """The config in the JSON file ``path``; a ConfigError on "config" when
    the file cannot be read, is not JSON or holds no object."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("config", str(exc)) from None
    # a manifest echoes its config under "config"; accept either form
    if isinstance(cfg, dict) and "config" in cfg and "plant" not in cfg:
        cfg = cfg["config"]
    if not isinstance(cfg, dict):
        raise ConfigError("config", f"expected a JSON object, got {type(cfg).__name__}")
    return cfg


# the default of a field that has none: it must be present
_REQUIRED = object()


def _require(cfg, path, default):
    """The field at the dotted ``path``, whose last part is its key in the
    object ``cfg``; ``default`` when it is absent, or a ConfigError naming
    it when the default is _REQUIRED."""
    key = path.rpartition(".")[2]
    if key in cfg:
        return cfg[key]
    if default is _REQUIRED:
        raise ConfigError(path, "missing required field")
    return default


def _number(cfg, path, default, kind=float):
    """``kind`` of the field at ``path`` (as _require), or ``default`` as it
    is when absent.  A ConfigError names the field when its value is not a
    finite number or holds a boolean (for kind=int, also a number that is
    not integral; for kind=_floats, not an array of finite numbers)."""
    if path.rpartition(".")[2] not in cfg and default is not _REQUIRED:
        return default
    val = _require(cfg, path, _REQUIRED)
    if _has_bool(val):
        raise ConfigError(path, f"not a number: {val!r}")
    if kind is int and isinstance(val, float) and not val.is_integer():
        raise ConfigError(path, f"not an integer: {val!r}")
    try:
        out = kind(val)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"not numeric: {val!r}") from None
    if kind is not int and not np.isfinite(out).all():
        raise ConfigError(path, f"not finite: {val!r}")
    return out


def _has_bool(val):
    """A JSON boolean, which Python would take for 0 or 1, anywhere in val."""
    return isinstance(val, bool) or isinstance(val, list) and any(map(_has_bool, val))


def _floats(val):
    return np.asarray(val, dtype=float)


def _nonnegative(cfg, path, default):
    """The float at ``path`` (as _number), which must be >= 0."""
    val = _number(cfg, path, default)
    if val is not None and val < 0:
        raise ConfigError(path, f"must be >= 0, got {val!r}")
    return val


def _array(cfg, path, shape, default):
    """The float array at ``path`` (as _number), of the given shape."""
    arr = _number(cfg, path, default, _floats)
    if arr.shape != shape:
        raise ConfigError(path, f"expected shape {shape}, got {arr.shape}")
    return arr


def _symmetric(cfg, path, n, default):
    """The (n, n) float array at ``path`` (as _array), equal to its
    transpose: a DARE weight."""
    arr = _array(cfg, path, (n, n), default)
    if not np.array_equal(arr, arr.T):
        raise ConfigError(path, "must be symmetric")
    return arr


def _section(cfg, path, default):
    """The sub-object at ``path`` (as _require)."""
    val = _require(cfg, path, default)
    if not isinstance(val, dict):
        raise ConfigError(path, f"expected an object, got {type(val).__name__}")
    return val


def _kind(cfg, path, kinds, default):
    """The name at ``path`` (as _require), one of ``kinds``."""
    kind = _require(cfg, path, default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(path, f"unknown kind {kind!r}; known: {', '.join(kinds)}")
    return kind


def _construct(path, cls, *args, **kwargs):
    """``cls(*args, **kwargs)`` from parsed values; a ValueError of the
    constructor's own checks becomes a ConfigError on the section ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# link kind -> the class and the numeric fields it takes
_LINKS = {
    "identity": (maps.Identity, ()),
    "scaled_tanh": (maps.ScaledTanh, ("a",)),
    "sigmoid": (maps.Sigmoid, ()),
    "leaky_relu": (maps.LeakyRelu, ("slope",)),
    "gaussian_survival": (maps.GaussianSurvival, ()),
    "smoothed_clamp": (maps.SmoothedClamp, ("N", "sigma")),
}

# parameter-set kind -> the class and its radii
_PARAMETER_SETS = {
    "frobenius_ball": (estimator.FrobeniusBall, ("radius",)),
    "block_operator_balls": (estimator.BlockOperatorBalls, ("radius_a", "radius_b")),
}


def _link(cfg):
    cls, params = _LINKS[_kind(cfg, "plant.link.kind", _LINKS, _REQUIRED)]
    kwargs = {key: _number(cfg, f"plant.link.{key}", _REQUIRED) for key in params}
    return _construct("plant.link", cls, **kwargs)


def _parameter_set(cfg):
    cls, radii = _PARAMETER_SETS[_kind(cfg, "parameter_set.kind", _PARAMETER_SETS, _REQUIRED)]
    args = [_number(cfg, f"parameter_set.{key}", _REQUIRED) for key in radii]
    return _construct("parameter_set", cls, *args, _number(cfg, "parameter_set.rho_eps", 0.5))


def _noise(cfg):
    kind = _kind(cfg, "noise.kind", ("uniform_cube", "truncated_gaussian", "gaussian"), _REQUIRED)
    return _construct(
        "noise", simulate.NoiseSpec, kind=kind,
        half_width=_nonnegative(cfg, "noise.half_width", 0.1),
        sigma=_nonnegative(cfg, "noise.sigma", 1.0), trunc=_nonnegative(cfg, "noise.trunc", np.inf),
    )


def _policy(cfg, n, m):
    kind = _kind(cfg, "policy.kind", ("pinning_leader", "riccati_feedback"), _REQUIRED)
    if kind == "pinning_leader":
        x_leader = _number(cfg, "policy.x_leader", _REQUIRED)
        pattern = _array(cfg, "policy.pattern", (m,), np.ones(m))
        gain = _section(cfg, "policy.gain", {})
        # a constant gain kappa0 is the affine gain with c1 = 0 and c2 = kappa0
        if _kind(gain, "policy.gain.kind", ("constant", "affine_norm"), "constant") == "constant":
            c1, c2 = 0.0, _number(gain, "policy.gain.kappa0", 1.0)
        else:
            c1 = _number(gain, "policy.gain.c1", _REQUIRED)
            if c1 <= 0:
                raise ConfigError("policy.gain.c1", "must be positive")
            c2 = _number(gain, "policy.gain.c2", _REQUIRED)
        return control.PinningLeader(x_leader, pattern, c1, c2)
    lift = _kind(cfg, "policy.lift", ("direct", "quadratic_si"), "direct")
    # the DARE has B = I, so the feedback before the lift has n entries
    raw_dim = m - 3 if lift == "quadratic_si" else m
    if raw_dim != n:
        raise ConfigError(
            "plant.m",
            f"Riccati feedback with lift {lift!r} needs a raw input of n = {n} entries, "
            f"got {raw_dim} from m = {m}",
        )
    Q = _symmetric(cfg, "policy.Q", n, np.eye(n))
    R = _symmetric(cfg, "policy.R", n, np.eye(n))
    return _construct("policy", control.RiccatiFeedback, Q, R, lift_kind=lift)


def _probe(cfg):
    """The probe's one form: "scaled_uniform" is uniform on [-sqrt(3),
    sqrt(3)], of identity covariance, and a bound_eps of 0 switches it off."""
    b = _number(cfg, "probe.b", 0.0)
    kind = _kind(cfg, "probe.distribution", ("uniform_cube", "scaled_uniform"), "uniform_cube")
    width = _nonnegative(cfg, "probe.half_width", 1.0)
    if kind == "scaled_uniform":
        width = float(np.sqrt(3.0))
    if _nonnegative(cfg, "probe.bound_eps", None) == 0.0:
        width = 0.0
    return _construct("probe", control.ProbingSignal, b, width)


def dare_matrices(path):
    """A, Q and R of a ``nadac dare`` input file, float arrays read as a
    config's (_number): A square, Q and R of its shape and symmetric, Q
    positive semidefinite and R positive definite, as a run config's
    policy.Q and policy.R.  A ConfigError names the first that is not."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("matrices", str(exc)) from None
    if not isinstance(spec, dict):
        raise ConfigError("matrices", "expected a JSON object with A, Q and R")
    A = _number(spec, "A", _REQUIRED, _floats)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ConfigError("A", f"expected a square matrix, got shape {A.shape}")
    Q, R = (_symmetric(spec, name, len(A), _REQUIRED) for name in ("Q", "R"))
    _construct("Q", control.RiccatiFeedback, Q, np.eye(len(A)))  # with R = I only Q can fail
    _construct("R", control.RiccatiFeedback, Q, R)
    return A, Q, R


def output_dir(cfg):
    """The directory a command writes to, "out" when absent."""
    out = _require(cfg, "output_dir", "out")
    if not isinstance(out, str):
        raise ConfigError("output_dir", f"expected a string, got {type(out).__name__}")
    return out


@dataclass(kw_only=True)
class RunObjects(simulate.RunSpec):
    """A validated config: the run the engine runs, plus what the command
    needs around it."""

    log_stride: int
    output_dir: str


def validate_config(cfg):
    """Validate and construct; returns RunObjects or raises ConfigError."""
    mode = _kind(cfg, "mode", ("closed_loop", "open_loop"), "closed_loop")

    plant_cfg = _section(cfg, "plant", _REQUIRED)
    n = _number(plant_cfg, "plant.n", _REQUIRED, int)
    m = _number(plant_cfg, "plant.m", _REQUIRED, int)
    if n < 1:
        raise ConfigError("plant.n", "must be >= 1")
    if m < 1:
        raise ConfigError("plant.m", "must be >= 1")
    link = _link(_section(plant_cfg, "plant.link", _REQUIRED))
    theta_star = _array(plant_cfg, "plant.theta_star", (n + m, n), _REQUIRED)
    x0 = _array(plant_cfg, "plant.x0", (n,), np.zeros(n))

    pset = _parameter_set(_section(cfg, "parameter_set", _REQUIRED))
    if not pset.contains(theta_star, shrunk=True):
        raise ConfigError(
            "plant.theta_star", "must lie strictly inside the shrunken parameter set"
        )

    est_cfg = _section(cfg, "estimator", {})
    delta = _number(est_cfg, "estimator.delta", 0.5)
    if delta <= 0:
        raise ConfigError("estimator.delta", "must be positive")
    theta0 = _array(est_cfg, "estimator.theta0", (n + m, n), np.zeros((n + m, n)))
    if not pset.contains(theta0):
        raise ConfigError("estimator.theta0", "must lie in the parameter set")

    noise = _noise(_section(cfg, "noise", _REQUIRED))
    if link.bounded and not noise.bounded:
        raise ConfigError("noise.kind", "Gaussian noise is not allowed with bounded links")

    mech = input_gain = None
    if mode == "closed_loop":
        mech = _policy(_section(cfg, "policy", _REQUIRED), n, m)
        probe = _probe(_section(cfg, "probe", {"b": 0.0, "bound_eps": 0.0}))
    else:
        # the open-loop input: a probe of decay 0, plus K x for state feedback
        ip_cfg = _section(cfg, "input_policy", {})
        kind = _kind(ip_cfg, "input_policy.kind", ("zero", "iid_uniform", "state_feedback"), "zero")
        width = 0.0
        if kind == "iid_uniform":
            width = _nonnegative(ip_cfg, "input_policy.half_width", 1.0)
        elif kind == "state_feedback":
            input_gain = _array(ip_cfg, "input_policy.K", (m, n), _REQUIRED)
        probe = control.ProbingSignal(0.0, width)

    met_cfg = _section(cfg, "metrics", {})
    gamma = _number(met_cfg, "metrics.gamma", 4.0)
    if gamma <= 0:
        raise ConfigError("metrics.gamma", "must be positive")
    rate_probes = _require(met_cfg, "metrics.rate_probes", False)
    if not isinstance(rate_probes, bool):
        raise ConfigError("metrics.rate_probes", f"expected a boolean, got {rate_probes!r}")
    if rate_probes:
        if gamma <= 2:
            raise ConfigError("metrics.gamma", "rate probes need gamma > 2")
        b = _number(_section(cfg, "probe", {}), "probe.b", 0.0)
        try:
            metrics.eta_default(b, gamma)
        except ValueError as exc:
            raise ConfigError("metrics.gamma", str(exc)) from exc

    horizon = _number(cfg, "horizon", 10_000, int)
    if horizon < 1:
        raise ConfigError("horizon", "must be >= 1")
    eig_stride = _number(met_cfg, "metrics.eig_stride", 100, int)
    if eig_stride < 1:
        raise ConfigError("metrics.eig_stride", "must be >= 1")
    log_stride = _number(cfg, "log_stride", 1, int)
    if log_stride < 1:
        raise ConfigError("log_stride", "must be >= 1")
    seed = _number(cfg, "seed", 0, int)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")

    return RunObjects(
        simulate.PlantSpec(theta_star=theta_star, link=link, x0=x0),
        pset, noise, seed, probe, mech=mech, input_gain=input_gain, theta0=theta0,
        delta=delta, gamma=gamma, horizon=horizon, eig_stride=eig_stride,
        log_stride=log_stride, output_dir=output_dir(cfg),
    )


def build_run(cfg):
    """Execute the run of a config dict, or of its RunObjects when already
    validated, through the entry point of its mode with every RunSpec field."""
    ro = cfg if isinstance(cfg, RunObjects) else validate_config(cfg)
    spec = {f.name: getattr(ro, f.name) for f in fields(simulate.RunSpec)}
    run = simulate.run_closed_loop if ro.mech is not None else simulate.run_open_loop_id
    return run(**spec)


def set_field(cfg, dotted, value):
    """Set a nested scalar config field by dotted path (sweep axis)."""
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(dotted, "unknown sweep field")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(dotted, "unknown sweep field")
    node[parts[-1]] = value
