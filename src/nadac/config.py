"""Run-configuration schema: validation and object construction.

Configs are plain JSON.  Validation reports the dotted field path of the
first violated constraint; construction happens only after validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import control, estimator, maps, metrics, simulate

__all__ = [
    "ConfigError", "validate_config", "build_run", "build_batch", "batch_key", "load_config",
    "RunObjects",
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


def _require(cfg, key, path, typ=None):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}", "missing required field")
    val = cfg[key]
    if typ is not None and not isinstance(val, typ):
        raise ConfigError(f"{path}.{key}", f"expected {typ}, got {type(val).__name__}")
    return val


def _number(val, path, kind=float):
    """``kind(val)``, or a ConfigError naming ``path`` when val is not a
    finite number or holds a boolean (for kind=int, also a number that is
    not integral; for kind=_floats, not an array of finite numbers)."""
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


def _numeric_leaves(cfg, prefix, keys):
    """Each of ``keys`` present in ``cfg`` must be a finite number; the
    error names ``prefix.key``."""
    for key in keys:
        if key in cfg:
            _number(cfg[key], f"{prefix}.{key}")


def _section(cfg, key, default, prefix=""):
    """An optional sub-object of the config; ``default`` when absent.
    ``prefix`` is the dotted path of ``cfg`` plus a dot, for the message."""
    val = cfg.get(key, default)
    if not isinstance(val, dict):
        raise ConfigError(prefix + key, f"expected an object, got {type(val).__name__}")
    return val


@dataclass(kw_only=True)
class RunObjects(simulate.RunSpec):
    """A validated config: the run the engine runs, plus what the command
    needs around it."""

    mode: str
    horizon: int
    eig_stride: int
    log_stride: int


def validate_config(cfg):
    """Validate and construct; returns RunObjects or raises ConfigError."""
    mode = cfg.get("mode", "closed_loop")
    if mode not in ("closed_loop", "open_loop"):
        raise ConfigError("mode", f"must be closed_loop or open_loop, got {mode!r}")

    plant_cfg = _require(cfg, "plant", "", dict)
    n = _number(_require(plant_cfg, "n", "plant"), "plant.n", int)
    m = _number(_require(plant_cfg, "m", "plant"), "plant.m", int)
    if n < 1 or m < 1:
        raise ConfigError("plant.n", "dimensions must be positive")
    link_cfg = _require(plant_cfg, "link", "plant", dict)
    _numeric_leaves(link_cfg, "plant.link", ("a", "slope", "N", "sigma"))
    try:
        link = maps.link_from_config(link_cfg, n)
    except KeyError as exc:
        raise ConfigError(f"plant.link.{exc.args[0]}", "missing required field") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("plant.link", str(exc)) from exc
    theta_star = _number(
        _require(plant_cfg, "theta_star", "plant", list), "plant.theta_star", _floats
    )
    if theta_star.shape != (n + m, n):
        raise ConfigError(
            "plant.theta_star", f"expected shape ({n + m}, {n}), got {theta_star.shape}"
        )
    x0 = _number(plant_cfg.get("x0", np.zeros(n).tolist()), "plant.x0", _floats)
    if x0.shape != (n,):
        raise ConfigError("plant.x0", f"expected length {n}")

    pset_cfg = _require(cfg, "parameter_set", "", dict)
    _numeric_leaves(pset_cfg, "parameter_set", ("radius", "radius_a", "radius_b", "rho_eps"))
    try:
        pset = estimator.parameter_set_from_config(pset_cfg)
    except KeyError as exc:
        raise ConfigError(f"parameter_set.{exc.args[0]}", "missing required field") from exc
    except ValueError as exc:
        raise ConfigError("parameter_set", str(exc)) from exc
    if not pset.contains(theta_star, shrunk=True):
        raise ConfigError(
            "plant.theta_star", "must lie strictly inside the shrunken parameter set"
        )

    est_cfg = _section(cfg, "estimator", {})
    delta = _number(est_cfg.get("delta", 0.5), "estimator.delta")
    if delta <= 0:
        raise ConfigError("estimator.delta", "must be positive")
    theta0 = _number(
        est_cfg.get("theta0", np.zeros((n + m, n)).tolist()), "estimator.theta0", _floats
    )
    if theta0.shape != (n + m, n):
        raise ConfigError("estimator.theta0", f"expected shape ({n + m}, {n})")
    if not pset.contains(theta0):
        raise ConfigError("estimator.theta0", "must lie in the parameter set")

    noise_cfg = _require(cfg, "noise", "", dict)
    _numeric_leaves(noise_cfg, "noise", ("half_width", "sigma", "trunc"))
    try:
        noise = simulate.noise_from_config(noise_cfg, n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("noise", str(exc)) from exc
    if link.bounded and not noise.bounded:
        raise ConfigError("noise.kind", "Gaussian noise is not allowed with bounded links")

    mech = None
    probe = None
    input_policy = None
    if mode == "closed_loop":
        policy_cfg = _require(cfg, "policy", "", dict)
        _numeric_leaves(policy_cfg, "policy", ("x_leader",))
        gain_cfg = _section(policy_cfg, "gain", {}, "policy.")
        _numeric_leaves(gain_cfg, "policy.gain", ("kappa0", "c1", "c2"))
        try:
            mech = control.policy_from_config(policy_cfg, n, m)
        except KeyError as exc:
            raise ConfigError("policy", f"missing required field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("policy", str(exc)) from exc
        # the arrays the policy parsed: Riccati weights on the state and on
        # the raw input (before the lift), or the pinning pattern
        if isinstance(mech, control.RiccatiFeedback):
            raw_dim = m - 3 if mech.lift_kind == "quadratic_si" else m
            arrays = {"Q": (mech.Q, (n, n)), "R": (mech.R, (raw_dim, raw_dim))}
        else:
            arrays = {"pattern": (mech.pattern, (m,))}
        for key, (arr, shape) in arrays.items():
            if arr.shape != shape or not np.isfinite(arr).all():
                raise ConfigError(
                    f"policy.{key}", f"expected finite entries of shape {shape}, got {arr.shape}"
                )
        # the DARE has B = I, so the feedback before the lift has n entries
        if isinstance(mech, control.RiccatiFeedback) and raw_dim != n:
            raise ConfigError(
                "plant.m",
                f"Riccati feedback with lift {mech.lift_kind!r} needs a raw input of "
                f"n = {n} entries, got {raw_dim} from m = {m}",
            )
        probe_cfg = _section(cfg, "probe", {"b": 0.0, "bound_eps": 0.0})
        _numeric_leaves(probe_cfg, "probe", ("b", "half_width", "bound_eps"))
        try:
            probe = control.probe_from_config(probe_cfg, mech.raw_dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError("probe", str(exc)) from exc
    else:
        ip_cfg = _section(cfg, "input_policy", {"kind": "zero"})
        kind = ip_cfg.get("kind", "zero")
        if kind == "zero":
            input_policy = "zero"
        elif kind == "iid_uniform":
            input_policy = (
                "iid_uniform",
                _number(ip_cfg.get("half_width", 1.0), "input_policy.half_width"),
            )
        elif kind == "state_feedback":
            K = _number(_require(ip_cfg, "K", "input_policy"), "input_policy.K", _floats)
            if K.shape != (m, n):
                raise ConfigError("input_policy.K", f"expected shape ({m}, {n})")
            input_policy = ("state_feedback", K)
        else:
            raise ConfigError("input_policy.kind", f"unknown kind {kind!r}")

    met_cfg = _section(cfg, "metrics", {})
    gamma = _number(met_cfg.get("gamma", 4.0), "metrics.gamma")
    if met_cfg.get("rate_probes", False):
        if gamma <= 2:
            raise ConfigError("metrics.gamma", "rate probes need gamma > 2")
        b = _number(_section(cfg, "probe", {}).get("b", 0.0), "probe.b")
        try:
            metrics.eta_default(b, gamma)
        except ValueError as exc:
            raise ConfigError("metrics.gamma", str(exc)) from exc

    horizon = _number(cfg.get("horizon", 10_000), "horizon", int)
    if horizon < 1:
        raise ConfigError("horizon", "must be >= 1")
    eig_stride = _number(met_cfg.get("eig_stride", 100), "metrics.eig_stride", int)
    if eig_stride < 1:
        raise ConfigError("metrics.eig_stride", "must be >= 1")
    log_stride = _number(cfg.get("log_stride", 1), "log_stride", int)
    if log_stride < 1:
        raise ConfigError("log_stride", "must be >= 1")
    seed = _number(cfg.get("seed", 0), "seed", int)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")

    return RunObjects(
        simulate.PlantSpec(theta_star=theta_star, link=link, n=n, m=m, x0=x0),
        pset, noise, seed, mech=mech, probe=probe, input_policy=input_policy, theta0=theta0,
        delta=delta, gamma=gamma, mode=mode, horizon=horizon, eig_stride=eig_stride,
        log_stride=log_stride,
    )


def build_run(cfg):
    """Validate a config dict and execute the described run."""
    ro = validate_config(cfg)
    if ro.mode == "closed_loop":
        return simulate.run_closed_loop(
            ro.plant,
            ro.pset,
            ro.mech,
            ro.probe,
            ro.noise,
            ro.horizon,
            ro.seed,
            theta0=ro.theta0,
            delta=ro.delta,
            gamma=ro.gamma,
            eig_stride=ro.eig_stride,
        )
    return simulate.run_open_loop_id(
        ro.plant,
        ro.pset,
        ro.input_policy,
        ro.noise,
        ro.horizon,
        ro.seed,
        theta0=ro.theta0,
        delta=ro.delta,
        gamma=ro.gamma,
        eig_stride=ro.eig_stride,
    )


def batch_key(ro):
    """Runs whose validated objects have equal keys can share a batch: the
    horizon, the eig stride and simulate.batch_key."""
    return (ro.horizon, ro.eig_stride) + simulate.batch_key(ro)


def build_batch(cfgs):
    """Validate configs of one batch_key and execute them in lockstep
    (simulate.run_batch).  Returns one entry per config, in order: its
    RunRecord, or the exception it raises alone (ConfigError, RunAbort)."""
    results = [None] * len(cfgs)
    runs = []
    for i, cfg in enumerate(cfgs):
        try:
            runs.append((i, validate_config(cfg)))
        except ConfigError as exc:
            results[i] = exc
    if len({batch_key(ro) for _, ro in runs}) > 1:
        raise ValueError("the configs of a batch must share batch_key")
    if runs:
        ro = runs[0][1]
        done = simulate.run_batch([r for _, r in runs], ro.horizon, ro.eig_stride)
        for (i, _), result in zip(runs, done):
            results[i] = result
    return results


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
