"""The config schema: validate_config builds the objects that direct
construction builds, and an unknown kind exits 2 naming its field."""

import dataclasses
import json
import operator

import numpy as np
import pytest

from nadac import cli, config as cfgmod, control, estimator, maps, simulate


def _base():
    """A closed-loop Riccati run with n = m = 2 on an unbounded link."""
    return {
        "plant": {
            "n": 2, "m": 2, "link": {"kind": "leaky_relu", "slope": 0.3},
            "theta_star": [[0.6, 0.2], [0.3, 0.5], [-1.0, 0.0], [0.0, -1.0]],
        },
        "parameter_set": {"kind": "frobenius_ball", "radius": 5.0},
        "noise": {"kind": "uniform_cube", "half_width": 0.1},
        "policy": {"kind": "riccati_feedback", "Q": [[1.0, 0.0], [0.0, 1.0]],
                   "R": [[2.0, 0.0], [0.0, 1.0]]},
        "probe": {"b": 0.125, "half_width": 0.5},
    }


def _epidemic():
    with open(cli.preset_path("epidemic_sigma5")) as fh:
        return json.load(fh)


def _set(path, value):
    """A mutation that sets the dotted ``path`` of the base config to
    ``value``, or deletes it when value is None."""
    *parents, key = path.split(".")

    def mutate(cfg):
        node = cfg
        for p in parents:
            node = node[p]
        if value is None:
            del node[key]
        else:
            node[key] = value
        return cfg
    return mutate


def _unchanged(cfg):
    return cfg


def _open_loop(input_policy):
    def mutate(cfg):
        del cfg["policy"], cfg["probe"]
        cfg["mode"] = "open_loop"
        if input_policy is not None:
            cfg["input_policy"] = input_policy
        return cfg
    return mutate


_PATTERN = [1.0, 0.0]
_CASES = [
    # every link kind
    ("identity", _set("plant.link", {"kind": "identity"}), "plant.link", maps.Identity()),
    ("scaled_tanh", _set("plant.link", {"kind": "scaled_tanh", "a": 2.0}), "plant.link",
     maps.ScaledTanh(a=2.0)),
    ("sigmoid", _set("plant.link", {"kind": "sigmoid"}), "plant.link", maps.Sigmoid()),
    ("leaky_relu", _unchanged, "plant.link", maps.LeakyRelu(slope=0.3)),
    ("gaussian_survival", _set("plant.link", {"kind": "gaussian_survival"}), "plant.link",
     maps.GaussianSurvival()),
    ("smoothed_clamp", _set("plant.link", {"kind": "smoothed_clamp", "N": 10, "sigma": 5.0}),
     "plant.link", maps.SmoothedClamp(N=10.0, sigma=5.0)),
    # both parameter sets; rho_eps defaults to 0.5
    ("frobenius_ball", _unchanged, "pset", estimator.FrobeniusBall(5.0, 0.5)),
    ("block_operator_balls",
     _set("parameter_set", {"kind": "block_operator_balls", "radius_a": 3.0, "radius_b": 4,
                            "rho_eps": 0.8}),
     "pset", estimator.BlockOperatorBalls(3.0, 4.0, 0.8)),
    # the pinning leader: constant gain (given, and by default) and affine gain
    ("pinning-constant",
     _set("policy", {"kind": "pinning_leader", "x_leader": 1.63, "pattern": _PATTERN,
                     "gain": {"kind": "constant", "kappa0": 0.7}}),
     "mech", control.PinningLeader(1.63, np.array(_PATTERN), c1=0.0, c2=0.7)),
    ("pinning-defaults", _set("policy", {"kind": "pinning_leader", "x_leader": 1}),
     "mech", control.PinningLeader(1.0, np.ones(2))),
    ("pinning-affine",
     _set("policy", {"kind": "pinning_leader", "x_leader": 1.63, "pattern": _PATTERN,
                     "gain": {"kind": "affine_norm", "c1": 0.5, "c2": 0.2}}),
     "mech", control.PinningLeader(1.63, np.array(_PATTERN), c1=0.5, c2=0.2)),
    # Riccati feedback: direct lift (given weights, and the identity by
    # default) and the quadratic lift of the epidemic preset
    ("riccati-direct", _unchanged, "mech",
     control.RiccatiFeedback(np.eye(2), np.diag([2.0, 1.0]))),
    ("riccati-defaults", _set("policy", {"kind": "riccati_feedback"}), "mech",
     control.RiccatiFeedback(np.eye(2), np.eye(2))),
    ("riccati-quadratic_si", lambda cfg: _epidemic(), "mech",
     control.RiccatiFeedback(np.eye(2), np.eye(2), lift_kind="quadratic_si")),
    # the probe's one form: the uniform cube's half width, sqrt(3) for the
    # scaled uniform; a nonzero bound_eps leaves it, a zero one (or no probe
    # section) makes it 0
    ("probe-uniform_cube", _unchanged, "probe",
     control.ProbingSignal(0.125, half_width=0.5)),
    ("probe-scaled_uniform", _set("probe", {"b": 0.2, "distribution": "scaled_uniform"}),
     "probe", control.ProbingSignal(0.2, half_width=float(np.sqrt(3.0)))),
    ("probe-bound_eps", _set("probe", {"b": 0.1, "bound_eps": 0.3}), "probe",
     control.ProbingSignal(0.1)),
    ("probe-bound_eps-zero",
     _set("probe", {"b": 0.1, "distribution": "scaled_uniform", "bound_eps": 0}), "probe",
     control.ProbingSignal(0.1, half_width=0.0)),
    ("probe-absent", _set("probe", None), "probe",
     control.ProbingSignal(0.0, half_width=0.0)),
    # all three noise kinds
    ("uniform_cube", _unchanged, "noise",
     simulate.NoiseSpec("uniform_cube", half_width=0.1)),
    ("truncated_gaussian",
     _set("noise", {"kind": "truncated_gaussian", "sigma": 0.3, "trunc": 0.9}), "noise",
     simulate.NoiseSpec("truncated_gaussian", sigma=0.3, trunc=0.9)),
    ("gaussian", _set("noise", {"kind": "gaussian", "sigma": 0.3}), "noise",
     simulate.NoiseSpec("gaussian", sigma=0.3)),
    # the open-loop input policies: a probe of decay 0, and the gain K
    ("input-zero", _open_loop(None), "probe input_gain", (control.ProbingSignal(0.0, 0.0), None)),
    ("input-iid_uniform", _open_loop({"kind": "iid_uniform"}), "probe input_gain",
     (control.ProbingSignal(0.0, 1.0), None)),
    ("input-state_feedback", _open_loop({"kind": "state_feedback", "K": [[0.1, 0], [0, 0.2]]}),
     "probe input_gain", (control.ProbingSignal(0.0, 0.0), np.diag([0.1, 0.2]))),
]


def _same(a, b):
    """a == b, with the array fields of the objects compared entrywise."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("mutate, attr, expected", [case[1:] for case in _CASES],
                         ids=[case[0] for case in _CASES])
def test_validate_config_builds_the_directly_constructed_objects(mutate, attr, expected):
    ro = cfgmod.validate_config(mutate(_base()))
    assert _same(operator.attrgetter(*attr.split())(ro), expected)


_UNKNOWN_KINDS = [
    ("plant.link.kind", _set("plant.link", {"kind": "spline"})),
    ("parameter_set.kind", _set("parameter_set.kind", "simplex")),
    ("policy.kind", _set("policy.kind", "mpc")),
    ("policy.kind", _set("policy.kind", None)),
    ("policy.lift", _set("policy.lift", "cubic")),
    ("input_policy.kind", _open_loop({"kind": "chirp"})),
    ("noise.kind", _set("noise.kind", "pink")),
]


@pytest.mark.parametrize("field, mutate", _UNKNOWN_KINDS,
                         ids=["link", "parameter_set", "policy", "policy-missing", "lift",
                              "input_policy", "noise"])
def test_unknown_kind_is_validation_error(tmp_path, capsys, field, mutate):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(mutate(_base())))
    assert cli.main(["validate", str(p)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {field}: ")
