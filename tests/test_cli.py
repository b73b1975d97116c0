"""Command-line surface: exit codes, artifacts, sweeps, reproducibility."""

import errno
import functools
import json
import multiprocessing
import operator
import os
import re
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nadac import cli, config as cfgmod, control, estimator, simulate

DATA = Path(__file__).parent / "data"


def _opinion_cfg(horizon=100):
    with open(cli.preset_path("opinion")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = horizon
    cfg["log_stride"] = 1
    return cfg


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# exit codes


def test_run_ok_writes_artifacts(tmp_path, capsys):
    p = _write_cfg(tmp_path, _opinion_cfg())
    code = cli.main(["run", str(p), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert (tmp_path / "out" / "run.csv").exists()
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["summary"]["steps"] == 100
    assert capsys.readouterr().out.startswith("ok:")


def test_manifest_reports_the_validated_seed_and_stride(tmp_path):
    # an integral float seed runs as the integer, and the manifest says so;
    # the CSV keeps every log_stride-th row
    cfg = _opinion_cfg(horizon=10)
    cfg["seed"], cfg["log_stride"] = 3.0, 4.0
    assert cli.main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert manifest["seed"] == 3 and isinstance(manifest["seed"], int)
    rows = (tmp_path / "o" / "run.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "4", "8"]


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not-json", "json-list"])
def test_load_config_raises_config_error(tmp_path, content):
    p = tmp_path / "cfg.json"
    if content is not None:
        p.write_text(content)
    with pytest.raises(cfgmod.ConfigError) as info:
        cfgmod.load_config(p)
    assert info.value.path == "config"


def test_config_that_exits_2_makes_no_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NADAC_OUT", raising=False)
    p = str(_write_cfg(tmp_path, _opinion_cfg(horizon=0)))
    assert cli.main(["run", p]) == cli.EXIT_VALIDATION
    assert cli.main(["sweep", p, "--param", "noise.half_width", "--values", "0.1",
                     "--seeds", "0", "--workers", "1"]) == cli.EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


def test_bad_field_reports_dotted_path(tmp_path, capsys):
    cfg = _opinion_cfg()
    cfg["plant"]["theta_star"] = [[0.0]]
    code = cli.main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "plant.theta_star" in capsys.readouterr().err


def test_gaussian_noise_with_bounded_link_rejected(tmp_path, capsys):
    cfg = _opinion_cfg()
    cfg["noise"] = {"kind": "gaussian", "sigma": 0.1}
    code = cli.main(["validate", str(_write_cfg(tmp_path, cfg))])
    assert code == cli.EXIT_VALIDATION
    assert "noise.kind" in capsys.readouterr().err


def _divergent_cfg():
    cfg = _opinion_cfg(horizon=2_000)
    # identity link with expanding dynamics and no stabilizing policy
    cfg["plant"]["link"] = {"kind": "identity"}
    n = cfg["plant"]["n"]
    for i in range(n):
        cfg["plant"]["theta_star"][i] = [2.0 if i == j else 0.0 for j in range(n)]
    cfg["plant"]["x0"] = [1.0] * n
    cfg["parameter_set"]["radius"] = 40.0
    cfg["policy"] = {"kind": "pinning_leader", "x_leader": 0.0,
                     "pattern": [0.0], "kappa0": 0.0}
    return cfg


def test_divergent_run_is_runtime_abort(tmp_path, capsys):
    code = cli.main(["run", str(_write_cfg(tmp_path, _divergent_cfg())),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME
    assert "runtime abort" in capsys.readouterr().err
    assert (tmp_path / "o" / "run_truncated.csv").exists()


def test_truncated_csv_goes_to_the_config_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NADAC_OUT", raising=False)
    cfg = _divergent_cfg()
    cfg["output_dir"] = str(tmp_path / "cfg_out")
    assert cli.main(["run", str(_write_cfg(tmp_path, cfg))]) == cli.EXIT_RUNTIME
    assert (tmp_path / "cfg_out" / "run_truncated.csv").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [5, None, ["out"], {"dir": "out"}],
                         ids=["int", "null", "list", "object"])
def test_non_string_output_dir_exits_2(tmp_path, monkeypatch, capsys, value):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NADAC_OUT", raising=False)
    cfg = _opinion_cfg(horizon=3)
    cfg["output_dir"] = value
    p = str(_write_cfg(tmp_path, cfg))
    assert cli.main(["run", p]) == cli.EXIT_VALIDATION
    assert cli.main(["sweep", p, "--param", "noise.half_width", "--values", "0.1",
                     "--seeds", "0", "--workers", "1"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("validation error: output_dir: ") for line in err)
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_reference_dare_overflow_is_runtime_abort_at_step_0(tmp_path, capsys):
    # theta*'s A-block 1e150 overflows the second iterate of the reference's
    # DARE, which the first step solves: exit 3 and a CSV of no rows
    cfg = _leaky_relu_cfg("closed_loop")
    cfg["plant"].update(n=1, m=1, theta_star=[[1e150], [1.0]])
    cfg["parameter_set"]["radius"] = 1e151
    cfg["policy"].update(Q=[[1.0]], R=[[1.0]])
    code = cli.main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime abort: DARE iterate non-finite") and "(step 0)" in err
    lines = (tmp_path / "o" / "run_truncated.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("t,x0,")


def _leaky_relu_cfg(mode, horizon=50):
    # the estimate moves every step, so Riccati feedback re-solves the DARE
    # every step
    cfg = {
        "mode": mode,
        "plant": {
            "n": 2, "m": 2, "link": {"kind": "leaky_relu", "slope": 0.3},
            "theta_star": [[0.6, 0.2], [0.3, 0.5], [-1.0, 0.0], [0.0, -1.0]],
        },
        "parameter_set": {"kind": "frobenius_ball", "radius": 5.0, "rho_eps": 0.5},
        "noise": {"kind": "uniform_cube", "half_width": 0.1},
        "horizon": horizon,
    }
    if mode == "closed_loop":
        cfg["policy"] = {"kind": "riccati_feedback", "Q": [[1.0, 0.0], [0.0, 1.0]],
                         "R": [[1.0, 0.0], [0.0, 1.0]]}
        cfg["probe"] = {"b": 0.125, "half_width": 1.0}
    else:
        cfg["input_policy"] = {"kind": "iid_uniform", "half_width": 1.0}
    return cfg


@pytest.mark.parametrize("mode, owner, attr, error", [
    ("closed_loop", control, "solve_dare", control.DareError("no fixed point")),
    ("closed_loop", estimator, "estimator_step", estimator.ProjectionError("no bracket")),
    ("open_loop", estimator, "estimator_step", estimator.NumericalAbort("non-finite update")),
], ids=["closed-dare", "closed-projection", "open-numerical"])
def test_numerical_failure_is_runtime_abort(tmp_path, capsys, monkeypatch, mode, owner,
                                            attr, error):
    real, calls = getattr(owner, attr), []

    def fail_on_fifth_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, fail_on_fifth_call)
    p = _write_cfg(tmp_path, _leaky_relu_cfg(mode))
    code = cli.main(["run", str(p), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime abort" in err and str(error) in err
    step = int(re.search(r"\(step (\d+)\)", err).group(1))
    assert step > 0
    lines = (tmp_path / "o" / "run_truncated.csv").read_text().splitlines()
    assert lines[0].startswith("t,x0,x1,u0,u1,")
    assert len(lines) == 1 + step


@pytest.mark.parametrize("field", ["metrics.eig_stride", "log_stride"])
def test_stride_below_one_is_validation_error(tmp_path, capsys, field):
    cfg = _opinion_cfg(horizon=50)
    cfgmod.set_field(cfg, field, 0)
    code = cli.main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err


def _set_field(field, value):
    def mutate(cfg):
        cfgmod.set_field(cfg, field, value)
        return cfg
    return mutate


def _link_without_scale(cfg):
    cfg["plant"]["link"] = {"kind": "scaled_tanh"}
    return cfg


def _riccati_entry(key, value):
    # the opinion preset's policy is a pinning leader; Riccati weights need
    # a plant with m = n
    def mutate(cfg):
        cfg = _leaky_relu_cfg("closed_loop")
        cfg["policy"][key][0][1] = value
        return cfg
    return mutate


def _affine_without_c2(cfg):
    cfg["policy"]["gain"] = {"kind": "affine_norm", "c1": 0.5}
    return cfg


def _noise_without_kind(cfg):
    del cfg["noise"]["kind"]
    return cfg


@pytest.mark.parametrize("field, mutate", [
    ("horizon", _set_field("horizon", "many")),
    ("seed", _set_field("seed", "x")),
    ("plant.n", _set_field("plant.n", "four")),
    ("estimator.delta", _set_field("estimator.delta", "small")),
    ("metrics.eig_stride", _set_field("metrics.eig_stride", "x")),
    ("log_stride", _set_field("log_stride", [1])),
    ("plant.x0", _set_field("plant.x0", "zero")),
    ("plant.theta_star", _set_field("plant.theta_star", [["a"] * 4] * 5)),
    ("config", lambda cfg: [cfg]),  # a JSON list at the root
    ("plant.link.a", _link_without_scale),
    # an integer field takes no boolean and no number that is not integral
    ("horizon", _set_field("horizon", 2.5)),
    ("horizon", _set_field("horizon", True)),
    ("seed", _set_field("seed", 1.5)),
    ("log_stride", _set_field("log_stride", True)),
    ("metrics.eig_stride", _set_field("metrics.eig_stride", 10.5)),
    ("plant.n", _set_field("plant.n", True)),
    ("plant.m", _set_field("plant.m", 4.5)),
    # nor does a float field, or an entry of a float array
    ("estimator.delta", _set_field("estimator.delta", True)),
    ("noise.half_width", _set_field("noise.half_width", True)),
    ("plant.x0", _set_field("plant.x0", [1.0, True, -1.0, -1.0])),
    ("policy.pattern", _set_field("policy.pattern", [True])),
    ("policy.Q", _riccati_entry("Q", True)),
    ("policy.R", _riccati_entry("R", False)),
    # an error names the field, not only its section
    ("policy.Q", _riccati_entry("Q", "a")),
    ("policy.gain.c2", _affine_without_c2),
    ("noise.kind", _noise_without_kind),
], ids=["horizon", "seed", "plant.n", "estimator.delta", "metrics.eig_stride",
        "log_stride", "plant.x0", "plant.theta_star", "root-list", "link-missing-a",
        "horizon-2.5", "horizon-true", "seed-1.5", "log_stride-true", "eig_stride-10.5",
        "plant.n-true", "plant.m-4.5", "delta-true", "half_width-true", "x0-entry-true",
        "pattern-entry-true", "Q-entry-true", "R-entry-false", "Q-entry-string",
        "affine-missing-c2", "noise-missing-kind"])
def test_malformed_field_is_validation_error(tmp_path, capsys, field, mutate):
    cfg = mutate(_opinion_cfg(horizon=50))
    p = _write_cfg(tmp_path, cfg)
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION, err
        assert f"validation error: {field}:" in err


def test_integral_float_is_an_integer(tmp_path, capsys):
    # sweep parses every --values entry as a float, so 3.0 must stay a horizon
    p = str(_write_cfg(tmp_path, _opinion_cfg(horizon=3.0)))
    assert cli.main(["run", p, "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("ok: steps=3 ")
    sweep = ["sweep", p, "--param", "horizon", "--seeds", "0", "--workers", "1",
             "--out", str(tmp_path / "o"), "--values"]
    assert cli.main(sweep + ["3"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("value=3.0 seed=0 ")
    assert cli.main(sweep + ["2.5"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: horizon: not an integer")


def _preset_cfg(name, horizon=100):
    with open(cli.preset_path(name)) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = horizon
    cfg["log_stride"] = 1
    return cfg


def _get_path(cfg, path):
    """The field or array entry at ``path``, a tuple of keys and indices."""
    return functools.reduce(operator.getitem, path, cfg)


def _set_path(cfg, path, value):
    _get_path(cfg, path[:-1])[path[-1]] = value


def _set_entry(*path, value):
    def mutate(cfg):
        _set_path(cfg, path, value)
        return cfg
    return mutate


def _affine_gain(c1, c2):
    def mutate(cfg):
        cfg["policy"]["gain"] = {"kind": "affine_norm", "c1": c1, "c2": c2}
        return cfg
    return mutate


def _open_loop_iid(*mutations):
    # the open-loop variant that the openloop_id workload runs, then mutated
    def mutate(cfg):
        cfg["mode"] = "open_loop"
        cfg["input_policy"] = {"kind": "iid_uniform", "half_width": 1.0}
        del cfg["policy"], cfg["probe"]
        for mutation in mutations:
            cfg = mutation(cfg)
        return cfg
    return mutate


@pytest.mark.parametrize("preset, field, mutate", [
    ("opinion", "policy.gain", _set_field("policy.gain", 1.0)),
    ("opinion", "parameter_set.radius", _set_field("parameter_set.radius", None)),
    ("opinion", "parameter_set.rho_eps", _set_field("parameter_set.rho_eps", [])),
    ("epidemic_sigma5", "parameter_set.radius_a", _set_field("parameter_set.radius_a", {})),
    ("epidemic_sigma5", "parameter_set.radius_b", _set_field("parameter_set.radius_b", None)),
    ("epidemic_sigma5", "plant.theta_star", _set_entry("plant", "theta_star", 0, 0, value=None)),
    ("opinion", "plant.x0", _set_entry("plant", "x0", 0, value=None)),
    ("epidemic_sigma5", "policy.Q", _set_field("policy.Q", 1.0)),
    ("epidemic_sigma5", "policy.R", _set_field("policy.R", [[1.0]])),
    ("opinion", "seed", _set_field("seed", -1)),
    ("opinion", "policy.gain.kind", _set_field("policy.gain.kind", "affine")),
    # a negative width would clip every noise draw to one sign, or turn the
    # probe off without a word
    ("epidemic_sigma5", "noise.trunc", _set_field("noise.trunc", -1.0)),
    ("opinion", "noise.half_width", _set_field("noise.half_width", -1.0)),
    ("epidemic_sigma5", "noise.sigma", _set_field("noise.sigma", -0.5)),
    ("opinion", "probe.half_width", _set_field("probe.half_width", -1.0)),
    ("opinion", "probe.bound_eps", _set_entry("probe", "bound_eps", value=-1.0)),
    ("opinion", "plant.m", _set_field("plant.m", 0)),
    ("opinion", "probe.distribution", _set_field("probe.distribution", "gaussian")),
    ("opinion", "metrics.rate_probes", _set_field("metrics.rate_probes", "no")),
    ("opinion", "metrics.rate_probes", _set_field("metrics.rate_probes", 0.0)),
    ("opinion", "metrics.rate_probes", _set_field("metrics.rate_probes", [])),
    # kappa reads the affine pair only when c1 > 0, so any other c1 would run
    # the constant gain without a word
    ("opinion", "policy.gain.c1", _affine_gain(0, 3)),
    ("opinion", "policy.gain.c1", _affine_gain(-0.5, 3)),
    # ||v||^gamma of the open loop's zero v has no negative power
    ("opinion", "metrics.gamma", _open_loop_iid(_set_field("metrics", {"gamma": -1.0}))),
    ("opinion", "metrics.gamma", _set_field("metrics", {"gamma": 0.0})),
    ("opinion", "input_policy.half_width",
     _open_loop_iid(_set_field("input_policy.half_width", -1.0))),
    ("opinion", "plant.n", _set_field("plant.n", 0)),
    # the shrunken set is the ball of radius 2.5
    ("opinion", "plant.theta_star", _set_entry("plant", "theta_star", 0, 0, value=3.0)),
    ("opinion", "estimator.delta", _set_field("estimator.delta", 0)),
    ("opinion", "estimator.theta0", _set_entry("estimator", "theta0", value=[[3.0] * 4] * 5)),
    # opinion's metrics.rate_probes is on, with b = 0.125
    ("opinion", "metrics.gamma", _set_field("metrics.gamma", 2.0)),
    ("opinion", "metrics.gamma", _set_field("metrics.gamma", 4.0)),
], ids=["gain-not-object", "radius-null", "rho_eps-list", "radius_a-object",
        "radius_b-null", "theta_star-null-entry", "x0-null-entry", "Q-scalar",
        "R-wrong-size", "seed-negative", "gain-kind-unknown", "trunc-negative",
        "noise-half_width-negative", "sigma-negative", "probe-half_width-negative",
        "bound_eps-negative", "m-zero", "distribution-unknown", "rate_probes-string",
        "rate_probes-float", "rate_probes-list", "c1-zero", "c1-negative",
        "gamma-negative-open-loop", "gamma-zero", "input-half_width-negative", "n-zero",
        "theta_star-outside-shrunken-set", "delta-zero", "theta0-outside-set",
        "rate_probes-gamma-2", "rate_probes-empty-eta-interval"])
def test_bad_value_is_validation_error(tmp_path, capsys, preset, field, mutate):
    p = _write_cfg(tmp_path, mutate(_preset_cfg(preset, horizon=3)))
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION, err
        assert f"validation error: {field}:" in err


@pytest.mark.parametrize("preset, mutate", [
    ("epidemic_sigma5", _set_field("noise.trunc", 0.0)),
    ("epidemic_sigma5", _set_field("noise.sigma", 0.0)),
    ("opinion", _set_field("noise.half_width", 0.0)),
    ("opinion", _set_field("probe.half_width", 0.0)),
    ("opinion", _set_entry("probe", "bound_eps", value=0.0)),
    ("opinion", _open_loop_iid(_set_field("input_policy.half_width", 0.0))),
], ids=["trunc", "sigma", "noise-half_width", "probe-half_width", "bound_eps",
        "input-half_width"])
def test_zero_widths_are_valid(tmp_path, capsys, preset, mutate):
    # zero turns the noise or the probe off, which the tests of the engine use
    p = _write_cfg(tmp_path, mutate(_preset_cfg(preset, horizon=3)))
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("ok: steps=3 ")


_NULL_LEAVES = [
    ("opinion", "policy.x_leader", _set_field("policy.x_leader", None)),
    ("opinion", "policy.gain.kappa0", _set_field("policy.gain.kappa0", None)),
    ("opinion", "policy.gain.c1", _affine_gain(None, 0.5)),
    ("opinion", "policy.gain.c2", _affine_gain(0.5, None)),
    ("opinion", "noise.half_width", _set_field("noise.half_width", None)),
    ("epidemic_sigma5", "noise.sigma", _set_field("noise.sigma", None)),
    ("epidemic_sigma5", "noise.trunc", _set_field("noise.trunc", None)),
    ("opinion", "probe.b", _set_field("probe.b", None)),
    ("epidemic_sigma5", "probe.half_width", _set_field("probe.half_width", None)),
    ("opinion", "plant.link.a", _set_field("plant.link.a", None)),
    ("epidemic_sigma5", "plant.link.N", _set_field("plant.link.N", None)),
    ("epidemic_sigma5", "plant.link.sigma", _set_field("plant.link.sigma", None)),
]


@pytest.mark.parametrize("preset, field, mutate", _NULL_LEAVES,
                         ids=[field for _, field, _ in _NULL_LEAVES])
def test_null_numeric_leaf_names_its_path(tmp_path, capsys, preset, field, mutate):
    p = _write_cfg(tmp_path, mutate(_preset_cfg(preset, horizon=3)))
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION, err
        assert f"validation error: {field}:" in err


def test_direct_riccati_needs_n_raw_inputs(tmp_path, capsys):
    # the DARE has B = I: with m = 3 inputs and n = 2 states the raw
    # feedback cannot be formed, which used to surface only at step 0
    cfg = _leaky_relu_cfg("closed_loop")
    cfg["plant"]["m"] = 3
    cfg["plant"]["theta_star"].append([0.0, 0.0])
    cfg["policy"]["R"] = np.eye(3).tolist()
    p = _write_cfg(tmp_path, cfg)
    assert cli.main(["validate", str(p)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "validation error: plant.m:" in err and "n = 2" in err


def _paths(node, prefix=()):
    """The path of every field and array entry under ``node``, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, prefix + (key,))


def _json_kind(val):
    return "number" if type(val) in (int, float) else type(val).__name__


_PRESET_CFGS = {name: _preset_cfg(name, horizon=3) for name in ("opinion", "epidemic_sigma5")}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.floats(-3.0, 10.0),
    st.text(max_size=4), st.just([]), st.just({}),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_type_mutation_exits_cleanly(tmp_path, data):
    # one field or array entry of a shipped preset takes a JSON value of
    # another type: validate exits 0 or 2, run 0, 2 or 3, and nothing raises
    name = data.draw(st.sampled_from(sorted(_PRESET_CFGS)))
    cfg = json.loads(json.dumps(_PRESET_CFGS[name]))
    path = data.draw(st.sampled_from(list(_paths(cfg))))
    old = _json_kind(_get_path(cfg, path))
    _set_path(cfg, path, data.draw(_JSON_VALUES.filter(lambda val: _json_kind(val) != old)))
    p = _write_cfg(tmp_path, cfg)
    assert cli.main(["validate", str(p)]) in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) in (
        cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_RUNTIME
    )


def test_validate_ok(capsys):
    assert cli.main(["validate", str(cli.preset_path("opinion"))]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


# ---------------------------------------------------------------------------
# dare subcommand


def test_dare_ok(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"A": [[0.5]], "Q": [[1.0]], "R": [[1.0]]}))
    assert cli.main(["dare", str(p)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "P =" in out and "residual" in out


def test_dare_singular_r_rejected(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"A": [[0.5]], "Q": [[1.0]], "R": [[0.0]]}))
    assert cli.main(["dare", str(p)]) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("spec", [
    {"A": [[1e200]], "Q": [[1.0]], "R": [[1.0]]},  # the first iterate overflows
], ids=["overflow"])
def test_dare_non_finite_iterate_is_runtime_abort(tmp_path, capsys, spec):
    # the iteration stops at the first non-finite iterate, not after
    # max_iter iterations of NaN, and without a traceback
    p = tmp_path / "m.json"
    p.write_text(json.dumps(spec))
    assert cli.main(["dare", str(p)]) == cli.EXIT_RUNTIME
    assert re.search(r"^runtime abort: .*non-finite.* iteration 1\b", capsys.readouterr().err)


_EYE2 = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("spec, name", [
    ({"A": [[0.5, 0.1]], "Q": [[1.0]], "R": [[1.0]]}, "A"),
    ({"A": [0.5, 0.1], "Q": _EYE2, "R": _EYE2}, "A"),
    ({"A": _EYE2, "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], "R": _EYE2}, "Q"),
    ({"A": _EYE2, "Q": _EYE2, "R": [[1.0]]}, "R"),
    ({"A": [[0.5, 0.0], [0.0, float("nan")]], "Q": _EYE2, "R": _EYE2}, "A"),
    ({"A": _EYE2, "Q": [[1.0, 0.0], [0.0, float("inf")]], "R": _EYE2}, "Q"),
    ({"A": _EYE2, "Q": _EYE2, "R": [[float("-inf"), 0.0], [0.0, 1.0]]}, "R"),
    # a JSON boolean is no number, as in a run config
    ({"A": [[True]], "Q": [[1.0]], "R": [[True]]}, "A"),
    ({"A": [[0.5]], "Q": [[True]], "R": [[1.0]]}, "Q"),
    ({"A": _EYE2, "Q": _EYE2, "R": [[1.0, False], [False, 1.0]]}, "R"),
    # R must be positive definite, as a run config's policy.R
    ({"A": [[0.5]], "Q": [[1.0]], "R": [[-2.0]]}, "R"),
    ({"A": [[0.9, 0.2], [-0.3, 0.7]], "Q": _EYE2, "R": [[1.0, 0.0], [0.0, -1.0]]}, "R"),
    # Q must be positive semidefinite, as a run config's policy.Q
    ({"A": [[1.0]], "Q": [[-1.0]], "R": [[1.0]]}, "Q"),
    ({"A": [[0.9, 0.2], [-0.3, 0.7]], "Q": [[-0.5, 0.0], [0.0, 1.0]], "R": _EYE2}, "Q"),
    # no file, and a file that holds no JSON object
    (None, "matrices"),
    ([[0.5]], "matrices"),
], ids=["A-not-square", "A-vector", "Q-3x3", "R-1x1", "A-nan", "Q-inf", "R-inf", "A-bool",
        "Q-bool", "R-bool", "R-negative", "R-indefinite", "Q-negative", "Q-indefinite",
        "missing-file", "json-list"])
def test_dare_bad_matrix_is_validation_error(tmp_path, capsys, spec, name):
    p = tmp_path / "m.json"
    if spec is not None:
        p.write_text(json.dumps(spec))
    assert cli.main(["dare", str(p)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {name}:")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_shorthand_sigma_and_partial_failure(tmp_path, capsys):
    with open(cli.preset_path("epidemic_sigma1")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 50
    argv = ["sweep", str(_write_cfg(tmp_path, cfg)), "--param", "sigma", "--values", "1", "5",
            "--seeds", "0", "1", "--workers", "1", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_OK  # no task failed
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert (tmp_path / "o" / "sweep.csv").read_text().startswith("value,seed,")
    # the shorthand must move the link sigma, not just the noise
    c2 = json.loads(json.dumps(cfg))
    cli._apply_axis(c2, "sigma", 5.0)
    assert c2["plant"]["link"]["sigma"] == 5.0
    assert c2["noise"]["sigma"] == 5.0
    assert c2["noise"]["trunc"] == 15.0


def test_sweep_dotted_axis(tmp_path):
    cfg = _opinion_cfg(horizon=50)
    rows, failures = cli.run_sweep(cfg, "noise.half_width", [0.05, 0.1], [3],
                                   workers=1)
    assert not failures
    assert {r["value"] for r in rows} == {0.05, 0.1}


def test_sweep_unknown_axis_fails_fast(tmp_path):
    cfg = _opinion_cfg(horizon=50)
    with pytest.raises(cfgmod.ConfigError):
        cli.run_sweep(cfg, "plant.does_not_exist", [1.0], [0], workers=1)


def test_sweep_axis_with_an_unknown_middle_key_exits_2(tmp_path, capsys):
    argv = ["sweep", str(_write_cfg(tmp_path, _opinion_cfg(horizon=50))), "--param",
            "plant.nolink.sigma", "--values", "1", "--seeds", "0", "--workers", "1",
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: plant.nolink.sigma: unknown sweep field\n"
    )


@pytest.mark.parametrize("config, values, seeds, workers, field", [
    ("missing", "0.1", "0", "1", "config"),
    ("not-json", "0.1", "0", "1", "config"),
    ("opinion", "x", "0", "1", "--values"),
    ("opinion", "0.1", "1.5", "1", "--seeds"),
    ("opinion", "0.1", "0", "0", "--workers"),
])
def test_sweep_bad_input_is_validation_error(tmp_path, capsys, config, values, seeds,
                                             workers, field):
    p = tmp_path / "cfg.json"
    if config == "not-json":
        p.write_text("{not json")
    elif config == "opinion":
        p.write_text(json.dumps(_opinion_cfg(horizon=20)))
    argv = ["sweep", str(p), "--param", "noise.half_width", "--values", values,
            "--seeds", seeds, "--workers", workers, "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {field}:")


def test_sweep_over_the_seed_is_validation_error(tmp_path, capsys):
    # --seeds sets each task's seed, so a seed axis would be overwritten:
    # every row would run the same seed under another label
    p = _write_cfg(tmp_path, _opinion_cfg(horizon=50))
    argv = ["sweep", str(p), "--param", "seed", "--values", "1", "2", "--seeds", "5",
            "--workers", "1", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    out = capsys.readouterr()
    assert out.err.startswith("validation error: --param:") and not out.out
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# reproducibility


def test_manifest_rerun_is_bit_exact(tmp_path):
    cfg = _opinion_cfg()
    p = _write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    # re-run from the emitted manifest (config echoed under "config")
    assert cli.main([
        "run", str(tmp_path / "a" / "run_manifest.json"), "--out", str(tmp_path / "b")
    ]) == cli.EXIT_OK
    assert (tmp_path / "a" / "run.csv").read_bytes() == (
        tmp_path / "b" / "run.csv"
    ).read_bytes()


def test_golden_first_rows_stable(tmp_path):
    # frozen 100-step opinion trajectory; catches any silent change to the
    # RNG layout, estimator arithmetic, or CSV formatting
    p = _write_cfg(tmp_path, _opinion_cfg())
    assert cli.main(["run", str(p), "--out", str(tmp_path / "g")]) == cli.EXIT_OK
    got = (tmp_path / "g" / "run.csv").read_text()
    want = (DATA / "opinion_h100.csv").read_text()
    assert got == want


def _golden_run(tmp_path, cfg, name):
    p = _write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p), "--out", str(tmp_path / "g")]) == cli.EXIT_OK
    assert (tmp_path / "g" / "run.csv").read_text() == (DATA / name).read_text()


def test_golden_epidemic_sigma5_stable(tmp_path):
    # frozen 100-step epidemic trajectory: smoothed-clamp link, block
    # operator-ball set, quadratic input lift and a DARE re-solve per step
    with open(cli.preset_path("epidemic_sigma5")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 100
    cfg["log_stride"] = 1
    _golden_run(tmp_path, cfg, "epidemic_sigma5_h100.csv")


def test_golden_open_loop_iid_stable(tmp_path):
    # frozen 100-step open-loop identification of the opinion plant under
    # i.i.d. uniform inputs: one plant step per step, no reference
    cfg = _opinion_cfg()
    cfg["mode"] = "open_loop"
    cfg["input_policy"] = {"kind": "iid_uniform", "half_width": 1.0}
    del cfg["policy"], cfg["probe"]
    _golden_run(tmp_path, cfg, "opinion_openloop_iid_h100.csv")


def _open_loop_iid_cfg():
    cfg = _opinion_cfg()
    cfg["mode"] = "open_loop"
    cfg["input_policy"] = {"kind": "iid_uniform", "half_width": 1.0}
    del cfg["policy"], cfg["probe"]
    return cfg


def _block_crossing_cfg():
    # the live-learning Riccati config: 700 steps run the metrics in blocks
    # that reach their size cap, and an eig stride of 300 does not divide
    # the horizon
    cfg = _leaky_relu_cfg("closed_loop", horizon=700)
    cfg["metrics"] = {"gamma": 4.0, "eig_stride": 300}
    return cfg


def _block_cap_cfg():
    # 600 opinion steps with an eig stride of 400: metric blocks end at the
    # size cap (step 256), at the stride (step 400) and at the horizon
    cfg = _opinion_cfg(horizon=600)
    cfg["metrics"]["eig_stride"] = 400
    return cfg


# golden CSV name -> the config that wrote it; golden_summaries.json holds
# the manifest summary of each, which the CSV does not pin (gain ratio,
# sign and prediction regret)
GOLDENS = {
    "opinion_h100.csv": _opinion_cfg,
    "epidemic_sigma5_h100.csv": lambda: _preset_cfg("epidemic_sigma5"),
    "opinion_openloop_iid_h100.csv": _open_loop_iid_cfg,
    "live_riccati_h700_stride300.csv": _block_crossing_cfg,
    "opinion_h600_stride400.csv": _block_cap_cfg,
}


@pytest.mark.parametrize("name", list(GOLDENS))
def test_golden_csv_and_summary_stable(tmp_path, name):
    _golden_run(tmp_path, GOLDENS[name](), name)
    got = json.loads((tmp_path / "g" / "run_manifest.json").read_text())["summary"]
    want = json.loads((DATA / "golden_summaries.json").read_text())[name]
    # compared as text: exact for every float, and NaN equals NaN
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# ---------------------------------------------------------------------------
# batched sweeps: each worker advances a batch of tasks in lockstep


def _preset_sweep_cfg(horizon=150):
    with open(cli.preset_path("epidemic_sigma5")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = horizon
    return cfg


def _solo_summary(cfg, param, value, seed):
    c = json.loads(json.dumps(cfg))
    cli._apply_axis(c, param, value)
    c["seed"] = seed
    try:
        return cfgmod.build_run(c).summary(), None
    except Exception as exc:  # noqa: BLE001 - the failure text a sweep reports
        return None, f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_solo_runs_in_order(tmp_path, workers):
    cfg = _preset_sweep_cfg()
    values, seeds = [1.0, 5.0, 10.0], [31, 32]
    argv = ["sweep", str(_write_cfg(tmp_path, cfg)), "--param", "sigma", "--values", "1", "5",
            "10", "--seeds", "31", "32", "--workers", str(workers), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_OK
    # repr of a float round-trips, so the rows equal the solo runs bit for bit
    want = []
    for v in values:
        for s in seeds:
            summary, _ = _solo_summary(cfg, "sigma", v, s)
            err, J = summary["final_param_err"], summary["final_tracking_error"]
            want.append(f"{v},{s},{err!r},{J!r}")
    lines = (tmp_path / "o" / "sweep.csv").read_text().splitlines()
    assert lines == ["value,seed,final_param_err,final_J"] + want


def test_sweep_task_runs_in_a_spawned_worker():
    # a spawned worker imports nadac afresh and unpickles the task's
    # RunObjects, which skips SmoothedClamp.__post_init__: the run's first
    # link call binds the smoothed clamp's Gaussian cdf there
    cfg = _preset_sweep_cfg(horizon=50)
    cfg["seed"] = 7
    batch = [cfgmod.validate_config(cfg)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=ctx) as pool:
        (summary, err), = pool.submit(cli._sweep_one, batch).result()
    assert err is None
    want = cfgmod.build_run(cfg).summary()
    assert json.dumps(summary, sort_keys=True) == json.dumps(want, sort_keys=True)


def _unstable_open_loop_cfg():
    # x_{t+1} = 1.5 x_t + w_t from x_0 = 0: any noise crosses the divergence
    # ceiling within about 60 steps, no noise stays at 0
    return {
        "mode": "open_loop",
        "plant": {"n": 1, "m": 1, "link": {"kind": "identity"},
                  "theta_star": [[1.5], [1.0]], "x0": [0.0]},
        "parameter_set": {"kind": "frobenius_ball", "radius": 5.0},
        "input_policy": {"kind": "zero"},
        "noise": {"kind": "uniform_cube", "half_width": 0.1},
        "horizon": 200,
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_failing_tasks_keep_text_and_position(tmp_path, capsys, workers):
    cfg = _unstable_open_loop_cfg()
    values, seeds = [0.1, 0.0, 0.2], [4, 5]
    rows, failures = cli.run_sweep(
        cfg, "noise.half_width", values, seeds, workers=workers, out=tmp_path
    )
    want_rows, want_failures = [], []
    for v in values:
        for s in seeds:
            summary, err = _solo_summary(cfg, "noise.half_width", v, s)
            if err is None:
                want_rows.append(
                    (v, s, summary["final_param_err"], summary["final_tracking_error"])
                )
            else:
                want_failures.append(((v, s), err))
    # compared as text: an open-loop run's J is NaN
    got_rows = [(r["value"], r["seed"], r["final_param_err"], r["final_J"]) for r in rows]
    assert repr(got_rows) == repr(want_rows)
    assert failures == want_failures
    assert len(want_rows) == 2 and len(want_failures) == 4
    assert all(err.startswith("RunAbort: state norm") for _, err in failures)

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    argv = ["sweep", str(p), "--param", "noise.half_width", "--values", "0.1", "0.0", "0.2",
            "--seeds", "4", "5", "--workers", str(workers), "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_PARTIAL
    err_lines = capsys.readouterr().err.splitlines()
    assert err_lines == [f"failed: value={t[0]} seed={t[1]}: {e}" for t, e in want_failures]


def test_sweep_batches_split_tasks_near_evenly():
    assert cli._batches(["k"] * 6, 2) == [[0, 1, 2], [3, 4, 5]]
    assert cli._batches(["k"] * 6, 1) == [[0, 1, 2, 3, 4, 5]]
    assert cli._batches(["k"] * 7, 2) == [[0, 1, 2, 3], [4, 5, 6]]
    # tasks that cannot share a batch are batched apart, in task order
    assert cli._batches(["a", "b", "a", "b", "a"], 2) == [[0, 2], [4], [1], [3]]
    # the cap bounds a batch whatever the number of workers
    sizes = [len(b) for b in cli._batches(["k"] * (3 * cli.BATCH_MAX + 1), 1)]
    assert max(sizes) <= cli.BATCH_MAX and sum(sizes) == 3 * cli.BATCH_MAX + 1
    assert max(sizes) - min(sizes) <= 1


def test_run_batch_rejects_configs_of_different_horizons():
    short, long = _opinion_cfg(horizon=50), _opinion_cfg(horizon=60)
    with pytest.raises(ValueError, match="batch_key"):
        simulate.run_batch([cfgmod.validate_config(c) for c in (short, long)])


# ---------------------------------------------------------------------------
# start-up: a process loads only what its config and command use

_LAZY_IMPORTS = """
    import json, sys
    from nadac import cli, config, maps

    cfg = config.load_config(cli.preset_path("opinion"))
    cfg["horizon"] = 20
    with open(sys.argv[1] + "/opinion.json", "w") as fh:
        json.dump(cfg, fh)
    assert cli.main(["validate", sys.argv[1] + "/opinion.json"]) == 0
    assert cli.main(["run", sys.argv[1] + "/opinion.json", "--out", sys.argv[1]]) == 0
    assert cli.main(["sweep", sys.argv[1] + "/opinion.json", "--param", "noise.half_width",
                     "--values", "0.1", "--seeds", "0", "1", "--workers", "1",
                     "--out", sys.argv[1]]) == 0
    modules = ("scipy", "multiprocessing", "concurrent.futures.process")
    opinion = [m for m in modules if m in sys.modules]
    config.validate_config(config.load_config(cli.preset_path("epidemic_sigma5")))
    import scipy.special
    print(json.dumps({"opinion": opinion, "epidemic": "scipy.special" in sys.modules,
                      "bound": maps.ndtr is scipy.special.ndtr}))
"""


def test_start_up_imports_only_what_the_config_uses(tmp_path):
    # a fresh interpreter: the other tests have imported scipy in this one
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_LAZY_IMPORTS), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(done.stdout.splitlines()[-1])
    assert got == {"opinion": [], "epidemic": True, "bound": True}


@pytest.mark.parametrize("field, value", [
    ("policy.R", [[1.0, 5.0], [0.0, 1.0]]),
    ("policy.Q", [[1.0, 3.0], [0.0, 1.0]]),
    ("policy.Q", [[1.0, 0.5], [0.5 + 1e-16, 1.0]]),
], ids=["R", "Q", "Q-last-bit"])
def test_non_symmetric_weight_is_validation_error(tmp_path, capsys, field, value):
    # a non-symmetric weight once validated, ran the DARE to its iteration
    # cap and exited 3 at step 0
    p = _write_cfg(tmp_path, _set_field(field, value)(_preset_cfg("epidemic_sigma5", horizon=3)))
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"validation error: {field}: must be symmetric")


def test_indefinite_q_is_validation_error(tmp_path, capsys):
    # an indefinite Q once validated, spun the DARE to its iteration cap and
    # exited 3 at step 0
    cfg = _leaky_relu_cfg("closed_loop", horizon=3)
    cfg["policy"]["Q"] = [[-0.5, 0.0], [0.0, 1.0]]
    p = _write_cfg(tmp_path, cfg)
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        assert cli.main(argv) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error: policy: Q must be positive semidefinite")


@pytest.mark.parametrize("Q", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]],
                         ids=["rank-one", "diagonal"])
def test_singular_psd_q_validates(tmp_path, capsys, Q):
    # the rule is positive semidefinite, up to rounding of the eigenvalues
    cfg = _leaky_relu_cfg("closed_loop", horizon=3)
    cfg["policy"]["Q"] = Q
    assert cli.main(["validate", str(_write_cfg(tmp_path, cfg))]) == cli.EXIT_OK
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"A": [[0.9, 0.2], [-0.3, 0.7]], "Q": Q, "R": _EYE2}))
    assert cli.main(["dare", str(p)]) == cli.EXIT_OK


@pytest.mark.parametrize("name", ["Q", "R"])
def test_dare_non_symmetric_weight_is_validation_error(tmp_path, capsys, name):
    spec = {"A": _EYE2, "Q": _EYE2, "R": _EYE2, name: [[1.0, 2.0], [0.0, 1.0]]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(spec))
    assert cli.main(["dare", str(p)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {name}: must be symmetric")


# ---------------------------------------------------------------------------
# run.csv: formatted by a forked writer while the loop runs


@pytest.fixture
def writers(monkeypatch):
    """The CSV writers that nadac starts in a test, recorded as they start."""
    started = []

    class Recorded(simulate.CsvWriter):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

    monkeypatch.setattr(simulate, "CsvWriter", Recorded)
    return started


def _assert_reaped(writers):
    # waitpid(-1) would also see multiprocessing's resource tracker, which a
    # spawn-context sweep test leaves running as a child of this process
    for writer in writers:
        with pytest.raises(ChildProcessError):
            os.waitpid(writer.pid, os.WNOHANG)


def _capture_record(monkeypatch):
    """The records that cmd_run's build_run returns, appended as they come."""
    records, real = [], cfgmod.build_run

    def keep(cfg):
        records.append(real(cfg))
        return records[-1]

    monkeypatch.setattr(cfgmod, "build_run", keep)
    return records


@pytest.mark.parametrize("eig_stride", [100, 1000])
@pytest.mark.parametrize("horizon", [1, 100, 101, 300])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("mode", ["closed_loop", "open_loop"])
def test_streamed_csv_equals_write_csv(tmp_path, monkeypatch, writers, mode, stride, horizon,
                                       eig_stride):
    # the blocks end mid-way, on an eig_stride step, at the METRIC_BLOCK cap
    # (eig stride 1000) and at the horizon
    cfg = _opinion_cfg(horizon) if mode == "closed_loop" else _open_loop_iid_cfg()
    cfg.update(horizon=horizon, log_stride=stride)
    cfg["metrics"]["eig_stride"] = eig_stride
    records = _capture_record(monkeypatch)
    out = tmp_path / "o"
    assert cli.main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(out)]) == cli.EXIT_OK
    assert len(writers) == 1
    _assert_reaped(writers)
    assert sorted(os.listdir(out)) == ["run.csv", "run_manifest.json"]
    (rec,) = records
    rec.write_csv(tmp_path / "ref.csv", stride=stride)
    assert (out / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len((out / "run.csv").read_text().splitlines()) == 1 + -(-horizon // stride)


def test_aborted_run_writes_no_run_csv(tmp_path, capsys, writers):
    # exit 3 leaves run_truncated.csv beside an earlier run.csv, which is
    # left as it was, and no temporary file
    out = tmp_path / "o"
    out.mkdir()
    (out / "run.csv").write_bytes(b"an earlier run\n")
    code = cli.main(["run", str(_write_cfg(tmp_path, _divergent_cfg())), "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    assert "runtime abort" in capsys.readouterr().err
    assert len(writers) == 1
    _assert_reaped(writers)
    assert sorted(os.listdir(out)) == ["run.csv", "run_truncated.csv"]
    assert (out / "run.csv").read_bytes() == b"an earlier run\n"


@pytest.mark.parametrize("error", [RuntimeError("not a step failure"), KeyboardInterrupt()],
                         ids=["exception", "interrupt"])
def test_exception_inside_the_run_reaps_the_writer(tmp_path, monkeypatch, writers, error):
    # the run fails after the writer has been sent its first blocks
    real, calls = estimator.estimator_step, []

    def fail_at_step_150(*args, **kwargs):
        calls.append(None)
        if len(calls) == 150:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(estimator, "estimator_step", fail_at_step_150)
    out = tmp_path / "o"
    with pytest.raises(type(error)):
        cli.main(["run", str(_write_cfg(tmp_path, _opinion_cfg(300))), "--out", str(out)])
    assert len(writers) == 1
    _assert_reaped(writers)
    assert os.listdir(out) == []


def test_batch_takes_no_csv_writer(tmp_path):
    # a batch that gives up reruns its runs from step 0, which would stream
    # their rows twice
    ro = cfgmod.validate_config(_opinion_cfg(10))
    with simulate.CsvWriter(tmp_path / "run.csv", ro.plant.n, ro.plant.m, 1) as writer:
        ro.csv_writer = writer
        with pytest.raises(ValueError, match="csv_writer"):
            simulate.run_batch([ro, ro])
    _assert_reaped([writer])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("where", ["under-a-file", "a-file"])
def test_unwritable_output_dir_exits_2_before_the_run(tmp_path, monkeypatch, capsys, writers,
                                                      where):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o" if where == "under-a-file" else tmp_path / "file"

    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cfgmod, "build_run", no_run)
    code = cli.main(["run", str(_write_cfg(tmp_path, _opinion_cfg(5000))), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: output directory: ") and str(out) in err
    assert writers == []
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "file"]


def _full_disk(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("case", ["run-csv-is-a-directory", "child-fails-mid-run"])
def test_run_csv_the_writer_cannot_finish_is_runtime_abort(tmp_path, monkeypatch, capsys,
                                                           writers, case):
    # either the child formats every row and then cannot rename its
    # temporary file, or it cannot format its first block (as on a full
    # disk) and the loop learns it at its next send or at the commit: exit 3
    # with one line, the earlier run.csv and manifest left as they were, and
    # no temporary file
    out = tmp_path / "o"
    out.mkdir()
    if case == "run-csv-is-a-directory":
        (out / "run.csv").mkdir()
        reason = "Is a directory"
    else:
        (out / "run.csv").write_text("an earlier run\n")
        monkeypatch.setattr(simulate, "_csv_rows", _full_disk)
        reason = os.strerror(errno.ENOSPC)
    (out / "run_manifest.json").write_text('{"earlier": true}')
    code = cli.main(["run", str(_write_cfg(tmp_path, _opinion_cfg(3000))), "--out", str(out)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"runtime abort: cannot write {out / 'run.csv'}: {reason}\n"
    assert len(writers) == 1
    _assert_reaped(writers)
    assert sorted(os.listdir(out)) == ["run.csv", "run_manifest.json"]
    if case == "run-csv-is-a-directory":
        assert os.listdir(out / "run.csv") == []
    else:
        assert (out / "run.csv").read_text() == "an earlier run\n"
    assert (out / "run_manifest.json").read_text() == '{"earlier": true}'


def test_send_after_the_child_failed_raises_its_reason(tmp_path, monkeypatch):
    # the child is gone when the loop sends its second block: the send
    # reaps it and raises the reason it sent back
    monkeypatch.setattr(simulate, "_csv_rows", _full_disk)
    ro = cfgmod.validate_config(_opinion_cfg(10))
    rec = cfgmod.build_run(ro)
    with simulate.CsvWriter(tmp_path / "run.csv", ro.plant.n, ro.plant.m, 1) as writer:
        writer.send(rec, 0, 5)
        os.waitid(os.P_PID, writer.pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(OSError) as info:
            writer.send(rec, 5, 10)
        reason = os.strerror(errno.ENOSPC)
        assert str(info.value) == f"cannot write {tmp_path / 'run.csv'}: {reason}"
        assert info.value is writer.error
    _assert_reaped([writer])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("case", ["not-an-oserror", "commit-of-another-count"])
def test_a_child_that_fails_without_an_errno_gives_its_wait_status(tmp_path, monkeypatch,
                                                                  case):
    # the child exits 255: it raised something other than an OSError, or the
    # commit's row count is not the count of the rows it was sent
    if case == "not-an-oserror":
        monkeypatch.setattr(simulate, "_csv_rows", lambda *args: 1 / 0)
    ro = cfgmod.validate_config(_opinion_cfg(10))
    rec = cfgmod.build_run(ro)
    with simulate.CsvWriter(tmp_path / "run.csv", ro.plant.n, ro.plant.m, 1) as writer:
        writer.send(rec, 0, 10)
        with pytest.raises(OSError) as info:
            writer.commit(10 if case == "not-an-oserror" else 9)
    assert str(info.value) == (
        f"cannot write {tmp_path / 'run.csv'}: the CSV writer failed (wait status {255 << 8})"
    )
    _assert_reaped([writer])
    assert os.listdir(tmp_path) == []


def test_sweep_out_under_a_file_exits_2_before_any_task(tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"

    def no_task(batch):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "_sweep_one", no_task)
    argv = ["sweep", str(_write_cfg(tmp_path, _preset_sweep_cfg())), "--param", "sigma",
            "--values", "1", "5", "--seeds", "3", "4", "--workers", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"validation error: output directory: cannot write {out}: Not a directory\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "file"]


def _write_case(name, tmp_path):
    """The argv of a command that writes the file ``name`` into tmp_path/o."""
    out = str(tmp_path / "o")
    if name == "sweep.csv":
        cfg = _write_cfg(tmp_path, _preset_sweep_cfg(horizon=200))
        return ["sweep", str(cfg), "--param", "sigma", "--values", "1", "5", "--seeds", "3",
                "--workers", "1", "--out", out]
    cfg = _divergent_cfg() if name == "run_truncated.csv" else _opinion_cfg(horizon=200)
    return ["run", str(_write_cfg(tmp_path, cfg)), "--out", out]


@pytest.mark.parametrize("name, stdout_lines, left", [
    ("run.csv", 0, ["run.csv"]),
    ("run_manifest.json", 0, ["run.csv", "run_manifest.json"]),
    ("run_truncated.csv", 0, ["run_truncated.csv"]),
    ("sweep.csv", 2, ["sweep.csv"]),
], ids=["run.csv", "run_manifest.json", "run_truncated.csv", "sweep.csv"])
def test_a_file_that_cannot_be_written_is_runtime_abort(tmp_path, capsys, writers, name,
                                                        stdout_lines, left):
    # a directory in the file's place: exit 3 with one line and no
    # traceback, after the rows a sweep prints; the files left are the
    # directory and what the command wrote before it, and no temporary file.
    # An aborted run's line gives why it aborted before the file
    (tmp_path / "o" / name).mkdir(parents=True)
    assert cli.main(_write_case(name, tmp_path)) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == stdout_lines
    why = ""
    if name == "run_truncated.csv":
        why = "state norm 1.127e+09 exceeded the divergence ceiling (step 28); "
    assert captured.err == (
        f"runtime abort: {why}cannot write {tmp_path / 'o' / name}: Is a directory\n"
    )
    _assert_reaped(writers)
    assert sorted(os.listdir(tmp_path / "o")) == left
    assert os.listdir(tmp_path / "o" / name) == []
    if name == "run_manifest.json":
        assert len((tmp_path / "o" / "run.csv").read_text().splitlines()) == 201


@pytest.mark.parametrize("out", ["new", "existing"])
def test_a_writer_that_cannot_fork_is_runtime_abort(tmp_path, monkeypatch, capsys, writers,
                                                    out):
    # the fork fails (as when the process limit is reached): exit 3 with
    # one line, before any step; the directories the command made are gone
    # and a directory that was there is left as it was
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(cfgmod, "build_run", no_run)
    target = tmp_path / "a" / "o"
    if out == "existing":
        target.mkdir(parents=True)
        (target / "run.csv").write_text("an earlier run\n")
    code = cli.main(["run", str(_write_cfg(tmp_path, _opinion_cfg())), "--out", str(target)])
    assert code == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"runtime abort: cannot start the CSV writer: {os.strerror(errno.EAGAIN)}\n"
    )
    assert writers == []
    if out == "new":
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    else:
        assert os.listdir(target) == ["run.csv"]
        assert (target / "run.csv").read_text() == "an earlier run\n"


def test_sweep_validates_each_task_once(tmp_path, monkeypatch, capsys):
    # the parent validates each task and its workers run those RunObjects
    calls, real = [], cfgmod.validate_config

    def counting(cfg):
        calls.append(cfg["seed"])
        return real(cfg)

    monkeypatch.setattr(cfgmod, "validate_config", counting)
    argv = ["sweep", str(_write_cfg(tmp_path, _preset_sweep_cfg(horizon=50))), "--param",
            "sigma", "--values", "1", "5", "10", "--seeds", "3", "4", "--workers", "1",
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert calls == [3, 4] * 3


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs this process may run on")
def test_writer_child_leaves_the_parent_cpu(tmp_path):
    # left to the scheduler, the child ran on the loop's CPU and slowed it
    allowed = os.sched_getaffinity(0)
    with simulate.CsvWriter(tmp_path / "run.csv", 1, 1, 1) as writer:
        deadline = time.monotonic() + 10
        while os.sched_getaffinity(writer.pid) == allowed:
            assert time.monotonic() < deadline, "the child kept every CPU"
            time.sleep(0.001)
        child = os.sched_getaffinity(writer.pid)
    assert len(child) == len(allowed) - 1 and child < allowed
    assert os.listdir(tmp_path) == []
