"""Command-line surface: exit codes, artifacts, sweeps, reproducibility."""

import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nadac import cli, config as cfgmod, control, estimator

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


def test_missing_config_file_is_validation_error(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    assert "validation error" in capsys.readouterr().err


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


def test_divergent_run_is_runtime_abort(tmp_path, capsys):
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
    code = cli.main(["run", str(_write_cfg(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_RUNTIME
    assert "runtime abort" in capsys.readouterr().err
    assert (tmp_path / "o" / "run_truncated.csv").exists()


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
], ids=["horizon", "seed", "plant.n", "estimator.delta", "metrics.eig_stride",
        "log_stride", "plant.x0", "plant.theta_star", "root-list", "link-missing-a"])
def test_malformed_field_is_validation_error(tmp_path, capsys, field, mutate):
    cfg = mutate(_opinion_cfg(horizon=50))
    p = _write_cfg(tmp_path, cfg)
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION, err
        assert f"validation error: {field}:" in err


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
], ids=["gain-not-object", "radius-null", "rho_eps-list", "radius_a-object",
        "radius_b-null", "theta_star-null-entry", "x0-null-entry", "Q-scalar",
        "R-wrong-size", "seed-negative"])
def test_bad_value_is_validation_error(tmp_path, capsys, preset, field, mutate):
    p = _write_cfg(tmp_path, mutate(_preset_cfg(preset, horizon=3)))
    for argv in (["validate", str(p)], ["run", str(p), "--out", str(tmp_path / "o")]):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION, err
        assert f"validation error: {field}:" in err


def _affine_gain(c1, c2):
    def mutate(cfg):
        cfg["policy"]["gain"] = {"kind": "affine_norm", "c1": c1, "c2": c2}
        return cfg
    return mutate


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


# ---------------------------------------------------------------------------
# sweep


def test_sweep_shorthand_sigma_and_partial_failure(tmp_path, capsys):
    with open(cli.preset_path("epidemic_sigma1")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 50
    rows, failures = cli.run_sweep(cfg, "sigma", [1.0, 5.0], [0, 1], workers=1,
                                   out=tmp_path)
    assert not failures
    assert len(rows) == 4
    assert (tmp_path / "sweep.csv").read_text().startswith("value,seed,")
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


# golden CSV name -> the config that wrote it; golden_summaries.json holds
# the manifest summary of each, which the CSV does not pin (gain ratio,
# sign and prediction regret)
GOLDENS = {
    "opinion_h100.csv": _opinion_cfg,
    "epidemic_sigma5_h100.csv": lambda: _preset_cfg("epidemic_sigma5"),
    "opinion_openloop_iid_h100.csv": _open_loop_iid_cfg,
    "live_riccati_h700_stride300.csv": _block_crossing_cfg,
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
    rows, failures = cli.run_sweep(cfg, "sigma", values, seeds, workers=workers, out=tmp_path)
    assert not failures
    assert [(r["value"], r["seed"]) for r in rows] == [(v, s) for v in values for s in seeds]
    for r in rows:
        summary, _ = _solo_summary(cfg, "sigma", r["value"], r["seed"])
        assert (r["final_param_err"], r["final_J"]) == (
            summary["final_param_err"], summary["final_tracking_error"]
        )
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [
        f"{r['value']},{r['seed']},{r['final_param_err']!r},{r['final_J']!r}" for r in rows
    ]


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


def test_build_batch_rejects_configs_of_different_horizons():
    short, long = _opinion_cfg(horizon=50), _opinion_cfg(horizon=60)
    with pytest.raises(ValueError, match="batch_key"):
        cfgmod.build_batch([short, long])
