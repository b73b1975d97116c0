"""Command-line surface: exit codes, artifacts, sweeps, reproducibility."""

import json
import re
from pathlib import Path

import pytest

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
