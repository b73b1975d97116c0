"""Command-line front end: run, sweep, dare, validate.

Exit codes: 0 ok, 2 validation error, 3 runtime abort, 4 partial sweep
failure.  NADAC_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import control, simulate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_PARTIAL = 4

# most sweep tasks one worker advances in lockstep; bounds a worker's memory,
# which holds the records of its batch until the batch ends
BATCH_MAX = 8


def preset_path(name):
    """Path of a shipped preset file, e.g. preset_path('opinion')."""
    return Path(__file__).parent / "presets" / f"{name}.json"


def _out_dir(cfg, override=None):
    out = override or os.environ.get("NADAC_OUT") or cfg.get("output_dir", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifacts(cfg, rec, out, tag="run"):
    rec.write_csv(out / f"{tag}.csv", stride=int(cfg.get("log_stride", 1)))
    manifest = {
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "summary": rec.summary(),
        "wall_time_s": rec.manifest.get("wall_time_s"),
    }
    with open(out / f"{tag}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def cmd_run(args):
    try:
        cfg = cfgmod.load_config(args.config)
        out = _out_dir(cfg, args.out)
        rec = cfgmod.build_run(cfg)
    except cfgmod.ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"validation error: config: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except simulate.RunAbort as exc:
        if exc.record is not None:
            exc.record.write_csv(_out_dir({}, args.out) / "run_truncated.csv")
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    manifest = _write_artifacts(cfg, rec, out)
    s = manifest["summary"]
    print(
        f"ok: steps={s['steps']} param_err={s['final_param_err']:.6g} "
        f"J_t={s['final_tracking_error']:.6g} projections={s['projections']} "
        f"wall={rec.manifest['wall_time_s']:.2f}s -> {out}"
    )
    return EXIT_OK


def _apply_axis(cfg, param, value):
    """Set a sweep-axis field.  The shorthand axis "sigma" moves the
    smoothed-clamp link sigma and the noise scale together, the way the
    epidemic experiment varies its single noise level."""
    if param == "sigma":
        cfgmod.set_field(cfg, "plant.link.sigma", value)
        cfgmod.set_field(cfg, "noise.sigma", value)
        if "trunc" in cfg.get("noise", {}):
            cfgmod.set_field(cfg, "noise.trunc", 3.0 * value)
        return
    cfgmod.set_field(cfg, param, value)


def _sweep_one(batch):
    """Worker entry: run a batch of sweep tasks (config, tag) in lockstep;
    returns one (tag, summary, error) per task, in order."""
    try:
        results = cfgmod.build_batch([cfg for cfg, _ in batch])
    except Exception as exc:  # noqa: BLE001 - reported per task
        results = [exc] * len(batch)
    out = []
    for (_, tag), result in zip(batch, results):
        try:
            if isinstance(result, Exception):
                raise result
            out.append((tag, result.summary(), None))
        except Exception as exc:  # noqa: BLE001
            out.append((tag, None, f"{type(exc).__name__}: {exc}"))
    return out


def _batches(keys, workers):
    """Task positions grouped into batches: tasks with equal keys, in task
    order, split into near-equal parts, at least one per worker (as far as
    the tasks go) and none larger than BATCH_MAX."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    batches = []
    for group in groups.values():
        parts = max(-(-len(group) // BATCH_MAX), min(workers, len(group)))
        size, extra = divmod(len(group), parts)
        for p in range(parts):
            begin = p * size + min(p, extra)
            batches.append(group[begin : begin + size + (p < extra)])
    return batches


def run_sweep(cfg, param, values, seeds, workers=None, out=None):
    """Cross product of axis values and seeds; returns (rows, failures).
    Each worker advances one batch of tasks in lockstep; rows and failures
    keep the task order."""
    tasks = []
    for val in values:
        for seed in seeds:
            c = copy.deepcopy(cfg)
            _apply_axis(c, param, val)
            c["seed"] = int(seed)
            tasks.append((c, (val, int(seed))))
    # fail fast before spawning workers
    keys = [cfgmod.batch_key(cfgmod.validate_config(c)) for c, _ in tasks]
    positions = _batches(keys, workers or os.cpu_count() or 1)
    batches = [[tasks[i] for i in batch] for batch in positions]

    rows, failures = [], []
    if workers == 1:
        done = map(_sweep_one, batches)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_one, batches))
    results = [None] * len(tasks)
    for batch, batch_results in zip(positions, done):
        for i, result in zip(batch, batch_results):
            results[i] = result
    for tag, summary, err in results:
        if err is not None:
            failures.append((tag, err))
        else:
            rows.append(
                {
                    "value": tag[0],
                    "seed": tag[1],
                    "final_param_err": summary["final_param_err"],
                    "final_J": summary["final_tracking_error"],
                }
            )
    if out is not None:
        with open(out / "sweep.csv", "w") as fh:
            fh.write("value,seed,final_param_err,final_J\n")
            for r in rows:
                fh.write(
                    f"{r['value']},{r['seed']},{r['final_param_err']!r},{r['final_J']!r}\n"
                )
    return rows, failures


def cmd_sweep(args):
    try:
        cfg = cfgmod.load_config(args.config)
        out = _out_dir(cfg, args.out)
        values = [float(v) for v in args.values]
        seeds = [int(s) for s in args.seeds]
        rows, failures = run_sweep(
            cfg, args.param, values, seeds, workers=args.workers, out=out
        )
    except cfgmod.ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    for r in rows:
        print(
            f"value={r['value']} seed={r['seed']} "
            f"param_err={r['final_param_err']:.6g} J={r['final_J']:.6g}"
        )
    for tag, err in failures:
        print(f"failed: value={tag[0]} seed={tag[1]}: {err}", file=sys.stderr)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_dare(args):
    try:
        with open(args.matrices) as fh:
            spec = json.load(fh)
        A = np.asarray(spec["A"], dtype=float)
        Q = np.asarray(spec["Q"], dtype=float)
        R = np.asarray(spec["R"], dtype=float)
        if np.linalg.matrix_rank(R) < R.shape[0]:
            print("validation error: R must be nonsingular", file=sys.stderr)
            return EXIT_VALIDATION
    except (KeyError, ValueError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        P = control.solve_dare(A, Q, R)
    except control.DareError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("P =")
    for row in P:
        print("  " + "  ".join(f"{z:.17g}" for z in row))
    print(f"residual = {control.dare_residual(P, A, Q, R):.3e}")
    return EXIT_OK


def cmd_validate(args):
    try:
        cfg = cfgmod.load_config(args.config)
        cfgmod.validate_config(cfg)
    except (cfgmod.ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(prog="nadac")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter x seed cross product")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted config field or 'sigma'")
    p_sweep.add_argument("--values", nargs="+", required=True)
    p_sweep.add_argument("--seeds", nargs="+", required=True)
    p_sweep.add_argument("--workers", type=int, default=os.cpu_count())
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_dare = sub.add_parser("dare", help="solve the Riccati fixed point from a JSON {A,Q,R}")
    p_dare.add_argument("matrices")
    p_dare.set_defaults(fn=cmd_dare)

    p_val = sub.add_parser("validate", help="schema-check a config file")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
