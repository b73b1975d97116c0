"""Command-line front end: run, sweep, dare, validate.

Exit codes: 0 ok, 2 validation error, 3 runtime abort, 4 partial sweep
failure; main maps every failure to its exit and one stderr line.
NADAC_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from pathlib import Path

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


def _out_dir(output_dir, override):
    """Where a command writes; made only when it writes there."""
    return Path(override or os.environ.get("NADAC_OUT") or output_dir)


def _write_manifest(cfg, ro, rec, out):
    manifest = {
        "config": cfg,
        "seed": ro.seed,
        "summary": rec.summary(),
        "wall_time_s": rec.wall_time_s,
    }
    with open(out / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def _cannot_write(out, exc):
    """The ConfigError for an OSError on the output directory ``out``."""
    return cfgmod.ConfigError("output directory", f"cannot write {out}: {exc.strerror}")


def cmd_run(args):
    cfg = cfgmod.load_config(args.config)
    ro = cfgmod.validate_config(cfg)
    out = _out_dir(ro.output_dir, args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    try:
        out.mkdir(parents=True, exist_ok=True)
        writer = simulate.CsvWriter(out / "run.csv", ro.plant.n, ro.plant.m, ro.log_stride)
    except ChildProcessError:  # no writer started: a runtime abort that leaves nothing
        for d in made:
            d.rmdir()
        raise
    except OSError as exc:
        raise _cannot_write(out, exc) from None
    with writer:
        ro.csv_writer = writer
        try:
            rec = cfgmod.build_run(ro)
        except simulate.RunAbort as exc:
            try:
                exc.record.write_csv(out / "run_truncated.csv")
            except OSError as err:  # one line that gives both reasons
                raise OSError(f"{exc}; cannot write {err.filename}: {err.strerror}") from None
            raise
        writer.commit(rec.steps_completed)
    manifest = _write_manifest(cfg, ro, rec, out)

    s = manifest["summary"]
    print(
        f"ok: steps={s['steps']} param_err={s['final_param_err']:.6g} "
        f"J_t={s['final_tracking_error']:.6g} projections={s['projections']} "
        f"wall={rec.wall_time_s:.2f}s -> {out}"
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
    """Worker entry: run a batch of validated sweep tasks (RunObjects) in
    lockstep; returns one (summary, error) per task, in order."""
    try:
        results = simulate.run_batch(batch)
    except Exception as exc:  # noqa: BLE001 - reported per task
        results = [exc] * len(batch)
    return [
        (None, f"{type(r).__name__}: {r}") if isinstance(r, Exception) else (r.summary(), None)
        for r in results
    ]


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
    keep the task order.  The seeds are the seed axis, so ``param`` may not
    be "seed".  ``out``, the directory the caller writes to, is made before
    the first task."""
    if param == "seed":
        raise cfgmod.ConfigError("--param", "the seed is swept by --seeds, not --param")
    tags = [(val, int(seed)) for val in values for seed in seeds]
    runs = []
    for val, seed in tags:
        c = copy.deepcopy(cfg)
        _apply_axis(c, param, val)
        c["seed"] = seed
        runs.append(cfgmod.validate_config(c))  # fail fast before any task runs
    if out is not None:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _cannot_write(out, exc) from None
    positions = _batches([simulate.batch_key(ro) for ro in runs], workers or os.cpu_count() or 1)
    batches = [[runs[i] for i in batch] for batch in positions]

    rows, failures = [], []
    if workers == 1:
        done = map(_sweep_one, batches)
    else:
        # imported here, so that a serial sweep loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_one, batches))
    results = [None] * len(runs)
    for batch, batch_results in zip(positions, done):
        for i, result in zip(batch, batch_results):
            results[i] = result
    for tag, (summary, err) in zip(tags, results):
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
    return rows, failures


def _entries(option, items, kind, noun):
    """The entries of a list option converted by ``kind``; a ConfigError
    names the option and the first entry that is not ``noun``."""
    out = []
    for item in items:
        try:
            out.append(kind(item))
        except ValueError:
            raise cfgmod.ConfigError(option, f"not {noun}: {item!r}") from None
    return out


def cmd_sweep(args):
    values = _entries("--values", args.values, float, "a number")
    seeds = _entries("--seeds", args.seeds, int, "an integer")
    if args.workers is not None and args.workers < 1:
        raise cfgmod.ConfigError("--workers", f"must be >= 1, got {args.workers}")
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(cfgmod.output_dir(cfg), args.out)
    rows, failures = run_sweep(cfg, args.param, values, seeds, workers=args.workers, out=out)
    for r in rows:
        print(
            f"value={r['value']} seed={r['seed']} "
            f"param_err={r['final_param_err']:.6g} J={r['final_J']:.6g}"
        )
    for tag, err in failures:
        print(f"failed: value={tag[0]} seed={tag[1]}: {err}", file=sys.stderr)
    # written after the rows are out, so a file that cannot be written loses none
    with open(out / "sweep.csv", "w") as fh:
        fh.write("value,seed,final_param_err,final_J\n")
        for r in rows:
            fh.write(f"{r['value']},{r['seed']},{r['final_param_err']!r},{r['final_J']!r}\n")
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_dare(args):
    A, Q, R = cfgmod.dare_matrices(args.matrices)
    P = control.solve_dare(A, Q, R)
    print("P =")
    for row in P:
        print("  " + "  ".join(f"{z:.17g}" for z in row))
    print(f"residual = {control.dare_residual(P, A, Q, R):.3e}")
    return EXIT_OK


def cmd_validate(args):
    cfgmod.validate_config(cfgmod.load_config(args.config))
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
    try:
        return args.fn(args)
    except cfgmod.ConfigError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (simulate.RunAbort, control.DareError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"cannot write {exc.filename}: {exc.strerror}"
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
