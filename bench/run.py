#!/usr/bin/env python3
"""Benchmark of the nadac engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) from the root of a
checkout: the `nadac` command is called in this process back to back for
about S seconds, its outputs are checked, and the set-up time is measured
in fresh interpreters.  The last line of standard output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.

The end-to-end times are rescaled to a reference host speed, from samples
that hostspeed.py takes during each command and set-up probe; the times as
measured go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 10
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run, for trace.overhead_ratio


@dataclass
class Op:
    """One timed `nadac` command."""

    rc: int | None
    wall_s: float  # without the host-speed slices, as is engine_s
    steps_per_s: float
    fingerprint: str
    csv_bytes: int = 0
    engine_s: float = 0.0
    slice_s: float = 0.0  # time and number of host-speed slices in the command
    slices: int = 0


class Engine:
    """Stands in for config.build_run: times it and keeps the last record."""

    def __init__(self, config, sampler):
        self.build_run = config.build_run
        self.sampler = sampler
        self.seconds = 0.0
        self.record = None
        config.build_run = self

    def __call__(self, cfg):
        mark = self.sampler.mark()
        tic = time.perf_counter()
        self.record = self.build_run(cfg)
        self.seconds += time.perf_counter() - tic - self.sampler.since(mark)[0]
        return self.record


def fingerprint(wl, out_dir):
    """Digest of what the command wrote, minus its own wall-clock fields."""
    if wl.kind == "sweep":
        return hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest()
    with open(out_dir / "run_manifest.json") as fh:
        summary = json.load(fh)["summary"]
    digest = hashlib.sha256((out_dir / "run.csv").read_bytes())
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest()


def run_op(wl, cli, engine, cfg_path, out_dir):
    engine.seconds = 0.0
    sampler = engine.sampler
    mark = sampler.mark()
    tic = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), sampler:
            rc = cli.main(wl.argv(cfg_path, out_dir))
    except Exception:  # noqa: BLE001 - a traceback is a failed operation
        traceback.print_exc()
        rc = None
    slice_s, slices = sampler.since(mark)
    # a sweep's slices are spread over its workers, which run side by side
    wall = time.perf_counter() - tic - slice_s / wl.workers
    if rc != 0:
        return Op(rc, wall, 0.0, "", slice_s=slice_s, slices=slices)
    if wl.kind == "sweep":
        return Op(
            rc, wall, wl.steps_per_op / wall, fingerprint(wl, out_dir),
            engine_s=wall, slice_s=slice_s, slices=slices,
        )
    return Op(
        rc, wall, wl.horizon / engine.seconds, fingerprint(wl, out_dir),
        (out_dir / "run.csv").stat().st_size, engine.seconds, slice_s, slices,
    )


def measure(wl, cli, engine, cfg_path, out_dir, seconds):
    """One warm-up command, then the command again until the next one would
    end after ``seconds``.  Every command is returned, the warm-up first."""
    start = time.perf_counter()
    ops = [run_op(wl, cli, engine, cfg_path, out_dir)]
    while True:
        ops.append(run_op(wl, cli, engine, cfg_path, out_dir))
        if time.perf_counter() - start + ops[-1].wall_s > seconds:
            return ops


def check_outputs(wl, cli, engine, ops, out_dir):
    """Check the last command's outputs against independent recomputations,
    and every other command's against the last (same config, same bytes).
    Returns the number of failed commands and whether every check passed."""
    # imported only now: scipy.linalg would otherwise add to peak_rss_mib
    import checks

    failed = sum(op.rc != 0 for op in ops)
    done = [op for op in ops if op.rc == 0]
    if not done:
        return failed, True
    try:
        if wl.kind == "run":
            cols = checks.check_run(
                out_dir / "run.csv", out_dir / "run_manifest.json", wl.config, engine.record
            )
            if wl.name == "live_riccati":
                checks.check_learning(cols, wl.config)
        else:
            rows = checks.read_sweep_csv(out_dir / "sweep.csv", wl.tasks)
            # replay one task serially as a plain `nadac run`, with all checks
            sigma, seed = wl.tasks[wl.config["seed"] % len(wl.tasks)]
            task = workloads.sweep_task_config(wl.config, sigma, seed)
            replay = out_dir / "replay"
            replay.mkdir(exist_ok=True)
            (replay / "config.json").write_text(json.dumps(task))
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", str(replay / "config.json"), "--out", str(replay)])
            checks.require(rc == 0, f"replay of task {(sigma, seed)} exited {rc}")
            checks.check_run(replay / "run.csv", replay / "run_manifest.json", task, engine.record)
            with open(replay / "run_manifest.json") as fh:
                summary = json.load(fh)["summary"]
            checks.require(
                rows[(sigma, seed)] == (summary["final_param_err"], summary["final_tracking_error"]),
                f"sweep row {(sigma, seed)} differs from its serial replay",
            )
    except checks.CheckFailure as exc:
        print(f"check failed on {wl.name}: {exc}", file=sys.stderr)
        return failed + len(done), False
    odd = sum(op.fingerprint != done[-1].fingerprint for op in done)
    if odd:
        print(f"{odd} of {len(done)} commands wrote different outputs", file=sys.stderr)
    return failed + odd, odd == 0


def setup_probes(cfg_path):
    """Fresh interpreters importing nadac and validating the config; the
    first one, which may compile bytecode, is not counted."""
    probe = BENCH / "setup_probe.py"
    runs = []
    for _ in range(SETUP_PROBES + 1):
        tic = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), str(cfg_path)], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - tic
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        runs.append((ready, json.loads(line)))
    return runs[1:]


def speed_scale(slice_s, slices):
    """Factor that rescales times to the reference host speed, from the
    host-speed slices taken alongside them."""
    return hostspeed.REF_SLICE_S * slices / slice_s if slice_s else 1.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_run(wl, cli, engine, cfg_path, out_dir, seconds):
    ops = measure(wl, cli, engine, cfg_path, out_dir, seconds)
    # read before the set-up probes, so that only pool workers count as children
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.kind == "sweep":
        peak_kib += wl.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probes = setup_probes(cfg_path)

    # Means over the timed commands, not medians: the host's speed changes
    # within a command, and only sums of command time and of slice time see
    # the same mix of fast and slow seconds (README.md, "Host speed").  The
    # set-up time is the median probe, rescaled by the probes' slice sums.
    timed = [op for op in ops[1:] if op.rc == 0] or ops[1:]
    scale = speed_scale(sum(op.slice_s for op in timed), sum(op.slices for op in timed))
    wall = statistics.fmean(op.wall_s for op in timed)
    steps_per_s = wl.steps_per_op * len(timed) / max(sum(op.engine_s for op in timed), 1e-9)
    setup_scale = speed_scale(sum(p[1]["slice_s"] for p in probes), sum(p[1]["slices"] for p in probes))
    setup = statistics.median(p[0] - p[1]["slice_s"] for p in probes)
    print(
        f"as measured: setup {setup:.4f} s (times x {setup_scale:.4f}); wall {wall:.4f} s, "
        f"{steps_per_s:.1f} steps/s over {len(timed)} commands (times x {scale:.4f})",
        file=sys.stderr,
    )
    return ops, {
        "setup_s": metric(setup * setup_scale, "s"),
        "wall_s": metric(wall * scale, "s"),
        "steps_per_s": metric(steps_per_s / scale, "steps/s"),
        "peak_rss_mib": metric(peak_kib / 1024.0, "MiB"),
    }


def per_layer_run(wl, cli, engine, cfg_path, out_dir, seconds):
    """An untraced share of the run for trace.overhead_ratio, then the
    traced share; the per-layer metrics come from the traced commands."""
    import tracer

    base = measure(wl, cli, engine, cfg_path, out_dir, UNTRACED_SHARE * seconds)
    trace_dir = out_dir / "trace"
    tr = tracer.Tracer(trace_dir)
    tr.install()
    try:
        ops = measure(wl, cli, engine, cfg_path, out_dir, (1 - UNTRACED_SHARE) * seconds)
    finally:
        tr.uninstall()
    tr.dump("main")
    probes = setup_probes(cfg_path)

    rows = wl.horizon * len(ops) if wl.kind == "run" else 0
    layers = tracer.per_layer(
        trace_dir, wl.steps_per_op * len(ops), rows, ops[-1].csv_bytes, wl.workers
    )
    layers["config.import_s"] = statistics.median(p[1]["import_s"] for p in probes)
    layers["config.validate_s"] = statistics.median(p[1]["validate_s"] for p in probes)
    layers["trace.overhead_ratio"] = statistics.median(
        op.steps_per_s for op in ops[1:]
    ) / statistics.median(op.steps_per_s for op in base[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return base + ops, {m["name"]: metric(layers[m["name"]], m["unit"]) for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=int, default=None, help="shorter runs, for the self-test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nadac" / "__init__.py").is_file():
        print(f"bench: no nadac sources under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from nadac import cli, config

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, args.seed, args.horizon)
    out_dir = OUT / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(wl.config, indent=1))
    if args.trace:
        sampler = hostspeed.Sampler(active=False)  # no slice may land in a span
    elif wl.kind == "sweep":
        sampler = hostspeed.PoolSampler(out_dir / "slices.txt")
        cli._sweep_one = sampler.wrap(cli._sweep_one)
    else:
        sampler = hostspeed.Sampler()
    engine = Engine(config, sampler)

    run = per_layer_run if args.trace else end_to_end_run
    ops, metrics = run(wl, cli, engine, cfg_path, out_dir, args.seconds)
    failed, correct = check_outputs(wl, cli, engine, ops, out_dir)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
