"""Traced run: spans around the calls into nadac's public functions.

The tracer replaces module and class attributes of nadac with wrappers
that record one span (name, start, end, parent) per call; nothing inside
src/nadac changes.  Spans stay in memory and are written out as CSV when
the traced phase ends.  Sweep workers are forked from the traced process,
inherit the wrappers, and write the spans of each task as it finishes.
"""

from __future__ import annotations

import functools
import os
import statistics
from array import array
from pathlib import Path
from time import perf_counter_ns

from nadac import cli, control, estimator, maps, metrics, simulate

ENGINES = ("simulate.run_closed_loop", "simulate.run_open_loop_id")

# (owner, attribute, span name); calls nested inside another wrapped call
# get that call as parent
TARGETS = [
    (simulate, "run_closed_loop", "simulate.run_closed_loop"),
    (simulate, "run_open_loop_id", "simulate.run_open_loop_id"),
    (simulate, "noise_sample", "simulate.noise_sample"),
    (simulate, "plant_step", "simulate.plant_step"),
    (simulate.RunRecord, "write_csv", "simulate.write_csv"),
    (control, "adaptive_input", "control.adaptive_input"),
    (control, "policy_eval", "control.policy_eval"),
    (control, "solve_dare", "control.solve_dare"),
    (control.RiccatiFeedback, "riccati_solution", "control.riccati_solution"),
    (estimator, "estimator_step", "estimator.estimator_step"),
    (estimator, "step_weights", "estimator.step_weights"),
    (estimator, "project_weighted", "estimator.project_weighted"),
    (metrics.MetricAccumulator, "update", "metrics.update"),
    (metrics, "lambda_min_normalized", "metrics.lambda_min"),
    (cli, "run_sweep", "cli.run_sweep"),
]
for _cls in vars(maps).values():
    if isinstance(_cls, type) and issubclass(_cls, maps.LinkFunction) and _cls is not maps.LinkFunction:
        for _attr in ("eval", "alpha_env", "beta_env"):
            if _attr in vars(_cls):
                TARGETS.append((_cls, _attr, f"maps.{_attr}"))


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.names = []
        self.patches = []
        self.pid = os.getpid()
        self._clear()

    def _clear(self):
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack = []

    def _span(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self.stack.pop()

        return wrapper

    def _task(self, fn):
        """Sweep task: in a forked worker, drop the spans inherited from
        the parent, record the task, and write its spans out at its end."""
        span = self._span("cli.sweep_task", fn)

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == self.pid:
                return span(task)
            self._clear()
            try:
                return span(task)
            finally:
                self.dump(f"worker-{os.getpid()}-{perf_counter_ns()}")
                self._clear()

        return wrapper

    def install(self):
        for owner, attr, name in TARGETS:
            fn = vars(owner)[attr]
            self.patches.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn))
        self.patches.append((cli, "_sweep_one", cli._sweep_one))
        cli._sweep_one = self._task(cli._sweep_one)

    def uninstall(self):
        for owner, attr, fn in reversed(self.patches):
            setattr(owner, attr, fn)
        self.patches.clear()

    def dump(self, tag):
        """Write the spans held in memory to <out_dir>/spans-<tag>.csv."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lines = ["name,start_ns,end_ns,parent"]
        lines += [
            f"{self.names[k]},{s},{e},{p}"
            for k, s, e, p in zip(self.name_id, self.start, self.end, self.parent)
        ]
        (self.out_dir / f"spans-{tag}.csv").write_text("\n".join(lines) + "\n")


def load_spans(out_dir):
    """All span files of a traced run, one list of (name, start, end, parent)
    per file; parent indexes into the same list."""
    files = []
    for path in sorted(Path(out_dir).glob("spans-*.csv")):
        rows = []
        for line in path.read_text().splitlines()[1:]:
            name, s, e, p = line.split(",")
            rows.append((name, int(s), int(e), int(p)))
        files.append(rows)
    return files


def per_layer(out_dir, steps, csv_rows, csv_bytes, workers):
    """Derive the per-layer metrics from the span files.

    ``steps``: plant steps run while traced; ``csv_rows``/``csv_bytes``:
    rows and bytes of the run.csv files written while traced.
    """
    total = {}
    calls = {}
    loop_self = 0.0
    dare_lookups = dare_hits = 0
    tasks = []
    sweep_wall = 0.0
    for rows in load_spans(out_dir):
        child_ns = [0] * len(rows)
        solved = [False] * len(rows)
        for name, s, e, p in rows:
            if p >= 0:
                child_ns[p] += e - s
                if name == "control.solve_dare":
                    solved[p] = True
        for i, (name, s, e, p) in enumerate(rows):
            dur = (e - s) * 1e-9
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in ENGINES:
                loop_self += dur - child_ns[i] * 1e-9
            elif name == "control.riccati_solution":
                dare_lookups += 1
                dare_hits += not solved[i]
            elif name == "cli.sweep_task":
                tasks.append(dur)
            elif name == "cli.run_sweep":
                sweep_wall += dur

    def us_per_step(name):
        return 1e6 * total.get(name, 0.0) / steps

    def per_step(name):
        return calls.get(name, 0) / steps

    dare_calls = calls.get("control.solve_dare", 0)
    return {
        "simulate.noise_sample_us": us_per_step("simulate.noise_sample"),
        "simulate.plant_step_us": us_per_step("simulate.plant_step"),
        "simulate.plant_step_calls": per_step("simulate.plant_step"),
        "simulate.loop_self_us": 1e6 * loop_self / steps,
        "simulate.write_csv_us_per_row": (
            1e6 * total.get("simulate.write_csv", 0.0) / csv_rows if csv_rows else 0.0
        ),
        "simulate.csv_bytes": csv_bytes,
        "control.adaptive_input_us": us_per_step("control.adaptive_input"),
        "control.policy_eval_us": us_per_step("control.policy_eval"),
        "control.solve_dare_calls": per_step("control.solve_dare"),
        "control.solve_dare_us": (
            1e6 * total.get("control.solve_dare", 0.0) / dare_calls if dare_calls else 0.0
        ),
        "control.riccati_cache_hit_ratio": dare_hits / dare_lookups if dare_lookups else 0.0,
        "estimator.estimator_step_us": us_per_step("estimator.estimator_step"),
        "estimator.step_weights_us": us_per_step("estimator.step_weights"),
        "estimator.project_weighted_calls": calls.get("estimator.project_weighted", 0),
        "maps.eval_calls": per_step("maps.eval"),
        "maps.eval_us": us_per_step("maps.eval"),
        "maps.envelope_us": us_per_step("maps.alpha_env") + us_per_step("maps.beta_env"),
        "metrics.update_us": us_per_step("metrics.update"),
        "metrics.lambda_min_us": us_per_step("metrics.lambda_min"),
        "cli.sweep_task_s": statistics.median(tasks) if tasks else 0.0,
        "cli.sweep_worker_busy_ratio": sum(tasks) / (workers * sweep_wall) if sweep_wall else 0.0,
    }
