"""Workload definitions: the config each workload runs and the CLI call.

Every workload is one `nadac` command repeated back to back.  The config
is derived from a shipped preset or written out in full here, with the
horizon shortened so that one command takes one to four seconds, and the
seed taken from the benchmark's ``--seed``.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass

RUN_HORIZON = 5000
SWEEP_HORIZON = 1000
SWEEP_SIGMAS = (1.0, 5.0, 10.0)

NAMES = ("opinion", "live_riccati", "openloop_id", "epidemic_sweep")

# Leaky-ReLU plant whose estimator gain stays at slope/2 = 0.15, so the
# estimate moves every step and the Riccati feedback is re-solved every step.
LIVE_RICCATI = {
    "description": "Leaky-ReLU plant with B = -I, Riccati feedback, live estimator gain.",
    "mode": "closed_loop",
    "plant": {
        "n": 2,
        "m": 2,
        "link": {"kind": "leaky_relu", "slope": 0.3},
        "theta_star": [[0.6, 0.2], [0.3, 0.5], [-1.0, 0.0], [0.0, -1.0]],
        "x0": [0.0, 0.0],
    },
    "parameter_set": {"kind": "frobenius_ball", "radius": 5.0, "rho_eps": 0.5},
    "estimator": {"delta": 0.5, "theta0": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    "policy": {
        "kind": "riccati_feedback",
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0, 0.0], [0.0, 1.0]],
        "lift": "direct",
    },
    "probe": {"b": 0.125, "distribution": "uniform_cube", "half_width": 1.0},
    "noise": {"kind": "uniform_cube", "half_width": 0.1},
    "log_stride": 1,
    "metrics": {"gamma": 4.0, "eig_stride": 100},
}


@dataclass
class Workload:
    name: str
    kind: str  # "run" or "sweep"
    config: dict  # the config file the command reads
    horizon: int
    sweep_seeds: tuple = ()
    workers: int = 1

    @property
    def tasks(self):
        """(sigma, seed) pairs of a sweep, in the order the CLI runs them."""
        return [(v, s) for v in SWEEP_SIGMAS for s in self.sweep_seeds]

    @property
    def steps_per_op(self):
        return self.horizon * (len(self.tasks) if self.kind == "sweep" else 1)

    def argv(self, config_path, out_dir):
        if self.kind == "run":
            return ["run", str(config_path), "--out", str(out_dir)]
        return [
            "sweep", str(config_path), "--param", "sigma",
            "--values", *[repr(v) for v in SWEEP_SIGMAS],
            "--seeds", *[str(s) for s in self.sweep_seeds],
            "--workers", str(self.workers),
            "--out", str(out_dir),
        ]


def sweep_task_config(base, sigma, seed):
    """The config of one sweep task, as the `sigma` axis documents it: link
    sigma and noise sigma move together, truncation at three sigma."""
    cfg = copy.deepcopy(base)
    cfg["plant"]["link"]["sigma"] = sigma
    cfg["noise"]["sigma"] = sigma
    cfg["noise"]["trunc"] = 3.0 * sigma
    cfg["seed"] = seed
    return cfg


def _preset(name):
    from nadac import cli

    with open(cli.preset_path(name)) as fh:
        return json.load(fh)


def make(name, seed, horizon=None):
    """Build workload ``name`` for benchmark seed ``seed``."""
    if name == "opinion":
        cfg = _preset("opinion")
    elif name == "live_riccati":
        cfg = copy.deepcopy(LIVE_RICCATI)
    elif name == "openloop_id":
        # criterion-05 setup: the opinion plant driven by i.i.d. inputs
        cfg = _preset("opinion")
        cfg["mode"] = "open_loop"
        cfg["input_policy"] = {"kind": "iid_uniform", "half_width": 1.0}
        for key in ("policy", "probe"):
            cfg.pop(key)
    elif name == "epidemic_sweep":
        cfg = _preset("epidemic_sigma5")
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")

    cfg.pop("output_dir", None)
    cfg["seed"] = seed
    if name != "epidemic_sweep":
        cfg["horizon"] = horizon or RUN_HORIZON
        return Workload(name, "run", cfg, cfg["horizon"])

    cfg["horizon"] = horizon or SWEEP_HORIZON
    workers = min(2, len(os.sched_getaffinity(0)))
    # two seeds per sigma: six tasks, three per worker on two workers
    return Workload(name, "sweep", cfg, cfg["horizon"], (2 * seed, 2 * seed + 1), workers)
