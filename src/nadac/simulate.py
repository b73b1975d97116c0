"""Simulation engine: one loop for closed-loop and open-loop runs.

A closed-loop run co-simulates the adaptive loop and the oracle reference
trajectory on a shared noise stream; an open-loop identification run drives
the plant with an exogenous input and has no reference.  Both advance the
estimator once per step.  Step order at time t: input -> reference ->
noise -> plant -> estimator update; the controller always sees the estimate
that was current one update ago.  The run metrics absorb the steps a block
at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import control, estimator, metrics

__all__ = [
    "PlantSpec", "NoiseSpec", "RunRecord", "RunAbort", "plant_step", "noise_sample",
    "spawn_streams", "run_closed_loop", "run_open_loop_id",
]

DIVERGENCE_CEILING = 1e9


class RunAbort(RuntimeError):
    """Simulation aborted; carries the failing step and the partial record."""

    def __init__(self, message, step, record=None):
        super().__init__(f"{message} (step {step})")
        self.step = step
        self.record = record


@dataclass(frozen=True)
class PlantSpec:
    theta_star: np.ndarray  # (n+m, n)
    link: object
    n: int
    m: int
    x0: np.ndarray

    @property
    def a_matrix(self):
        return self.theta_star[: self.n].T

    @property
    def b_matrix(self):
        return self.theta_star[self.n :].T


def plant_step(spec, x, u, w):
    """x_{t+1} = f(A x + B u) + w."""
    x_next = spec.link.eval(spec.a_matrix @ x + spec.b_matrix @ u) + w
    if not np.isfinite(x_next).all():
        raise ValueError("plant produced a non-finite state")
    return x_next


@dataclass(frozen=True)
class NoiseSpec:
    """i.i.d. zero-mean noise; bounded kinds are required with bounded links.

    kinds: "uniform_cube" (uniform on [-half_width, half_width]^n),
    "truncated_gaussian" (N(0, sigma^2) clipped to [-trunc, trunc], which
    keeps the samples symmetric and hence zero-mean), "gaussian".
    """

    kind: str
    n: int
    half_width: float = 0.1
    sigma: float = 1.0
    trunc: float = np.inf

    def __post_init__(self):
        if self.kind not in ("uniform_cube", "truncated_gaussian", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "truncated_gaussian" and not np.isfinite(self.trunc):
            raise ValueError("truncated_gaussian needs a finite truncation radius")

    @property
    def bounded(self):
        return self.kind != "gaussian"

    def to_config(self):
        cfg = {"kind": self.kind}
        if self.kind == "uniform_cube":
            cfg["half_width"] = self.half_width
        else:
            cfg["sigma"] = self.sigma
            if self.kind == "truncated_gaussian":
                cfg["trunc"] = self.trunc
        return cfg


def noise_sample(spec, rng):
    if spec.kind == "uniform_cube":
        return rng.uniform(-spec.half_width, spec.half_width, size=spec.n)
    w = rng.standard_normal(spec.n) * spec.sigma
    if spec.kind == "truncated_gaussian":
        return np.clip(w, -spec.trunc, spec.trunc)
    return w


def noise_from_config(cfg, n):
    kind = cfg["kind"]
    return NoiseSpec(
        kind=kind,
        n=n,
        half_width=float(cfg.get("half_width", 0.1)),
        sigma=float(cfg.get("sigma", 1.0)),
        trunc=float(cfg.get("trunc", np.inf)),
    )


def spawn_streams(seed):
    """Four independent substreams off one root seed; toggling the probe or
    test sampling never perturbs the plant noise realization."""
    root = np.random.SeedSequence(seed)
    names = ("noise", "probe", "policy", "test")
    return dict(zip(names, (np.random.Generator(np.random.PCG64(s)) for s in root.spawn(4))))


# Per-step columns of a run record: (attribute, CSV label, width, fill).  A
# width of "n" or "m" spreads the column over that many CSV fields (x0, x1,
# ...); None makes it one scalar field.  The state columns hold T+1 rows
# (x_0 .. x_T), every other column T.  The one flag column comes last.
COLUMNS = (
    ("x", "x", "n", np.nan),
    ("u", "u", "m", np.nan),
    ("v", "v", "m", 0.0),
    ("w", "w", "n", np.nan),
    ("x_star", "xstar", "n", np.nan),
    ("u_star", "ustar", "m", np.nan),
    ("param_err", "param_err", None, np.nan),
    ("j_t", "J_t", None, np.nan),
    ("lambda_t", "lambda_t", None, np.nan),
    ("v_lyap", "V_t", None, np.nan),
    ("d_t", "d_t", None, np.nan),
    ("mu_t", "mu_t", None, np.nan),
    ("a_t", "a_t", None, np.nan),
    ("projected", "projected", None, False),
)
STATE_COLUMNS = ("x", "x_star")


@dataclass
class RunRecord:
    """Full per-step log of one simulation plus manifest metadata: one array
    per entry of COLUMNS for ``horizon`` steps, set to the column's fill until
    written (x_star, u_star and j_t stay NaN in a run without a reference)."""

    n: int
    m: int
    horizon: int
    manifest: dict = field(default_factory=dict)
    acc: metrics.MetricAccumulator | None = None
    final_state: estimator.EstimatorState | None = None
    steps_completed: int = 0

    def __post_init__(self):
        for attr, _, width, fill in COLUMNS:
            rows = self.horizon + (attr in STATE_COLUMNS)
            shape = (rows,) if width is None else (rows, getattr(self, width))
            setattr(self, attr, np.full(shape, fill))

    def csv_header(self):
        cols = ["t"]
        for _, label, width, _ in COLUMNS:
            if width is None:
                cols.append(label)
            else:
                cols += [f"{label}{i}" for i in range(getattr(self, width))]
        return cols

    def write_csv(self, path, stride=1):
        T = self.steps_completed
        # the float columns as one table, then the flag column as 0/1; repr
        # of a Python float round-trips
        *value_columns, (flag_attr, *_) = COLUMNS
        floats = np.column_stack([getattr(self, attr)[:T] for attr, *_ in value_columns])
        flags = getattr(self, flag_attr)
        with open(path, "w") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            for t in range(0, T, stride):
                row = ",".join(map(repr, floats[t].tolist()))
                fh.write(f"{t},{row},{'1' if flags[t] else '0'}\n")

    def summary(self):
        last = self.steps_completed - 1
        out = {
            "steps": self.steps_completed,
            "final_param_err": float(self.param_err[last]),
            "final_tracking_error": float(self.j_t[last]),
            "final_lambda_min": float(self.lambda_t[last]),
            "projections": int(self.final_state.projection_count) if self.final_state else 0,
        }
        if self.acc is not None:
            out["empirical_gain_ratio"] = metrics.empirical_gain_ratio(self.acc)
            if self.acc.sum_sign_mismatch or self.acc.sum_track_sq:
                out["sign_regret"] = metrics.sign_regret(self.acc)
            out["prediction_regret"] = (
                self.acc.sum_pred_regret if self.acc.theta_star is not None else None
            )
        return out


def run_closed_loop(
    plant, pset, mech, probe, noise, horizon, seed, theta0=None, delta=0.5, gamma=4.0,
    eig_stride=100, stage_cost=None, divergence_ceiling=DIVERGENCE_CEILING,
    collect_metrics=True,
):
    """Adaptive closed loop plus oracle reference on a shared noise stream."""
    if not pset.contains(plant.theta_star, shrunk=True):
        raise ValueError("theta_star must lie strictly inside the shrunken set")

    def next_input(theta_ctrl, x, t, rng):
        return control.adaptive_input(mech, theta_ctrl, x, probe, t, rng)

    # reference mechanism gets its own Riccati cache so warm starts do not
    # leak between the theta* solve and the moving theta_hat solves
    ref_mech = mech
    if isinstance(mech, control.RiccatiFeedback):
        ref_mech = replace(mech, _cache_theta=None, _cache_p=None)
    return _run(
        plant, pset, next_input, ref_mech, noise, horizon, seed, theta0, delta,
        gamma, eig_stride, stage_cost, divergence_ceiling, collect_metrics,
    )


def run_open_loop_id(
    plant, pset, input_policy, noise, horizon, seed, theta0=None, delta=0.5, gamma=4.0,
    eig_stride=100, divergence_ceiling=DIVERGENCE_CEILING,
):
    """Identification-only run under an exogenous input policy.

    ``input_policy``: "zero", ("iid_uniform", half_width), or
    ("state_feedback", K) with u = K x.  The estimator observes the loop but
    never closes it.
    """
    zero = np.zeros(plant.m)
    if input_policy == "zero":
        def next_input(theta_ctrl, x, t, rng):
            return zero, zero
    elif isinstance(input_policy, tuple) and input_policy[0] == "iid_uniform":
        def next_input(theta_ctrl, x, t, rng):
            return rng.uniform(-input_policy[1], input_policy[1], size=plant.m), zero
    elif isinstance(input_policy, tuple) and input_policy[0] == "state_feedback":
        def next_input(theta_ctrl, x, t, rng):
            return np.asarray(input_policy[1]) @ x, zero
    else:
        raise ValueError(f"unknown input policy {input_policy!r}")
    return _run(
        plant, pset, next_input, None, noise, horizon, seed, theta0, delta,
        gamma, eig_stride, None, divergence_ceiling, True,
    )


# failures inside a step; each ends the run with a RunAbort carrying the
# record of the steps completed before it
_STEP_FAILURES = (
    ValueError, control.DareError, estimator.ProjectionError, estimator.NumericalAbort
)

# most steps the metrics absorb at once; a block also ends at every
# eig_stride step and at the horizon
METRIC_BLOCK = 256


def _run(
    plant, pset, next_input, ref_mech, noise, horizon, seed, theta0, delta,
    gamma, eig_stride, stage_cost, divergence_ceiling, collect_metrics,
):
    """The loop of both entry points.  ``next_input(theta_ctrl, x, t, rng)``
    returns (u, v), drawing from the probe stream; ``ref_mech`` is None in a
    run without a reference trajectory.

    The metrics read nothing back into the loop, so they absorb blocks of
    steps: the loop buffers what the record does not hold (the estimator's
    prediction, f(theta*^T phi) and theta_hat after each update) and hands a
    block to the accumulator when it ends, or before a failing step aborts."""
    n, m = plant.n, plant.m
    if not noise.bounded and plant.link.bounded:
        raise ValueError("bounded links require almost-surely bounded noise")
    theta0 = np.zeros((n + m, n)) if theta0 is None else np.asarray(theta0, dtype=float)
    state = estimator.new_estimator(theta0, pset, delta, plant.link)
    streams = spawn_streams(seed)
    rng_noise, rng_probe = streams["noise"], streams["probe"]
    has_ref = ref_mech is not None

    rec = RunRecord(n=n, m=m, horizon=horizon)
    acc = rec.acc = metrics.MetricAccumulator(
        n=n, m=m, theta_star=plant.theta_star, stage_cost=stage_cost
    )
    theta_star_t = plant.theta_star.T
    prediction = np.empty((METRIC_BLOCK, n))
    prediction_star = np.empty((METRIC_BLOCK, n))
    thetas = np.empty((METRIC_BLOCK + 1, n + m, n))  # row 0: the estimate before the block
    thetas[0] = state.theta_hat
    start = 0  # first step of the current block
    lam = 0.0

    def block_end(first):
        # one past the block's last step: the next eig_stride step, the cap
        # or the horizon, whichever comes first
        next_eig = -(-first // eig_stride) * eig_stride
        return min(next_eig + 1, first + METRIC_BLOCK, horizon)

    def absorb(stop):
        """Hand steps start .. stop-1 to the metrics and log their rows."""
        nonlocal start, lam
        rows, k = slice(start, stop), stop - start
        rec.lambda_t[rows] = lam
        if collect_metrics and k:
            diag = estimator.StepDiagnostics(
                d_gain=rec.d_t[rows], g_bar=np.nan, a_weight=rec.a_t[rows],
                mu_weight=rec.mu_t[rows], prediction=prediction[:k],
            )
            x_star, u_star = (rec.x_star[rows], rec.u_star[rows]) if has_ref else (None, None)
            rec.v_lyap[rows], track = acc.update(
                np.concatenate([rec.x[rows], rec.u[rows]], axis=1), rec.x[rows],
                rec.x[start + 1 : stop + 1], rec.v[rows], rec.w[rows], diag, plant.link,
                theta_hat=thetas[:k], theta_hat_next=thetas[1 : k + 1], x_star=x_star,
                u=rec.u[rows], u_star=u_star, gamma=gamma, prediction_star=prediction_star[:k],
            )
            if has_ref:
                rec.j_t[rows] = track / np.arange(start + 1, stop + 1)
            if (stop - 1) % eig_stride == 0 or stop == horizon:
                lam = rec.lambda_t[stop - 1] = metrics.lambda_min_normalized(acc)
            thetas[0] = thetas[k]
        start = stop

    x = rec.x[0] = np.array(plant.x0, dtype=float)
    x_star = u_star = x_star_next = None
    if has_ref:
        x_star = rec.x_star[0] = x.copy()
    theta_ctrl = state.theta_hat.copy()  # theta_hat_{t-1} as seen by the controller
    stop = block_end(0)
    tic = time.perf_counter()

    try:
        for t in range(horizon):
            u, v = next_input(theta_ctrl, x, t, rng_probe)
            if has_ref:
                u_star = control.policy_eval(ref_mech, plant.theta_star, x_star)
            w = noise_sample(noise, rng_noise)
            x_next = plant_step(plant, x, u, w)
            if has_ref:
                x_star_next = plant_step(plant, x_star, u_star, w)
            norm = estimator.frobenius_norm(x_next)
            if norm > divergence_ceiling:
                raise ValueError(f"state norm {norm:.3e} exceeded the divergence ceiling")
            phi = np.concatenate([x, u])
            theta_prev = state.theta_hat
            state_next, diag = estimator.estimator_step(state, phi, x_next, plant.link, pset)
            if collect_metrics:
                k = t - start
                prediction_star[k] = plant.link.eval(theta_star_t @ phi)
                prediction[k] = diag.prediction
                thetas[k + 1] = state_next.theta_hat

            rec.u[t] = u
            rec.v[t] = v
            rec.w[t] = w
            rec.x[t + 1] = x_next
            if has_ref:
                rec.u_star[t] = u_star
                rec.x_star[t + 1] = x_star_next
            rec.param_err[t] = estimator.frobenius_norm(plant.theta_star - state_next.theta_hat)
            rec.d_t[t] = diag.d_gain
            rec.mu_t[t] = diag.mu_weight
            rec.a_t[t] = diag.a_weight
            rec.projected[t] = diag.projected
            theta_ctrl = theta_prev  # controller at t+1 uses theta_hat_t
            state, x, x_star = state_next, x_next, x_star_next
            if t + 1 == stop:
                absorb(stop)
                stop = block_end(stop)
    except _STEP_FAILURES as exc:
        absorb(t)
        rec.steps_completed = t
        raise RunAbort(str(exc), t, rec) from exc

    rec.steps_completed = horizon
    rec.final_state = state
    rec.manifest.update(wall_time_s=time.perf_counter() - tic, seed=seed)
    return rec
