"""Simulation engine: one loop for closed-loop and open-loop runs.

A closed-loop run co-simulates the adaptive loop and the oracle reference
trajectory on a shared noise stream; an open-loop identification run drives
the plant with an exogenous input and has no reference.  Both advance the
estimator once per step.  Step order at time t: input -> reference ->
noise -> plant (one call for both trajectories) -> estimator update; the
controller always sees the estimate that was current one update ago.  What
no step reads back (the run metrics, w and param_err) is formed a block of
steps at a time, and each run's random draws for a block are taken at its start.

The loop advances a batch of R runs in lockstep (run_batch): their states
carry a leading run axis, so each numpy call serves all R, and every run
gives the same bits as alone.  A single run has no run axis.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import control, estimator, maps, metrics

__all__ = [
    "PlantSpec", "NoiseSpec", "RunRecord", "RunAbort", "RunSpec", "plant_step", "noise_sample",
    "spawn_streams", "run_closed_loop", "run_open_loop_id", "run_batch", "batch_key",
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

    @cached_property
    def a_matrix(self):
        return self.theta_star[..., : self.n, :].mT

    @cached_property
    def b_matrix(self):
        return self.theta_star[..., self.n :, :].mT


def plant_step(spec, x, u, w):
    """x_{t+1} = f(A x + B u) + w; x, u and w of a batch carry a leading run
    axis, as do theta_star and the link parameters of its stacked spec.  x
    and u may carry a further leading axis, the states and inputs of
    trajectories that share the plant and w."""
    x_next = spec.link.eval(np.matvec(spec.a_matrix, x) + np.matvec(spec.b_matrix, u)) + w
    if not maps.all_finite(x_next):
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


def noise_sample(spec, rng, steps=None):
    """Draw w; with ``steps``, that many draws at once, one row per step,
    with the same values and the same use of the stream as single draws."""
    shape = spec.n if steps is None else (steps, spec.n)
    if spec.kind == "uniform_cube":
        return rng.uniform(-spec.half_width, spec.half_width, size=shape)
    w = rng.standard_normal(shape) * spec.sigma
    if spec.kind == "truncated_gaussian":
        return np.minimum(np.maximum(w, -spec.trunc), spec.trunc)
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


def _columns(n, m, horizon, runs=None):
    """The arrays of COLUMNS set to their fills: for one record, or for
    ``runs`` records at once with the run axis second, so that a step writes
    one row of all runs and a record's columns are views [:, r]."""
    dims = {"n": n, "m": m}
    out = {}
    for attr, _, width, fill in COLUMNS:
        shape = (horizon + (attr in STATE_COLUMNS),) + ((runs,) if runs else ())
        out[attr] = np.full(shape + ((dims[width],) if width else ()), fill)
    return out


@dataclass
class RunRecord:
    """Full per-step log of one simulation plus manifest metadata: one array
    per entry of COLUMNS for ``horizon`` steps, set to the column's fill until
    written (x_star, u_star and j_t stay NaN in a run without a reference).
    ``columns`` may hand in the arrays (views into a batch's)."""

    n: int
    m: int
    horizon: int
    manifest: dict = field(default_factory=dict)
    acc: metrics.MetricAccumulator | None = None
    final_state: estimator.EstimatorState | None = None
    steps_completed: int = 0
    columns: InitVar[dict | None] = None

    def __post_init__(self, columns):
        if columns is None:
            columns = _columns(self.n, self.m, self.horizon)
        for attr, *_ in COLUMNS:
            setattr(self, attr, columns[attr])

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




@dataclass
class RunSpec:
    """One run of ``run_batch``: the arguments of run_closed_loop (``mech``
    and ``probe`` set) or of run_open_loop_id (``input_policy`` set)."""

    plant: PlantSpec
    pset: object
    noise: NoiseSpec
    seed: int
    mech: object = None
    probe: object = None
    input_policy: object = None
    theta0: object = None
    delta: float = 0.5
    gamma: float = 4.0
    divergence_ceiling: float = DIVERGENCE_CEILING


def batch_key(spec):
    """What the runs of one batch share: the mode, n, m and the kind of the
    link, the parameter set, the policy and its lift, the probe distribution,
    the noise and the input policy.  Their numeric values may differ."""
    ip = spec.input_policy
    return (
        spec.mech is not None, spec.plant.n, spec.plant.m, type(spec.plant.link),
        type(spec.pset), type(spec.mech), getattr(spec.mech, "lift_kind", None),
        getattr(spec.probe, "distribution", None), spec.noise.kind,
        ip[0] if isinstance(ip, tuple) else ip,
    )


def run_closed_loop(
    plant, pset, mech, probe, noise, horizon, seed, theta0=None, delta=0.5, gamma=4.0,
    eig_stride=100, divergence_ceiling=DIVERGENCE_CEILING, collect_metrics=True,
):
    """Adaptive closed loop plus oracle reference on a shared noise stream."""
    spec = RunSpec(
        plant, pset, noise, seed, mech=mech, probe=probe, theta0=theta0, delta=delta,
        gamma=gamma, divergence_ceiling=divergence_ceiling,
    )
    return _alone(spec, horizon, eig_stride, collect_metrics)


def run_open_loop_id(
    plant, pset, input_policy, noise, horizon, seed, theta0=None, delta=0.5, gamma=4.0,
    eig_stride=100, divergence_ceiling=DIVERGENCE_CEILING,
):
    """Identification-only run under an exogenous input policy.

    ``input_policy``: "zero", ("iid_uniform", half_width), or
    ("state_feedback", K) with u = K x.  The estimator observes the loop but
    never closes it.
    """
    spec = RunSpec(
        plant, pset, noise, seed, input_policy=input_policy, theta0=theta0, delta=delta,
        gamma=gamma, divergence_ceiling=divergence_ceiling,
    )
    return _alone(spec, horizon, eig_stride, True)


def run_batch(specs, horizon, eig_stride=100, collect_metrics=True):
    """Advance the runs ``specs`` (RunSpec, one batch_key) in lockstep.

    Returns one entry per run, in order: its RunRecord, or the exception it
    raises alone (a RunAbort for a failure inside a step, whose record is
    truncated as alone).  Every run starts with a cold Riccati cache, and the
    specs' mechanisms are left as they are.  If a step of the batch raises,
    the batch is given up and each run is run alone from step 0, so every
    entry is the one the run gives alone.
    """
    if len({batch_key(spec) for spec in specs}) > 1:
        raise ValueError("the runs of a batch must share batch_key")
    return _run(specs, horizon, eig_stride, collect_metrics)


def _alone(spec, horizon, eig_stride, collect_metrics):
    (result,) = _run([spec], horizon, eig_stride, collect_metrics)
    if isinstance(result, BaseException):
        raise result
    return result


# failures inside a step; each ends the run with a RunAbort carrying the
# record of the steps completed before it
_STEP_FAILURES = (
    ValueError, control.DareError, estimator.ProjectionError, estimator.NumericalAbort
)

# most steps the metrics absorb at once; a block also ends at every
# eig_stride step and at the horizon
METRIC_BLOCK = 256


class _Member:
    """One run of a batch: its spec, random streams, record and metrics.
    ``pos`` is its index along the batch's run axis, None without one."""

    def __init__(self, index, spec):
        plant, ip = spec.plant, spec.input_policy
        if spec.mech is not None:
            if not spec.pset.contains(plant.theta_star, shrunk=True):
                raise ValueError("theta_star must lie strictly inside the shrunken set")
        elif ip != "zero" and not (
            isinstance(ip, tuple) and ip[0] in ("iid_uniform", "state_feedback")
        ):
            raise ValueError(f"unknown input policy {ip!r}")
        if not spec.noise.bounded and plant.link.bounded:
            raise ValueError("bounded links require almost-surely bounded noise")
        n, m = plant.n, plant.m
        theta0 = np.zeros((n + m, n)) if spec.theta0 is None else np.asarray(spec.theta0, float)
        self.state = estimator.new_estimator(theta0, spec.pset, spec.delta, plant.link)
        streams = spawn_streams(spec.seed)
        self.rng_noise, self.rng_probe = streams["noise"], streams["probe"]
        # the loop and the reference each get their own cold Riccati cache:
        # every run starts cold, warm starts do not leak between the theta*
        # solve and the moving theta_hat solves, and the caller's mechanism
        # is never mutated
        self.mech = self.ref_mech = spec.mech
        if isinstance(spec.mech, control.RiccatiFeedback):
            self.mech, self.ref_mech = (
                replace(spec.mech, _cache_theta=None, _cache_p=None) for _ in range(2)
            )
        self.acc = metrics.MetricAccumulator(n=n, m=m, theta_star=plant.theta_star)
        self.index, self.spec, self.lam, self.pos = index, spec, 0.0, None
        self.rec = None

    def draws(self, start, k):
        """The probe (or open-loop input) and noise draws of steps start ..
        start+k-1, one row per step."""
        spec, ip = self.spec, self.spec.input_policy
        v = None
        if spec.mech is not None:
            v = control.probe_sample(spec.probe, start, self.rng_probe, steps=k)
        elif isinstance(ip, tuple) and ip[0] == "iid_uniform":
            v = self.rng_probe.uniform(-ip[1], ip[1], size=(k, spec.plant.m))
        return v, noise_sample(spec.noise, self.rng_noise, steps=k)


class _Loop:
    """One step of a run, or of a batch with its objects stacked along a
    leading run axis: link and set parameters that differ between the runs
    as arrays (maps.stacked), one mechanism per run."""

    def __init__(self, members):
        specs = [mb.spec for mb in members]
        first = specs[0]
        self.batched = len(specs) > 1
        if self.batched:
            self.plant = PlantSpec(
                theta_star=np.array([s.plant.theta_star for s in specs]),
                link=maps.stacked([s.plant.link for s in specs], 1),
                n=first.plant.n, m=first.plant.m, x0=None,
            )
            self.pset = maps.stacked([s.pset for s in specs])
            self.mech = self.ref_mech = None  # open loop
            if first.mech is not None:
                self.mech = tuple(mb.mech for mb in members)
                self.ref_mech = tuple(mb.ref_mech for mb in members)
            self.ceiling = np.array([s.divergence_ceiling for s in specs])
        else:
            (mb,) = members
            self.plant, self.pset, self.ceiling = first.plant, first.pset, first.divergence_ceiling
            self.mech, self.ref_mech = mb.mech, mb.ref_mech
        self.zero = np.zeros((len(specs), first.plant.m) if self.batched else first.plant.m)
        ip = first.input_policy
        self.input_kind = ip[0] if isinstance(ip, tuple) else ip
        if self.input_kind == "state_feedback":
            gains = [np.asarray(s.input_policy[1]) for s in specs]
            self.gain = np.array(gains) if self.batched else gains[0]

    def step(self, t, x, x_star, theta_ctrl, state, v_draw, w):
        """Step t from the state before it and the step's draws; returns
        (u, v, u_star, x_next, x_star_next, state_next, diag)."""
        if self.mech is not None:
            u, v = control.adaptive_input(
                self.mech, theta_ctrl, x, None, t, None, v_raw=v_draw
            )
        elif self.input_kind == "iid_uniform":
            u, v = v_draw, self.zero
        elif self.input_kind == "state_feedback":
            u, v = np.matvec(self.gain, x), self.zero
        else:
            u, v = self.zero, self.zero
        plant = self.plant
        u_star = x_star_next = None
        if self.ref_mech is None:
            x_next = plant_step(plant, x, u, w)
        else:
            # the reference rides the plant's call, stacked before any run axis
            u_star = control.policy_eval(self.ref_mech, plant.theta_star, x_star)
            x_next, x_star_next = plant_step(
                plant, np.array((x, x_star)), np.array((u, u_star)), w
            )
        norm = estimator.run_norms(x_next, 1)
        if self.batched:
            if np.logical_or.reduce(norm > self.ceiling):
                raise ValueError("a run's state norm exceeded the divergence ceiling")
        elif norm > self.ceiling:
            raise ValueError(f"state norm {norm:.3e} exceeded the divergence ceiling")
        phi = np.concatenate([x, u], axis=-1)
        state_next, diag = estimator.estimator_step(state, phi, x_next, plant.link, self.pset)
        return u, v, u_star, x_next, x_star_next, state_next, diag


def _run_state(state, pos):
    """The estimator state of the run at ``pos`` of a batch's state."""
    return estimator.EstimatorState(
        theta_hat=state.theta_hat[pos], p_matrix=state.p_matrix[pos],
        r_accum=float(state.r_accum[pos]), step=state.step, delta=float(state.delta[pos]),
        projection_count=int(state.projection_count[pos]),
    )


def _stack_states(states):
    """The batch state of runs' states, along a leading run axis."""
    return estimator.EstimatorState(
        theta_hat=np.array([s.theta_hat for s in states]),
        p_matrix=np.array([s.p_matrix for s in states]),
        r_accum=np.array([s.r_accum for s in states]), step=states[0].step,
        delta=np.array([s.delta for s in states]),
        projection_count=np.array([s.projection_count for s in states]),
    )


def _run(specs, horizon, eig_stride, collect_metrics):
    """The loop of both entry points and of run_batch; returns one record or
    exception per spec.

    The metrics read nothing back into the loop, so they absorb blocks of
    steps: the loop buffers what the record does not hold (the estimator's
    prediction and theta_hat after each update) and hands a block to each
    run's accumulator when it ends, or before a failing step aborts the run;
    the w and param_err columns are written then, with or without metrics.
    A step of a batch that raises gives the batch up: each of its runs is
    run alone from step 0, which is the reference, so every run's record or
    exception is the one it gives alone."""
    results = [None] * len(specs)
    members = []
    for i, spec in enumerate(specs):
        try:
            members.append(_Member(i, spec))
        except Exception as exc:  # noqa: BLE001 - raised as alone
            results[i] = exc
    if not members:
        return results
    n, m = members[0].spec.plant.n, members[0].spec.plant.m
    has_ref = members[0].spec.mech is not None
    runs = len(members) if len(members) > 1 else None
    cols = _columns(n, m, horizon, runs)
    for pos, mb in enumerate(members):
        mb.pos = pos if runs else None
        views = {attr: c if runs is None else c[:, pos] for attr, c in cols.items()}
        mb.rec = RunRecord(n=n, m=m, horizon=horizon, acc=mb.acc, columns=views)
    loop = _Loop(members)
    block = (METRIC_BLOCK,) + ((runs,) if runs else ())
    prediction = np.empty(block + (n,))
    thetas = np.empty((METRIC_BLOCK + 1,) + block[1:] + (n + m, n))

    def view(a, mb):
        return a if mb.pos is None else a[:, mb.pos]

    def absorb(mb, start, stop):
        """Hand steps start .. stop-1 of member ``mb`` to its metrics and log
        their rows."""
        rec, acc = mb.rec, mb.acc
        rows, k = slice(start, stop), stop - start
        rec.lambda_t[rows] = mb.lam
        if not k:
            return
        rec.w[rows] = view(w_block, mb)[:k]
        run_thetas = view(thetas, mb)
        rec.param_err[rows] = estimator.run_norms(
            mb.spec.plant.theta_star - run_thetas[1 : k + 1], 2
        )
        if collect_metrics:
            diag = estimator.StepDiagnostics(
                d_gain=rec.d_t[rows], g_bar=np.nan, a_weight=rec.a_t[rows],
                mu_weight=rec.mu_t[rows], prediction=view(prediction, mb)[:k],
            )
            x_star, u_star = (rec.x_star[rows], rec.u_star[rows]) if has_ref else (None, None)
            rec.v_lyap[rows], track = acc.update(
                np.concatenate([rec.x[rows], rec.u[rows]], axis=1), rec.x[rows],
                rec.x[start + 1 : stop + 1], rec.v[rows], rec.w[rows], diag, mb.spec.plant.link,
                theta_hat=run_thetas[:k], theta_hat_next=run_thetas[1 : k + 1], x_star=x_star,
                u=rec.u[rows], u_star=u_star, gamma=mb.spec.gamma,
            )
            if has_ref:
                rec.j_t[rows] = track / np.arange(start + 1, stop + 1)
            if (stop - 1) % eig_stride == 0 or stop == horizon:
                mb.lam = rec.lambda_t[stop - 1] = metrics.lambda_min_normalized(acc)

    def block_end(first):
        # one past the block's last step: the next eig_stride step, the cap
        # or the horizon, whichever comes first
        next_eig = -(-first // eig_stride) * eig_stride
        return min(next_eig + 1, first + METRIC_BLOCK, horizon)

    def draw(start, stop):
        per_run = [mb.draws(start, stop - start) for mb in members]
        if runs is None:
            return per_run[0]
        return tuple(None if d[0] is None else np.stack(d, axis=1) for d in zip(*per_run))

    if runs is None:
        x, state = np.array(members[0].spec.plant.x0, dtype=float), members[0].state
    else:
        x = np.array([mb.spec.plant.x0 for mb in members], dtype=float)
        state = _stack_states([mb.state for mb in members])
    cols["x"][0] = x
    x_star = None
    if has_ref:
        x_star = cols["x_star"][0] = x.copy()
    thetas[0] = state.theta_hat
    theta_ctrl = state.theta_hat.copy()  # theta_hat_{t-1} as seen by the controller
    start, stop = 0, block_end(0)
    v_block, w_block = draw(start, stop)
    tic = time.perf_counter()

    for t in range(horizon):
        j = t - start
        try:
            u, v, u_star, x_next, x_star_next, state_next, diag = loop.step(
                t, x, x_star, theta_ctrl, state, None if v_block is None else v_block[j], w_block[j]
            )
        except Exception as exc:  # noqa: BLE001 - the run's own failure
            if runs is not None:
                for mb in members:
                    (results[mb.index],) = _run([mb.spec], horizon, eig_stride, collect_metrics)
                return results
            (mb,) = members
            if isinstance(exc, _STEP_FAILURES):
                absorb(mb, start, t)
                mb.rec.steps_completed = t
                exc, cause = RunAbort(str(exc), t, mb.rec), exc
                exc.__cause__ = cause
            results[mb.index] = exc
            return results

        cols["u"][t] = u
        cols["v"][t] = v
        cols["x"][t + 1] = x_next
        if has_ref:
            cols["u_star"][t] = u_star
            cols["x_star"][t + 1] = x_star_next
        cols["d_t"][t] = diag.d_gain
        cols["mu_t"][t] = diag.mu_weight
        cols["a_t"][t] = diag.a_weight
        cols["projected"][t] = diag.projected
        if collect_metrics:
            prediction[j] = diag.prediction
        thetas[j + 1] = state_next.theta_hat
        theta_ctrl = state.theta_hat  # controller at t+1 uses theta_hat_t
        state, x, x_star = state_next, x_next, x_star_next
        if t + 1 == stop:
            for mb in members:
                absorb(mb, start, stop)
            thetas[0] = thetas[stop - start]
            start, stop = stop, block_end(stop)
            if start < horizon:
                v_block, w_block = draw(start, stop)

    wall = time.perf_counter() - tic
    for mb in members:
        rec = mb.rec
        rec.steps_completed = horizon
        rec.final_state = state if mb.pos is None else _run_state(state, mb.pos)
        rec.manifest["wall_time_s"] = wall
        results[mb.index] = rec
    return results
