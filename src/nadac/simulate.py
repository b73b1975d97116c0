"""Simulation engine: one loop for closed-loop and open-loop runs.

A closed-loop run co-simulates the adaptive loop and the oracle reference
trajectory on a shared noise stream; an open-loop identification run drives
the plant with its probe as the input and has no reference.  Both advance the
estimator once per step.  Step order at time t: input -> reference ->
noise -> plant (one link call for both trajectories and the estimator's
prediction) -> estimator update; the controller always sees the estimate
that was current one update ago.  What
no step reads back (the run metrics, w and param_err) is formed a block of
steps at a time, and each run's random draws for a block are taken at its start.

The loop advances a batch of R runs in lockstep (run_batch): their states
carry a leading run axis, so each numpy call serves all R, and every run
gives the same bits as alone.  A single run has no run axis.
"""

from __future__ import annotations

import math
import time
from dataclasses import KW_ONLY, InitVar, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import control, estimator, maps, metrics

__all__ = [
    "PlantSpec", "NoiseSpec", "RunRecord", "RunAbort", "RunSpec", "CsvWriter", "plant_step",
    "noise_sample", "spawn_streams", "run_closed_loop", "run_open_loop_id", "run_batch", "batch_key",
]

DIVERGENCE_CEILING = 1e9


class RunAbort(RuntimeError):
    """Simulation aborted; carries the partial record, whose steps_completed
    is the failing step."""

    def __init__(self, message, record):
        super().__init__(f"{message} (step {record.steps_completed})")
        self.record = record


@dataclass(frozen=True)
class PlantSpec:
    """n and m are read off theta_star (n+m, n), after a batch's run axis."""

    theta_star: np.ndarray
    link: object
    x0: np.ndarray

    @property
    def n(self):
        return self.theta_star.shape[-1]

    @property
    def m(self):
        return self.theta_star.shape[-2] - self.theta_star.shape[-1]

    @cached_property
    def a_matrix(self):
        return self.theta_star[..., : self.n, :].mT

    @cached_property
    def b_matrix(self):
        return self.theta_star[..., self.n :, :].mT


def plant_step(spec, x, u, w, z=None):
    """x_{t+1} = f(A x + B u) + w; x, u and w of a batch carry a leading run
    axis, as do theta_star and the link parameters of its stacked spec.  x
    and u may carry a further leading axis, the states and inputs of
    trajectories that share the plant and w.  With ``z`` (shaped like w), the
    link input of the estimator's prediction, f is evaluated once on A x + B u
    with z stacked after it, and the return is (x_next, f(z)): every link is
    elementwise, so each row gets the bits it gets alone."""
    y = np.matvec(spec.a_matrix, x) + np.matvec(spec.b_matrix, u)
    if z is None:
        x_next = spec.link.eval(y) + w
    elif y.ndim == 1:
        # a single run without a reference: y and z end to end in one vector
        fy = spec.link.eval(np.concatenate((y, z)))
        x_next, prediction = fy[: len(y)] + w, fy[len(y) :]
    else:
        fy = spec.link.eval(np.concatenate((y.reshape((-1,) + z.shape), z[None])))
        x_next, prediction = fy[:-1].reshape(y.shape) + w, fy[-1]
    if not maps.all_finite(x_next):
        raise ValueError("plant produced a non-finite state")
    return x_next if z is None else (x_next, prediction)


@dataclass(frozen=True)
class NoiseSpec:
    """i.i.d. zero-mean noise; bounded kinds are required with bounded links.

    kinds: "uniform_cube" (uniform on [-half_width, half_width]^n),
    "truncated_gaussian" (N(0, sigma^2) clipped to [-trunc, trunc], which
    keeps the samples symmetric and hence zero-mean), "gaussian".
    """

    kind: str
    half_width: float = 0.1
    sigma: float = 1.0
    trunc: float = np.inf

    def __post_init__(self):
        if self.kind not in ("uniform_cube", "truncated_gaussian", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("half_width", "sigma", "trunc"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValueError(f"noise {name} must be >= 0")
        if self.kind == "truncated_gaussian" and not np.isfinite(self.trunc):
            raise ValueError("truncated_gaussian needs a finite truncation radius")

    @property
    def bounded(self):
        return self.kind != "gaussian"


def noise_sample(spec, rng, shape):
    """Draw w of ``shape``: n for one step, or (steps, n) for that many steps
    at once, one row per step, with the same values and the same use of the
    stream as single draws."""
    if spec.kind == "uniform_cube":
        return rng.uniform(-spec.half_width, spec.half_width, size=shape)
    w = rng.standard_normal(shape) * spec.sigma
    if spec.kind == "truncated_gaussian":
        return np.minimum(np.maximum(w, -spec.trunc), spec.trunc)
    return w


def spawn_streams(seed):
    """The two substreams the loop draws from, off one root seed: "noise"
    and "probe" (the probe, which is the open-loop input); drawing probes never
    perturbs the plant noise realization."""
    root = np.random.SeedSequence(seed)
    names = ("noise", "probe")
    return dict(zip(names, (np.random.Generator(np.random.PCG64(s)) for s in root.spawn(2))))


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


def csv_header(n, m):
    """The CSV header of a run with n states and m inputs: "t", then one
    field per entry of COLUMNS (x0, x1, ... for a column of width n)."""
    dims = {"n": n, "m": m}
    cols = ["t"]
    for _, label, width, _ in COLUMNS:
        if width is None:
            cols.append(label)
        else:
            cols += [f"{label}{i}" for i in range(dims[width])]
    return cols


def _csv_table(rec, start, stop):
    """Rows start .. stop-1 of a record as one float table, the CSV fields
    after t in order; the flag column, last in COLUMNS, reads 0.0 or 1.0."""
    return np.column_stack([getattr(rec, attr)[start:stop] for attr, *_ in COLUMNS])


def _csv_rows(table, first, stride):
    """The CSV lines of a table of rows (_csv_table) whose first row is step
    ``first``, keeping the steps that are multiples of ``stride``.  repr of
    a Python float round-trips; the flag prints as 0 or 1."""
    skip = -first % stride
    steps = range(first + skip, first + len(table), stride)
    return "".join(
        f"{t},{','.join(map(repr, row[:-1]))},{'1' if row[-1] else '0'}\n"
        for t, row in zip(steps, table[skip::stride].tolist())
    )


@dataclass
class RunRecord:
    """Full per-step log of one simulation plus its wall time: one array per
    entry of COLUMNS for ``horizon`` steps, set to the column's fill until
    written (x_star, u_star and j_t stay NaN in a run without a reference).
    ``columns`` may hand in the arrays (views into a batch's)."""

    n: int
    m: int
    horizon: int
    acc: metrics.MetricAccumulator
    steps_completed: int = field(init=False, default=0)
    wall_time_s: float | None = field(init=False, default=None)  # of a completed run
    columns: InitVar[dict | None] = None

    def __post_init__(self, columns):
        if columns is None:
            columns = _columns(self.n, self.m, self.horizon)
        for attr, *_ in COLUMNS:
            setattr(self, attr, columns[attr])

    def write_csv(self, path, stride=1):
        with open(path, "w") as fh:
            fh.write(",".join(csv_header(self.n, self.m)) + "\n")
            for start in range(0, self.steps_completed, METRIC_BLOCK):
                stop = min(start + METRIC_BLOCK, self.steps_completed)
                fh.write(_csv_rows(_csv_table(self, start, stop), start, stride))

    def summary(self):
        last = self.steps_completed - 1
        out = {
            "steps": self.steps_completed,
            "final_param_err": float(self.param_err[last]),
            "final_tracking_error": float(self.j_t[last]),
            "final_lambda_min": float(self.lambda_t[last]),
            "projections": int(np.count_nonzero(self.projected[: self.steps_completed])),
        }
        out["empirical_gain_ratio"] = metrics.empirical_gain_ratio(self.acc)
        if self.acc.sum_sign_mismatch or self.acc.sum_track_sq:
            out["sign_regret"] = metrics.sign_regret(self.acc)
        out["prediction_regret"] = self.acc.sum_pred_regret
        return out


class CsvWriter:
    """A run's CSV file, formatted beside the loop by one forked child.

    The loop hands it each block of final rows (``send``) over a pipe, and
    the child appends their lines to a temporary file in the file's
    directory.  ``commit`` reports a completed run and waits for the child,
    which then renames the temporary file to ``path``; ``close`` without a
    commit, or the parent's death, leaves the child at the end of its pipe,
    and it deletes the temporary file.  A child that cannot write the file
    deletes it too and sends back its reason: ``error`` is then the OSError
    "cannot write PATH: REASON", which the next ``send`` or the ``commit``
    raises.  Use it as a context manager, so that the child is reaped on
    every way out.  The temporary file is opened before the fork, so an
    OSError for the directory is raised before any row; a fork that fails
    raises a ChildProcessError and leaves no file.  The child never calls
    into BLAS: the fork does not copy the BLAS threads."""

    def __init__(self, path, n, m, stride):
        import os

        self.path = path = os.fspath(path)
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        rfd, wfd = os.pipe()
        erfd, ewfd = os.pipe()  # the child's reason, should it fail
        try:
            pid = os.fork()
        except OSError as exc:
            for f in (fd, rfd, wfd, erfd, ewfd):
                os.close(f)
            os.unlink(tmp)
            raise ChildProcessError(f"cannot start the CSV writer: {exc.strerror}") from exc
        if pid == 0:
            os.close(wfd)
            os.close(erfd)
            _csv_child(rfd, fd, ewfd, tmp, path, csv_header(n, m), stride)
        for f in (rfd, fd, ewfd):
            os.close(f)
        self.pid, self.status, self.error = pid, None, None
        self._pipe = open(wfd, "wb")
        self._reasons = erfd

    def send(self, rec, start, stop):
        """Hand the child rows start .. stop-1 of ``rec``, which are final."""
        try:
            self._pipe.write(_block_head(start, stop))
            self._pipe.write(_csv_table(rec, start, stop))
            self._pipe.flush()
        except BrokenPipeError:
            self.close()
            raise self.error from None

    def commit(self, rows):
        """Report a completed run of ``rows`` steps, wait for the child and
        raise its OSError if it did not write the file whole."""
        self._pipe.write(_block_head(-1, rows))
        self.close()
        if self.error:
            raise self.error

    def close(self):
        """End the pipe and reap the child; a second call does nothing."""
        import os

        if self.status is None:
            try:
                self._pipe.close()
            except BrokenPipeError:
                pass  # the child is gone; its status tells
            self.status = os.waitpid(self.pid, 0)[1]
            with open(self._reasons, "rb") as fh:
                reason = fh.read().decode() or f"the CSV writer failed (wait status {self.status})"
            if self.status:
                self.error = OSError(f"cannot write {self.path}: {reason}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _block_head(start, stop):
    """What precedes a block on the writer's pipe; start -1 commits."""
    return start.to_bytes(8, "little", signed=True) + stop.to_bytes(8, "little", signed=True)


def _leave_parent_cpu():
    """Keep this process off the CPU its parent last ran on, when another
    CPU is allowed.  Left to the scheduler, the writer's child shared the
    loop's CPU on a 2-vCPU Linux VM and the loop took 35% longer; off it,
    the loop runs as without a writer.  Where /proc or CPU affinity is
    missing, the child stays where the scheduler puts it."""
    import os

    try:
        with open(f"/proc/{os.getppid()}/stat") as fh:
            cpu = int(fh.read().rpartition(")")[2].split()[36])  # field 39, processor
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def _csv_child(rfd, fd, ewfd, tmp, path, header, stride):
    """The writer's child (never returns): formats the blocks from ``rfd``
    into the temporary file ``fd`` and renames it to ``path`` on a commit
    after rows 0 .. rows-1 in order; writes why it cannot to ``ewfd``."""
    import gc
    import os
    import signal

    # a signal to the process group ends the parent, and the end of the pipe
    # then tells the child; no collection runs the parent's finalizers
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, signal.SIG_IGN)
    gc.disable()
    _leave_parent_cpu()
    ncols = len(header) - 1
    done = False
    try:
        with open(rfd, "rb") as pipe, open(fd, "w") as fh:
            fh.write(",".join(header) + "\n")
            rows = 0
            while True:
                head = pipe.read(16)
                if len(head) < 16:
                    break  # the end of the pipe before a commit: no file
                start = int.from_bytes(head[:8], "little", signed=True)
                stop = int.from_bytes(head[8:], "little", signed=True)
                if start < 0:
                    done = stop == rows
                    break
                size = 8 * ncols * (stop - start)
                data = pipe.read(size)
                if start != rows or len(data) < size:
                    break
                fh.write(_csv_rows(np.frombuffer(data).reshape(-1, ncols), start, stride))
                rows = stop
        if done:
            os.replace(tmp, path)
    except Exception as exc:  # noqa: BLE001 - reported, then the exit status
        done = False
        os.write(ewfd, str(getattr(exc, "strerror", None) or exc).encode())
    finally:
        if not done:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        os._exit(0 if done else 1)


@dataclass
class RunSpec:
    """The whole of one run: the arguments of run_closed_loop (``mech`` set)
    or of run_open_loop_id (``input_gain`` K or None), with the horizon and
    the stride of the excitation eigenvalue (lambda_t).  A
    ``csv_writer`` (CsvWriter) is sent each block of rows as soon as it is
    final; only a run alone takes one."""

    plant: PlantSpec
    pset: object
    noise: NoiseSpec
    seed: int
    probe: control.ProbingSignal
    mech: object = None
    input_gain: object = None
    theta0: object = None
    delta: float = 0.5
    gamma: float = 4.0
    divergence_ceiling: float = DIVERGENCE_CEILING
    _: KW_ONLY
    horizon: int
    eig_stride: int = 100
    csv_writer: CsvWriter | None = None


def batch_key(spec):
    """What the runs of one batch share: the horizon, the eig stride, n, m
    and the kind of the link, the parameter set, the policy (None in open
    loop) and its lift, the noise, and whether an input gain is set.  Their
    numeric values may differ."""
    return (
        spec.horizon, spec.eig_stride, spec.plant.n, spec.plant.m, type(spec.plant.link),
        type(spec.pset), type(spec.mech), getattr(spec.mech, "lift_kind", None),
        spec.noise.kind, spec.input_gain is None,
    )


def run_closed_loop(plant, pset, mech, probe, noise, horizon, seed, **options):
    """Adaptive closed loop plus oracle reference on a shared noise stream;
    ``options`` are the other fields of RunSpec."""
    spec = RunSpec(plant, pset, noise, seed, probe, mech=mech, horizon=horizon, **options)
    return _alone(spec)


def run_open_loop_id(plant, pset, probe, noise, horizon, seed, **options):
    """Identification-only run whose input is the probe, u_t = v_t, or with
    an ``input_gain`` K among ``options`` u_t = K x_t + v_t; ``options`` are
    the other fields of RunSpec.  A probe of decay 0 is i.i.d. uniform, and
    one of half width 0 is the zero input.  The estimator observes the loop
    but never closes it.
    """
    spec = RunSpec(plant, pset, noise, seed, probe, horizon=horizon, **options)
    return _alone(spec)


def run_batch(specs):
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
    if any(spec.csv_writer is not None for spec in specs):
        # a batch that gives up reruns its runs from step 0
        raise ValueError("the runs of a batch take no csv_writer")
    return _run(specs)


def _alone(spec):
    (result,) = _run([spec])
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
        plant = spec.plant
        if spec.mech is not None and not spec.pset.contains(plant.theta_star, shrunk=True):
            raise ValueError("theta_star must lie strictly inside the shrunken set")
        if not spec.noise.bounded and plant.link.bounded:
            raise ValueError("bounded links require almost-surely bounded noise")
        n, m = plant.n, plant.m
        theta0 = np.zeros((n + m, n)) if spec.theta0 is None else np.asarray(spec.theta0, float)
        self.state = estimator.new_estimator(theta0, spec.pset, spec.delta, plant.link)
        streams = spawn_streams(spec.seed)
        self.rng_noise, self.rng_probe = streams["noise"], streams["probe"]
        # the loop's Riccati feedback solves on a copy with a cold cache: every
        # run starts cold, and the caller's mechanism is never mutated
        self.mech = spec.mech
        if isinstance(spec.mech, control.RiccatiFeedback):
            self.mech = replace(spec.mech)
        self.acc = metrics.MetricAccumulator(plant.theta_star, plant.link, spec.gamma)
        self.index, self.spec, self.lam, self.pos = index, spec, 0.0, None
        self.rec = None
        self.probe_dim = m if spec.mech is None else spec.mech.raw_dim

    def draws(self, start, k):
        """The probe and noise draws of steps start .. start+k-1, one row per
        step."""
        spec = self.spec
        return (
            control.probe_sample(spec.probe, start, self.rng_probe, (k, self.probe_dim)),
            noise_sample(spec.noise, self.rng_noise, (k, spec.plant.n)),
        )


class _Loop:
    """One step of a run, or of a batch with its objects stacked along a
    leading run axis: link and set parameters that differ between the runs
    as arrays (maps.stacked), one mechanism per run.  The reference policy of
    the fixed theta* is formed at the first step, so its failure aborts step 0."""

    def __init__(self, members):
        specs = [mb.spec for mb in members]
        first = specs[0]
        self.batched = len(specs) > 1
        if self.batched:
            self.plant = PlantSpec(
                theta_star=np.array([s.plant.theta_star for s in specs]),
                link=maps.stacked([s.plant.link for s in specs], 1), x0=None,
            )
            self.pset = maps.stacked([s.pset for s in specs])
            self.mech = self.ref_mech = None  # open loop
            if first.mech is not None:
                self.mech = tuple(mb.mech for mb in members)
                self.ref_mech = tuple(s.mech for s in specs)
            self.ceiling = np.array([s.divergence_ceiling for s in specs])
        else:
            (mb,) = members
            self.plant, self.pset, self.ceiling = first.plant, first.pset, first.divergence_ceiling
            self.mech, self.ref_mech = mb.mech, first.mech
        self.reference = None
        self.zero = np.zeros((len(specs), first.plant.m) if self.batched else first.plant.m)
        self.gain = first.input_gain
        if self.gain is not None and self.batched:
            self.gain = np.array([s.input_gain for s in specs])

    def step(self, x, x_star, theta_ctrl, state, v_draw, w):
        """A step from the state before it and the step's draws; returns
        (u, v, u_star, x_next, x_star_next, state_next, diag).  In open loop
        the probe draw is the input (plus K x with a gain), and v is 0."""
        if self.mech is not None:
            u, v = control.adaptive_input(self.mech, theta_ctrl, x, v_draw)
        elif self.gain is None:
            u, v = v_draw, self.zero
        else:
            u, v = np.matvec(self.gain, x) + v_draw, self.zero
        plant = self.plant
        # the estimator's prediction f(theta_hat^T phi) rides the plant's call
        phi = np.concatenate([x, u], axis=-1)
        z = estimator.link_input(state.theta_hat, phi)
        u_star = x_star_next = None
        if self.ref_mech is None:
            x_next, prediction = plant_step(plant, x, u, w, z)
        else:
            # so does the reference, stacked before any run axis
            if self.reference is None:
                self.reference = control.frozen_policy(self.ref_mech, plant.theta_star)
            u_star = self.reference(x_star)
            (x_next, x_star_next), prediction = plant_step(
                plant, np.array((x, x_star)), np.array((u, u_star)), w, z
            )
        if self.batched:
            norm = estimator.run_norms(x_next, 1)
            if np.logical_or.reduce(norm > self.ceiling):
                raise ValueError("a run's state norm exceeded the divergence ceiling")
        else:
            norm = math.sqrt(x_next.dot(x_next))
            if norm > self.ceiling:
                raise ValueError(f"state norm {norm:.3e} exceeded the divergence ceiling")
        state_next, diag = estimator.estimator_step(
            state, phi, x_next, plant.link, self.pset, z, prediction
        )
        return u, v, u_star, x_next, x_star_next, state_next, diag


def _stack_states(states):
    """The batch state of runs' states, along a leading run axis."""
    return estimator.EstimatorState(
        theta_hat=np.array([s.theta_hat for s in states]),
        p_matrix=np.array([s.p_matrix for s in states]),
        r_accum=np.array([s.r_accum for s in states]),
        delta=np.array([s.delta for s in states]),
    )


def _run(specs):
    """The loop of both entry points and of run_batch; returns one record or
    exception per spec.

    The metrics read nothing back into the loop, so they absorb blocks of
    steps: the loop buffers what the record does not hold (the estimator's
    prediction and theta_hat after each update) and hands a block to each
    run's accumulator when it ends, or before a failing step aborts the run;
    the w column and the metrics' param_err, J_t and V_t are written then,
    and a run's csv_writer is sent the block's rows, which are then final.
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
    head = members[0].spec
    n, m, horizon, eig_stride = head.plant.n, head.plant.m, head.horizon, head.eig_stride
    has_ref = head.mech is not None
    runs = len(members) if len(members) > 1 else None
    writer = head.csv_writer
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
        rec = mb.rec
        rows, k = slice(start, stop), stop - start
        rec.lambda_t[rows] = mb.lam
        if not k:
            return
        rec.w[rows] = view(w_block, mb)[:k]
        states = slice(start, stop + 1)
        x_star, u_star = (rec.x_star[states], rec.u_star[rows]) if has_ref else (None, None)
        rec.param_err[rows], rec.j_t[rows], rec.v_lyap[rows] = mb.acc.update(
            rec.x[states], rec.u[rows], rec.v[rows], rec.w[rows], x_star, u_star,
            rec.d_t[rows], rec.mu_t[rows], rec.a_t[rows], view(thetas, mb)[: k + 1],
            view(prediction, mb)[:k],
        )
        if (stop - 1) % eig_stride == 0 or stop == horizon:
            mb.lam = rec.lambda_t[stop - 1] = metrics.lambda_min_normalized(mb.acc)

    def block_end(first):
        # one past the block's last step: the next eig_stride step, the cap
        # or the horizon, whichever comes first
        next_eig = -(-first // eig_stride) * eig_stride
        return min(next_eig + 1, first + METRIC_BLOCK, horizon)

    def draw(start, stop):
        per_run = [mb.draws(start, stop - start) for mb in members]
        if runs is None:
            return per_run[0]
        return tuple(np.stack(d, axis=1) for d in zip(*per_run))

    if runs is None:
        x, state = np.array(head.plant.x0, dtype=float), members[0].state
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
                x, x_star, theta_ctrl, state, v_block[j], w_block[j]
            )
        except Exception as exc:  # noqa: BLE001 - the run's own failure
            if runs is not None:
                for mb in members:
                    (results[mb.index],) = _run([mb.spec])
                return results
            (mb,) = members
            if isinstance(exc, _STEP_FAILURES):
                absorb(mb, start, t)
                mb.rec.steps_completed = t
                exc, cause = RunAbort(str(exc), mb.rec), exc
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
        prediction[j] = diag.prediction
        thetas[j + 1] = state_next.theta_hat
        theta_ctrl = state.theta_hat  # controller at t+1 uses theta_hat_t
        state, x, x_star = state_next, x_next, x_star_next
        if t + 1 == stop:
            for mb in members:
                absorb(mb, start, stop)
            if writer is not None:
                writer.send(members[0].rec, start, stop)
            thetas[0] = thetas[stop - start]
            start, stop = stop, block_end(stop)
            if start < horizon:
                v_block, w_block = draw(start, stop)

    wall = time.perf_counter() - tic
    for mb in members:
        rec = mb.rec
        rec.steps_completed = horizon
        rec.wall_time_s = wall
        results[mb.index] = rec
    return results
