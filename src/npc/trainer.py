"""Receding-horizon training and inference.

Training walks each series anchor by anchor.  At anchor i the controller
(replaying its last few observations on the tape) emits actions for the
next M intervals, the continuous model evolves the committed state across
them, and the window objective takes `inner_steps` Adamax steps.  Then one
interval is executed: the plan is re-emitted under the updated controller,
the committed state advances to t_{i+1}, and the rest of the plan is
discarded.  Series sharing an observation clock are processed as one
batch; the committed hidden state and the carried controller state enter
each window as constants, so every window is its own small graph.

The single-horizon variant (algorithm="single_horizon") is the
ODE-RNN-style reference model: the controller state itself is the context
action, the loss looks one interval ahead, and there is no planning head.
"""

import json
import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import objective as obj
from .continuous import ContinuousConfig, ContinuousModel
from .controller import (ActionSequence, Controller, ControllerConfig,
                         ControllerState)
from .datagen import Normalizer
from .metrics import accuracy, mape, rmse
from .params import Adamax, ParamStore

log = logging.getLogger("npc")

ALGORITHMS = ("npc", "single_horizon")


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 50
    batch: int = 32
    inner_steps: int = 1
    lr: float = 1e-3
    stride: int = 1
    seed: int = 0
    patience: int = 10
    min_rel_improve: float = 1e-5
    shuffle: bool = True
    freeze_prefixes: tuple = ()

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1 or self.stride < 1:
            raise ValueError("epochs, batch and stride must be positive")
        if self.inner_steps < 0:
            raise ValueError("inner_steps must be >= 0")


@dataclass
class TrainReport:
    epoch_losses: list = field(default_factory=list)
    window_objectives: list = field(default_factory=list)
    windows: int = 0
    epochs_run: int = 0
    stopped_early: bool = False
    skipped_series: int = 0
    wall_seconds: float = 0.0

    def to_dict(self):
        return {
            "epoch_losses": self.epoch_losses,
            "window_objectives": self.window_objectives,
            "windows": self.windows,
            "epochs_run": self.epochs_run,
            "stopped_early": self.stopped_early,
            "skipped_series": self.skipped_series,
            "wall_seconds": self.wall_seconds,
        }


class ModelBundle:
    """Controller + continuous model + parameters + data normalizer.

    A checkpoint is one JSON file: the format version, the meta that
    rebuilds the model, the parameter records and the normalizer.
    """

    FORMAT = 1

    def __init__(self, store, controller, model, meta, normalizer=None):
        self.store = store
        self.controller = controller
        self.model = model
        self.meta = dict(meta)
        self.normalizer = normalizer

    @classmethod
    def build(cls, task, obs_dim, algorithm="npc", backend="ode_rnn",
              n_classes=2, m=5, window=4, ctrl_hidden=16, model_hidden=16,
              action_dim=8, head_width=0, fdepth=2, jumps=True,
              cde_tanh=True, substeps=10, method="rk4", lam=0.1, seed=0,
              normalizer=None):
        if task not in ("classification", "regression"):
            raise ValueError(f"unknown task {task!r}")
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if not (np.isfinite(lam) and lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
        if algorithm == "single_horizon":
            # z doubles as the action, one look-ahead interval, no planner
            m = 1
            action_dim = ctrl_hidden
        meta = {
            "task": task, "algorithm": algorithm, "backend": backend,
            "obs_dim": obs_dim, "n_classes": n_classes, "m": m,
            "window": window, "ctrl_hidden": ctrl_hidden,
            "model_hidden": model_hidden, "action_dim": action_dim,
            "head_width": head_width, "fdepth": fdepth, "jumps": jumps,
            "cde_tanh": cde_tanh, "substeps": substeps, "method": method,
            "lam": lam, "seed": seed,
        }
        bundle = cls(ParamStore(), None, None, meta, normalizer)
        bundle._construct()
        bundle._init_params(bundle.store, np.random.default_rng(seed))
        return bundle

    def _init_params(self, store, rng):
        self.controller.init(store, rng,
                             with_head=(self.meta["algorithm"] == "npc"))
        self.model.init(store, rng)

    def _construct(self):
        meta = self.meta
        out_dim = (meta["n_classes"] if meta["task"] == "classification"
                   else meta["obs_dim"])
        ccfg = ControllerConfig(
            obs_dim=meta["obs_dim"], hidden=meta["ctrl_hidden"],
            action_dim=meta["action_dim"], horizon=meta["m"],
            head_width=meta["head_width"], readout_dim=out_dim)
        mcfg = ContinuousConfig(
            obs_dim=meta["obs_dim"], action_dim=meta["action_dim"],
            hidden=meta["model_hidden"], backend=meta["backend"],
            fdepth=meta["fdepth"], jumps=meta["jumps"],
            cde_tanh=meta["cde_tanh"], readout_dim=out_dim)
        self.controller = Controller(ccfg)
        self.model = ContinuousModel(mcfg)
        self.meta["head_width"] = ccfg.head_width

    def save(self, path):
        """Write the checkpoint atomically: a temporary file in the same
        directory, then a rename over `path`."""
        payload = {"format": self.FORMAT, "meta": self.meta,
                   "params": self.store.to_records()}
        if self.normalizer is not None:
            payload["normalizer"] = {
                "mean": self.normalizer.mean.tolist(),
                "std": self.normalizer.std.tolist(),
            }
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as f:
                json.dump(payload, f)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path):
        """Read a checkpoint written by save.  Raises ValueError, naming
        the file, for an unknown format version, missing meta keys, or
        parameters that do not match the model the meta builds."""
        try:
            with open(path) as f:
                payload = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not a checkpoint ({e})") from None
        version = payload.get("format") if isinstance(payload, dict) else None
        if version != cls.FORMAT:
            raise ValueError(f"{path}: checkpoint format {version!r} is not "
                             f"supported (expected {cls.FORMAT})")
        missing = sorted(set(_META_KEYS) - set(payload.get("meta", {})))
        if "params" not in payload:
            missing.append("params")
        if missing:
            raise ValueError(f"{path}: checkpoint is missing {missing}")
        norm = None
        if "normalizer" in payload:
            norm = Normalizer(payload["normalizer"]["mean"],
                              payload["normalizer"]["std"])
            want = (payload["meta"]["obs_dim"],)
            if norm.mean.shape != want or norm.std.shape != want:
                raise ValueError(
                    f"{path}: normalizer mean {norm.mean.shape} and std "
                    f"{norm.std.shape} must match obs_dim {want}")
        bundle = cls(ParamStore(), None, None, payload["meta"], norm)
        try:
            bundle._construct()
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
        expected = ParamStore()
        bundle._init_params(expected, np.random.default_rng(0))
        bundle.store = _checked_params(path, payload["params"], expected)
        return bundle

    def normalize(self, series):
        return self.normalizer.apply(series) if self.normalizer else series


_META_KEYS = (
    "task", "algorithm", "backend", "obs_dim", "n_classes", "m", "window",
    "ctrl_hidden", "model_hidden", "action_dim", "head_width", "fdepth",
    "jumps", "cde_tanh", "substeps", "method", "lam", "seed",
)


def _checked_params(path, records, expected):
    """ParamStore from checkpoint records that must name exactly the
    parameters of `expected`, in its order, with its tags and shapes."""
    names, want = [rec.get("name") for rec in records], expected.names()
    if names != want:
        lost = [n for n in want if n not in names]
        extra = [n for n in names if n not in want]
        raise ValueError(f"{path}: parameters do not match the model "
                         f"(missing {lost}, unexpected {extra}, or out of "
                         "order)")
    store = ParamStore()
    for rec in records:
        name = rec["name"]
        shape = tuple(expected.value(name).shape)
        values = np.asarray(rec.get("values", []), dtype=np.float64)
        if tuple(rec.get("shape", ())) != shape or values.size != np.prod(shape):
            raise ValueError(
                f"{path}: parameter {name!r} has shape {rec.get('shape')} "
                f"and {values.size} values; the model needs {list(shape)}")
        if rec.get("tag") != expected.tag(name):
            raise ValueError(f"{path}: parameter {name!r} has tag "
                             f"{rec.get('tag')!r}, expected "
                             f"{expected.tag(name)!r}")
        store.create(name, values.reshape(shape), rec["tag"])
    return store


# ---------------------------------------------------------------------------
# batched series access

class _Batch:
    """Series sharing one observation clock, stacked for vector math."""

    def __init__(self, series_list):
        self.series = series_list
        times, values = series_list[0].observed()
        self.times = times
        vals = [values]
        for s in series_list[1:]:
            _, v2 = s.observed()
            vals.append(v2)
        self.values = np.stack(vals)           # (B, N, D)
        labels = [s.label for s in series_list]
        self.labels = (None if labels[0] is None
                       else np.asarray(labels, dtype=np.int64))

    @property
    def n_obs(self):
        return self.times.size

    @property
    def b(self):
        return len(self.series)


def _group_series(series_list, min_len, batch_size):
    """Group by identical observed clocks, then chunk to batch_size."""
    groups = {}
    skipped = 0
    for s in series_list:
        t, _ = s.observed()
        if t.size < min_len:
            skipped += 1
            log.warning("skipping series with %d observed points (< %d)",
                        t.size, min_len)
            continue
        groups.setdefault(t.tobytes(), []).append(s)
    batches = []
    for members in groups.values():
        for i in range(0, len(members), batch_size):
            batches.append(_Batch(members[i : i + batch_size]))
    return batches, skipped


# ---------------------------------------------------------------------------
# the anchor sweep over one batch

class _WindowRunner:
    def __init__(self, bundle, batch):
        self.bundle = bundle
        self.batch = batch
        meta = bundle.meta
        self.m = meta["m"]
        self.window = max(1, meta["window"])
        self.substeps = meta["substeps"]
        self.method = meta["method"]
        self.task = meta["task"]
        self.algorithm = meta["algorithm"]
        self.lam = meta["lam"]
        # zlist[j] = controller state after consuming observations 0..j-1
        self.zlist = [np.zeros((batch.b, meta["ctrl_hidden"]))]
        self.h_comm = None
        self.dts = np.diff(batch.times, prepend=batch.times[0])

    def anchors(self, stride=1):
        n = self.batch.n_obs
        return [(a, min(self.m, n - 1 - a)) for a in range(0, n - 1, stride)]

    def _replay_z(self, a):
        """Controller state after obs a, replaying the last `window` steps
        on the tape from a carried constant."""
        start = max(0, a - self.window + 1)
        ctrl, store = self.bundle.controller, self.bundle.store
        z = ControllerState(ad.constant(self.zlist[start]))
        for j in range(start, a + 1):
            z = ctrl.step(store, z, self.batch.values[:, j], self.dts[j])
        return z

    def _advance_zlist(self, through):
        """Fill carried states so zlist[through] exists."""
        ctrl, store = self.bundle.controller, self.bundle.store
        with ad.no_grad():
            while len(self.zlist) <= through:
                j = len(self.zlist) - 1
                z = ControllerState(ad.constant(self.zlist[j]))
                z = ctrl.step(store, z, self.batch.values[:, j], self.dts[j])
                self.zlist.append(z.z.value)

    def _emit(self, z_state, a, m_eff):
        """Plan from z_state at anchor a.  Single-horizon plans run only
        under frozen parameters (training uses rollout_objective), so their
        second action is the carried zlist[a + 2], stepped once and kept."""
        ctrl, store = self.bundle.controller, self.bundle.store
        times = self.batch.times[a : a + m_eff + 1]
        if self.algorithm == "npc":
            return ctrl.emit(store, z_state, a, times, horizon=m_eff)
        self._advance_zlist(a + 2)
        nxt = ControllerState(ad.constant(self.zlist[a + 2]))
        return ActionSequence(actions=[z_state.z, nxt.z], anchor=a,
                              anchor_times=times)

    def _h0_node(self, a):
        # anchor 0 keeps the encoder on the tape; later anchors start from
        # the committed constant
        if a == 0:
            return self.bundle.model.encode_initial(
                self.bundle.store, self.batch.values[:, 0])
        return ad.constant(self.h_comm)

    def window_objective(self, a, m_eff):
        store = self.bundle.store
        model, ctrl = self.bundle.model, self.bundle.controller
        store.new_tape()
        z = self._replay_z(a)
        seq = self._emit(z, a, m_eff)
        h0 = self._h0_node(a)
        traj = model.evolve(store, h0, seq, self.substeps, self.method)
        if self.task == "classification":
            cost = obj.classification_cost(model, store, traj,
                                           self.batch.labels)
            target = self.batch.labels
        else:
            states = [h0] + traj.states
            target = [self.batch.values[:, a + k] for k in range(m_eff + 1)]
            cost = obj.regression_cost(model, store, states, target)
        if self.algorithm == "npc" and self.lam > 0:
            reg = obj.action_regularizer(ctrl, store, seq, target, self.task)
            return obj.total_objective(cost, reg, self.lam)
        return cost

    def rollout_objective(self):
        """Whole-series objective for the single-horizon reference model.

        The controller state, the actions u_i = z_i and the hidden flow all
        stay on one tape: classification pays cross-entropy at the final
        state only, regression pays MSE along the whole trajectory.
        """
        store = self.bundle.store
        model, ctrl = self.bundle.model, self.bundle.controller
        batch = self.batch
        store.new_tape()
        z = ControllerState(ad.constant(self.zlist[0]))
        z = ctrl.step(store, z, batch.values[:, 0], self.dts[0])
        h = model.encode_initial(store, batch.values[:, 0])
        states = [h]
        for a in range(batch.n_obs - 1):
            nxt = ctrl.step(store, z, batch.values[:, a + 1], self.dts[a + 1])
            seq = ActionSequence(actions=[z.z, nxt.z], anchor=a,
                                 anchor_times=batch.times[a : a + 2])
            _, h = model.commit_step(store, h, seq, self.substeps,
                                     self.method)
            states.append(h)
            z = nxt
        if self.task == "classification":
            logits = model.readout(store, states[-1])
            return ad.mean_(ad.softmax_cross_entropy(logits, batch.labels))
        targets = [batch.values[:, k] for k in range(batch.n_obs)]
        return obj.regression_cost(model, store, states, targets)

    def commit(self, a, m_eff):
        """Execute one interval after a training update.

        The controller replays its window from a carried state, so the plan
        is re-emitted under the updated psi.
        """
        with ad.no_grad():
            z = self._replay_z(a)
        self.execute(z, a, m_eff)
        self._advance_zlist(a + 1)

    def execute(self, z, a, m_eff, queries=()):
        """Advance the committed state across interval a with the plan
        emitted from controller state z.

        Returns (t, readout value) pairs for query times strictly inside
        (t_a, t_{a+1}).
        """
        store, model = self.bundle.store, self.bundle.model
        with ad.no_grad():
            if self.h_comm is None:     # committed state at t_0
                self.h_comm = model.encode_initial(
                    store, self.batch.values[:, 0]).value
            seq = self._emit(z, a, m_eff)
            states, h_end = model.commit_step(
                store, ad.constant(self.h_comm), seq, self.substeps,
                self.method, queries=queries)
            self.h_comm = h_end.value
            return [(t, model.readout(store, state).value)
                    for t, state in states]


# ---------------------------------------------------------------------------
# training

def train(bundle, series_list, cfg):
    """Fit the bundle's parameters in place; returns a TrainReport.

    NPC windows are optimized at anchors 0, stride, 2*stride, ...;
    execution always advances one interval at a time, re-emitting at each
    step.  The single-horizon reference optimizes one whole-series rollout
    objective per batch instead, so its objective trace has one entry per
    batch visit.  Series with fewer than M+1 observed points are skipped
    with a warning.
    """
    t_start = time.perf_counter()
    min_len = bundle.meta["m"] + 1
    batches, skipped = _group_series(series_list, min_len, cfg.batch)
    if not batches:
        raise ValueError("no trainable series (all shorter than M+1 points)")
    if bundle.meta["task"] == "classification" and any(
            b.labels is None for b in batches):
        raise ValueError("classification training needs labeled series")

    opt = Adamax(bundle.store, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport()
    best = np.inf
    stall = 0
    is_npc = bundle.meta["algorithm"] == "npc"

    for epoch in range(cfg.epochs):
        order = (rng.permutation(len(batches)) if cfg.shuffle
                 else np.arange(len(batches)))
        epoch_objs = []
        for bi in order:
            runner = _WindowRunner(bundle, batches[bi])
            n = batches[bi].n_obs
            units = runner.anchors(cfg.stride) if is_npc else [(None, None)]
            for a, m_eff in units:
                first_obj = None
                for _ in range(max(cfg.inner_steps, 1)):
                    if is_npc:
                        loss = runner.window_objective(a, m_eff)
                    else:
                        loss = runner.rollout_objective()
                    value = float(loss.value)
                    if not np.isfinite(value):
                        raise TrainingDiverged(
                            f"non-finite objective at epoch {epoch}, anchor "
                            f"{a} (batch {bi})")
                    if first_obj is None:
                        first_obj = value
                    if cfg.inner_steps == 0:
                        break
                    ad.backward(loss)
                    opt.step(bundle.store.gradients(),
                             skip_prefixes=cfg.freeze_prefixes)
                report.window_objectives.append(first_obj)
                epoch_objs.append(first_obj)
                if is_npc:
                    for c in range(a, min(a + cfg.stride, n - 1)):
                        runner.commit(c, min(runner.m, n - 1 - c))
        epoch_loss = float(np.mean(epoch_objs))
        report.epoch_losses.append(epoch_loss)
        report.epochs_run = epoch + 1
        log.info("epoch %d: loss %.6f over %d windows", epoch, epoch_loss,
                 len(epoch_objs))
        if epoch_loss < best * (1.0 - cfg.min_rel_improve):
            stall = 0
        else:
            stall += 1
            if stall >= cfg.patience:
                report.stopped_early = True
                best = min(best, epoch_loss)
                break
        best = min(best, epoch_loss)

    report.windows = len(report.window_objectives)
    report.skipped_series = skipped
    report.wall_seconds = time.perf_counter() - t_start
    return report


# ---------------------------------------------------------------------------
# inference

def _committed_pass(runner, queries=None):
    """Run the execute-one loop over runner's batch with frozen parameters.

    queries: optional {interval index a: times strictly inside
    (t_a, t_{a+1})}.  Yields, for j = 0 .. n-1, (j, the committed state
    at observation j, the (t, readout value) pairs of the queried times
    inside (t_{j-1}, t_j)).  The pass keeps no state history: callers
    hold the states they read, and the runner drops each carried
    controller state once the next one exists, since a frozen pass never
    replays.
    """
    bundle, batch = runner.bundle, runner.batch
    with ad.no_grad():
        h0 = bundle.model.encode_initial(bundle.store, batch.values[:, 0])
    runner.h_comm = h0.value
    yield 0, runner.h_comm, []
    for a, m_eff in runner.anchors():
        # frozen parameters: the carried state after obs a is exactly what
        # a replay would rebuild, so the plan is emitted from it directly
        runner._advance_zlist(a + 1)
        runner.zlist[a] = None
        z = ControllerState(ad.constant(runner.zlist[a + 1]))
        inner = () if queries is None else tuple(queries.get(a, ()))
        query_out = runner.execute(z, a, m_eff, queries=inner)
        yield a + 1, runner.h_comm, query_out


def _last_committed(runner):
    """The committed state at the last observation of a frozen pass."""
    for _, h, _ in _committed_pass(runner):
        pass
    return h


def classify(bundle, series_list):
    """Predicted label and predicted-class probability per series.

    Probability ties resolve to the lower class id via argmax.
    """
    if bundle.meta["task"] != "classification":
        raise ValueError("bundle was not trained for classification")
    single = not isinstance(series_list, (list, tuple))
    items = [series_list] if single else list(series_list)
    items = [bundle.normalize(s) for s in items]
    preds = np.empty(len(items), dtype=np.int64)
    probs = np.empty(len(items))
    groups = {}
    for idx, s in enumerate(items):
        t, _ = s.observed()
        if t.size < 2:
            raise ValueError("classification needs at least two observed points")
        groups.setdefault(t.tobytes(), []).append(idx)
    model, store = bundle.model, bundle.store
    for idxs in groups.values():
        batch = _Batch([items[i] for i in idxs])
        h = _last_committed(_WindowRunner(bundle, batch))
        with ad.no_grad():
            logits = model.readout(store, ad.constant(h)).value
        shifted = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        lab = p.argmax(axis=1)
        for row, i in enumerate(idxs):
            preds[i] = lab[row]
            probs[i] = p[row, lab[row]]
    if single:
        return int(preds[0]), float(probs[0])
    return preds, probs


def interpolate(bundle, series, query_times):
    """Model values at query times inside the observed span (data units).

    A query at an observed time returns the readout of the committed state
    there; queries between observations read the continuous flow.
    """
    queries = np.asarray(query_times, dtype=np.float64)
    if queries.size == 0:
        return np.zeros((0, bundle.meta["obs_dim"]))
    series = bundle.normalize(series)
    t_obs, _ = series.observed()
    if np.any(queries < t_obs[0]) or np.any(queries > t_obs[-1]):
        raise ValueError("interpolation queries must lie inside the observed span")
    batch = _Batch([series])
    at_obs, interior = {}, {}
    for q in queries:
        j = int(np.searchsorted(t_obs, q))
        if j < t_obs.size and t_obs[j] == q:
            at_obs.setdefault(j, []).append(q)
        else:
            interior.setdefault(j - 1, []).append(q)
    qmap = {a: sorted(set(v)) for a, v in interior.items()}
    model, store = bundle.model, bundle.store
    values = {}
    for j, h, qout in _committed_pass(_WindowRunner(bundle, batch), qmap):
        for t, v in qout:
            values[t] = v[0]
        if j in at_obs:
            with ad.no_grad():
                v = model.readout(store, ad.constant(h)).value[0]
            for t in at_obs[j]:
                values[t] = v
    out = np.stack([values[q] for q in queries])
    if bundle.normalizer is not None:
        out = bundle.normalizer.invert_values(out)
    return out


def extrapolate(bundle, series, horizon_times):
    """Forecast beyond the last observation, at most M intervals out."""
    ht = [float(t) for t in horizon_times]
    if not ht:
        return np.zeros((0, bundle.meta["obs_dim"]))
    m = bundle.meta["m"]
    if len(ht) > m:
        raise ValueError(
            f"cannot extrapolate {len(ht)} steps, planner horizon is {m}")
    series = bundle.normalize(series)
    t_obs, _ = series.observed()
    if any(b <= a for a, b in zip(ht, ht[1:])) or ht[0] <= t_obs[-1]:
        raise ValueError(
            "horizon times must be increasing and after the last observation")
    batch = _Batch([series])
    runner = _WindowRunner(bundle, batch)
    h_last = _last_committed(runner)
    model, store, ctrl = bundle.model, bundle.store, bundle.controller
    n = batch.n_obs
    runner._advance_zlist(n)
    with ad.no_grad():
        z = ControllerState(ad.constant(runner.zlist[n]))
        times = np.concatenate([[t_obs[-1]], ht])
        if bundle.meta["algorithm"] == "npc":
            seq = ctrl.emit(store, z, n - 1, times, horizon=len(ht))
        else:
            seq = ActionSequence(actions=[z.z] * (len(ht) + 1), anchor=n - 1,
                                 anchor_times=times)
        traj = model.evolve(store, ad.constant(h_last), seq,
                            bundle.meta["substeps"], bundle.meta["method"])
        out = np.stack([model.readout(store, h).value[0]
                        for h in traj.states])
    if bundle.normalizer is not None:
        out = bundle.normalizer.invert_values(out)
    return out


def evaluate_interpolation(bundle, series_list):
    """Pooled RMSE and MAPE over every masked-out point (data units).

    Takes the dropped series in data units; the bundle's normalizer is
    applied internally, so predictions and truth compare like for like.
    A hidden point without a value (NaN, as a CSV hidden row loads) has
    no truth and is not scored.
    """
    preds, truths = [], []
    for s in series_list:
        hidden = ~s.mask & ~np.isnan(s.values).any(axis=1)
        if not hidden.any():
            continue
        q = s.times[hidden]
        preds.append(interpolate(bundle, s, q))
        truths.append(s.values[hidden])
    if not preds:
        raise ValueError("no masked points to evaluate")
    pred = np.concatenate(preds)
    truth = np.concatenate(truths)
    m, excluded = mape(pred, truth)
    return {"rmse": rmse(pred, truth), "mape_percent": m,
            "mape_excluded": excluded, "n_points": int(truth.shape[0])}


def evaluate_classification(bundle, series_list):
    preds, _ = classify(bundle, series_list)
    truth = np.array([s.label for s in series_list])
    return {"accuracy": accuracy(preds, truth), "n_series": len(series_list)}


# ---------------------------------------------------------------------------
# sensitivity sweep

def _sweep_cell(args):
    (m, rate, seed, n_series, length, cycles, noise, train_kwargs,
     build_kwargs) = args
    from .datagen import drop_observations, gen_sine_regression
    cell_seed = seed * 1_000_003 + m * 1009 + int(round(rate * 1000))
    raw = gen_sine_regression(n_series, length, seed=cell_seed, cycles=cycles,
                              noise=noise)
    dropped = [drop_observations(s, rate, seed=cell_seed + 7 * i + 1)
               for i, s in enumerate(raw)]
    norm = Normalizer.fit(dropped)
    bundle = ModelBundle.build(task="regression", obs_dim=raw[0].channels,
                               m=m, seed=cell_seed, normalizer=norm,
                               **build_kwargs)
    cfg = TrainConfig(seed=cell_seed, **train_kwargs)
    train(bundle, [norm.apply(s) for s in dropped], cfg)
    res = evaluate_interpolation(bundle, dropped)
    return {"m": m, "drop_rate": rate, "rmse": res["rmse"],
            "mape_percent": res["mape_percent"], "n_points": res["n_points"],
            "seed": cell_seed}


def sensitivity_sweep(m_values, drop_rates, seed=0, n_series=6, length=64,
                      cycles=1.5, noise=0.02, train_kwargs=None,
                      build_kwargs=None, jobs=1):
    """Train one model per (M, drop rate) cell; rows sorted by (M, rate).

    Cell seeds derive from (seed, M, rate) alone, so results do not depend
    on execution order and repeated runs reproduce the same table.
    """
    train_kwargs = dict(train_kwargs or {})
    build_kwargs = dict(build_kwargs or {})
    cells = [(m, rate, seed, n_series, length, cycles, noise, train_kwargs,
              build_kwargs)
             for m in sorted(m_values) for rate in sorted(drop_rates)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(c) for c in cells]
    rows.sort(key=lambda r: (r["m"], r["drop_rate"]))
    return rows
