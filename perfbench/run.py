"""Benchmark of the npc package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `npc` is imported from its `src/` only.
Set-up (imports, input generation, the first ModelBundle.build) is timed
once, cold, from the first statement of this file.  Then the workload
repeats whole rounds of the same public calls until --seconds have
passed, timing each call from outside; the program's outputs are checked
after the timed calls.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics (end-to-end with
--trace 0, per-layer with --trace 1).  See perfbench/README.md for the
workloads and metrics.
"""

import os
import sys
import time

T0 = time.perf_counter()          # set-up starts: no npc code has run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"       # one BLAS thread: runs must not compete

import argparse
import json
import resource
from copy import deepcopy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


def _import_npc():
    sys.path.insert(0, SRC)
    try:
        import npc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import npc from {SRC}: {exc}")
    if not os.path.abspath(npc.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: npc was imported from {npc.__file__}, "
                 f"not from {SRC}")


_import_npc()

import numpy as np                               # noqa: E402

import checks                                    # noqa: E402
from npc import (autodiff as ad, datagen, gradcheck, objective,  # noqa: E402
                 params, trainer)

# Criterion-1 (toy) and criterion-2 (sine, 80% drop) configurations.
TOY_BUILD = dict(task="classification", obs_dim=1, algorithm="npc",
                 backend="ode_rnn", m=5, window=4, lam=0.2, action_dim=8,
                 ctrl_hidden=16, model_hidden=16, substeps=2)
TOY_TRAIN = dict(epochs=1, batch=32, lr=1e-3)
SINE_DATA = dict(n_series=12, length=64, cycles=1.5, noise=0.02)
SINE_DROP = 0.8
SINE_BUILD = dict(task="regression", obs_dim=1, algorithm="npc", m=5,
                  window=4, lam=0.1, action_dim=8, ctrl_hidden=16,
                  model_hidden=16, substeps=2)
SINE_TRAIN = dict(epochs=1, batch=32, lr=3e-3)
CSV_SEED = 0          # the CSV load's inputs do not depend on --seed
ADAMAX_EPS = 1e-8
REFERENCE_RTOL = 1e-8
FD_STEP = 1e-5


def dropped_sine(seed):
    """The criterion-2 sine set, each series hiding exactly 80% of its
    interior points (rounded), at positions drawn from `seed`.

    A fixed count instead of drop_observations' Bernoulli draw gives every
    seed the same number of windows, intervals and hidden points, so the
    work in a run, and with it the rates, does not vary by seed.
    """
    rng = np.random.default_rng(seed)
    out = []
    for s in datagen.gen_sine_regression(seed=seed, **SINE_DATA):
        interior = s.length - 2
        mask = np.zeros(s.length, dtype=bool)
        mask[[0, -1]] = True
        keep = round((1.0 - SINE_DROP) * interior)
        mask[1 + rng.choice(interior, size=keep, replace=False)] = True
        out.append(datagen.TimeSeries(s.times, s.values, mask=mask))
    return out


def write_csv(series_list, path):
    """README layout: t,v1..vD; blank line between series; a hidden
    point's value cells are empty."""
    d = series_list[0].channels
    lines = ["t," + ",".join(f"v{i + 1}" for i in range(d))]
    for si, s in enumerate(series_list):
        if si:
            lines.append("")
        for t, v, seen in zip(s.times, s.values, s.mask):
            cells = [repr(float(x)) if seen else "" for x in v]
            lines.append(",".join([repr(float(t))] + cells))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def window_objective(bundle, times, values, labels):
    """Training objective of the anchor-0 window, built from the public
    controller, model and objective pieces (a fresh tape)."""
    store, ctrl, model, meta = (bundle.store, bundle.controller,
                                bundle.model, bundle.meta)
    m = min(meta["m"], times.size - 1)
    store.new_tape()
    z = ctrl.step(store, ctrl.initial_state(values.shape[0]), values[:, 0],
                  0.0)
    seq = ctrl.emit(store, z, 0, times[:m + 1], horizon=m)
    h0 = model.encode_initial(store, values[:, 0])
    traj = model.evolve(store, h0, seq, meta["substeps"], meta["method"])
    if labels is not None:
        cost = objective.classification_cost(model, store, traj, labels)
        target = labels
    else:
        target = [values[:, k] for k in range(m + 1)]
        cost = objective.regression_cost(model, store, [h0] + traj.states,
                                         target)
    reg = objective.action_regularizer(ctrl, store, seq, target,
                                       meta["task"])
    return objective.total_objective(cost, reg, meta["lam"])


def check_gradients(bundle, times, values, labels, lr, seed):
    """Directional central difference vs reverse mode at the current
    parameters, then one fresh Adamax step on a copy of the store."""
    store = bundle.store
    loss = window_objective(bundle, times, values, labels)
    ad.backward(loss)
    grads = {k: np.array(g) for k, g in store.gradients().items()}
    rng = np.random.default_rng(seed)
    direction = {k: rng.normal(size=np.shape(g)) for k, g in grads.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    reverse = sum(float(np.sum(grads[k] * d)) for k, d in
                  direction.items()) / norm
    base = {k: store.value(k).copy() for k in grads}
    fvals = []
    for sign in (1.0, -1.0):
        for k, d in direction.items():
            store.set_value(k, base[k] + sign * FD_STEP * d / norm)
        with ad.no_grad():
            fvals.append(float(window_objective(bundle, times, values,
                                                labels).value))
    for k in grads:
        store.set_value(k, base[k])
    checks.directional((fvals[0] - fvals[1]) / (2 * FD_STEP), reverse,
                       float(loss.value))

    copy = deepcopy(store)
    params.Adamax(copy, lr=lr, eps=ADAMAX_EPS).step(grads)
    after = {k: copy.value(k) for k in grads}
    checks.adamax_first_step(base, after, grads, lr, ADAMAX_EPS)


def _reference(bundle):
    from reference import Reference   # scipy.interpolate stays out of set-up
    store = bundle.store
    return Reference({k: store.value(k) for k in store.names()}, bundle.meta,
                     bundle.normalizer.mean, bundle.normalizer.std)


def _checkpoint_copy(bundle):
    """Save and load the bundle; every parameter must come back exactly."""
    path = os.path.join(OUT_DIR, f"checkpoint-{os.getpid()}.json")
    try:
        bundle.save(path)
        loaded = trainer.ModelBundle.load(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    for name in bundle.store.names():
        checks.identical(f"parameter {name} after checkpoint load",
                         loaded.store.value(name), bundle.store.value(name))
    return loaded


# ---------------------------------------------------------------------------
# workloads: set-up in __init__, one round in run_round, checks in finish

class _Training:
    """Set-up shared by the training workloads; every round trains one
    epoch from the same freshly built parameters."""

    def __init__(self, seed, train_set, normalizer, build_kw, train_kw):
        self.seed = seed
        self.train_set = train_set
        self.norm = normalizer
        self.build_kw = build_kw
        self.cfg = trainer.TrainConfig(seed=seed, **train_kw)
        min_len = build_kw["m"] + 1
        self.steps = checks.series_steps(train_set, min_len)
        self.windows = checks.expected_windows(train_set, min_len,
                                               self.cfg.batch)
        self.bundle = self._build()      # the first build is set-up
        self.first = None

    def _build(self):
        return trainer.ModelBundle.build(seed=self.seed, normalizer=self.norm,
                                         **self.build_kw)

    def _train(self):
        """(bundle, report, seconds) for one epoch on fresh parameters."""
        bundle = self.bundle or self._build()
        self.bundle = None
        t = time.perf_counter()
        report = trainer.train(bundle, self.train_set, self.cfg)
        return bundle, report, time.perf_counter() - t

    def _check_round(self, report, outputs):
        checks.window_counts(report.windows, report.skipped_series,
                             *self.windows)
        checks.objectives(report.window_objectives, report.windows)
        if self.first is None:
            self.first = outputs
        for (what, got), (_, want) in zip(outputs, self.first):
            checks.identical(f"round-to-round {what}", got, want)


class ToyOdeRnn(_Training):
    ops_per_round = 2          # train, classify

    def __init__(self, seed):
        train_set, norm = datagen.gen_toy_train(seed=seed,
                                                return_normalizer=True)
        self.test_set = datagen.gen_toy_test(seed=seed)
        super().__init__(seed, train_set, norm, TOY_BUILD, TOY_TRAIN)

    def run_round(self, timings):
        bundle, report, t_train = self._train()
        t = time.perf_counter()
        preds, probs = trainer.classify(bundle, self.test_set)
        t_infer = time.perf_counter() - t
        timings.append((self.steps / t_train,
                        len(self.test_set) / t_infer))
        self.last = (bundle, preds, probs)
        checks.classification(preds, probs, len(self.test_set), 2)
        self._check_round(report, [("objectives", report.window_objectives),
                                   ("labels", preds), ("probs", probs)])
        return 0

    def finish(self):
        bundle, preds, probs = self.last
        batch = self.train_set[:4]
        times = batch[0].times
        values = np.stack([s.values for s in batch])
        labels = np.array([s.label for s in batch])
        check_gradients(bundle, times, values, labels, self.cfg.lr,
                        self.seed)

        picks = [0, len(self.test_set) // 2, len(self.test_set) - 1]
        sample = [self.test_set[i] for i in picks]
        loaded = _checkpoint_copy(bundle)
        for got, want in zip(trainer.classify(loaded, sample),
                             trainer.classify(bundle, sample)):
            checks.identical("classify after checkpoint load", got, want)
        ref = _reference(bundle)
        for i, s in zip(picks, sample):
            label, prob = trainer.classify(bundle, s)
            checks.identical(f"series {i} alone vs in the batch: label",
                             label, preds[i])
            checks.close(f"series {i} alone vs in the batch: probability",
                         prob, probs[i], 1e-9)
            p = ref.class_probabilities(s)
            checks.identical(f"series {i} label vs reference", label,
                             int(np.argmax(p)))
            checks.close(f"series {i} probability vs reference", prob,
                         p[label], REFERENCE_RTOL)


class SineWorkload(_Training):
    ops_per_round = 3          # train, evaluate_interpolation, load_csv

    def __init__(self, seed, backend):
        self.dropped = dropped_sine(seed)
        self.hidden = int(sum((~s.mask).sum() for s in self.dropped))
        norm = datagen.Normalizer.fit(self.dropped)
        self.csv_series = dropped_sine(CSV_SEED)
        self.csv_path = os.path.join(OUT_DIR, f"dropped-{os.getpid()}.csv")
        write_csv(self.csv_series, self.csv_path)
        self.load_error = None
        super().__init__(seed, [norm.apply(s) for s in self.dropped], norm,
                         dict(SINE_BUILD, backend=backend), SINE_TRAIN)

    def run_round(self, timings):
        bundle, report, t_train = self._train()
        t = time.perf_counter()
        result = trainer.evaluate_interpolation(bundle, self.dropped)
        t_infer = time.perf_counter() - t
        loaded = None
        try:
            loaded = datagen.load_csv(self.csv_path)
        except ValueError as exc:        # CsvFormatError: a failed load
            self.load_error = str(exc)
        timings.append((self.steps / t_train, result["n_points"] / t_infer))
        self.last = bundle
        if loaded is not None:
            checks.csv_roundtrip(loaded, self.csv_series)
        checks.interpolation(result, self.hidden)
        self._check_round(report, [("objectives", report.window_objectives),
                                   ("rmse", result["rmse"])])
        return int(loaded is None)

    def finish(self):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        if self.load_error is not None:
            print(f"perfbench: load_csv failed: {self.load_error}",
                  file=sys.stderr)
        bundle = self.last
        s = self.train_set[0]
        t, v = s.observed()
        check_gradients(bundle, t, v[None], None, self.cfg.lr, self.seed)

        loaded = _checkpoint_copy(bundle)
        ref = _reference(bundle)
        for i in (0, len(self.dropped) - 1):
            s = self.dropped[i]
            q = s.times[~s.mask]
            got = trainer.interpolate(bundle, s, q)
            checks.identical(f"series {i} interpolation after checkpoint "
                             f"load", trainer.interpolate(loaded, s, q), got)
            checks.close(f"series {i} interpolation vs reference", got,
                         ref.interpolate(s, q), REFERENCE_RTOL)


class GradCheck:
    # The composed ode_rnn, cde and costs suites are left out: on some
    # seeds a correct gradient coordinate near zero fails their oracle
    # (seed 1 fails cde), so a run's outcome would depend on its seed.
    suites = ("ops", "controller")
    ops_per_round = len(suites)          # one run_component each

    def __init__(self, seed):
        self.seed = seed
        self.probes = 0
        check_function = gradcheck.check_function

        def counted(f, x0, *args, **kwargs):
            self.probes += 2 * np.asarray(x0).size
            return check_function(f, x0, *args, **kwargs)

        # the probe count is the unit of the rate; the count costs one
        # addition per checked function, not per probe
        gradcheck.check_function = counted
        self.first = None

    def run_round(self, timings):
        self.probes = 0
        results = {}
        t = time.perf_counter()
        for name in self.suites:
            for k, v in gradcheck.run_component(name, seed=self.seed).items():
                results[f"{name}.{k}"] = v
        rate = self.probes / (time.perf_counter() - t)
        timings.append((rate, rate))
        checks.gradcheck_results(results, gradcheck.TOL, self.suites)
        if self.first is None:
            self.first = results
        checks.identical("round-to-round grad-check errors",
                         sorted(results.items()),
                         sorted(self.first.items()))
        return 0

    def finish(self):
        try:
            gradcheck.run_component("ops", seed=self.seed,
                                    corrupt_op="matmul")
        except gradcheck.GradCheckError:
            caught = True
        else:
            caught = False
        checks.corruption_caught(caught)


WORKLOADS = {
    "toy-ode_rnn": ToyOdeRnn,
    "sine-ode_rnn": lambda seed: SineWorkload(seed, "ode_rnn"),
    "sine-cde": lambda seed: SineWorkload(seed, "cde"),
    "gradcheck": GradCheck,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T0

    timings = []
    failed = 0
    failures = []
    rounds = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = rounds
        round_start = time.perf_counter()
        try:
            failed += workload.run_round(timings)
        except checks.CheckError as exc:
            failures.append(str(exc))
        rounds += 1
        now = time.perf_counter()
        if len(timings) == rounds:
            print(f"perfbench: round {rounds}: {now - round_start:.3f} s, "
                  f"work_per_s {timings[-1][0]:.6g}, "
                  f"infer_per_s {timings[-1][1]:.6g}", file=sys.stderr)
        elapsed = now - start
        if elapsed + elapsed / rounds > args.seconds:
            break       # the next round would end after --seconds
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = getattr(workload, "probes", 0)   # the last round's, before finish
    if tracer is not None:
        tracer.active = False
    try:
        workload.finish()
    except checks.CheckError as exc:
        failures.append(str(exc))
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "work_per_s": (max(w for w, _ in timings), "1/s"),
            "infer_per_s": (max(i for _, i in timings), "1/s"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, rounds)
        metrics["gradcheck.probes"] = (probes, "probes")
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    result = {
        "correct": not failures,
        "attempted": rounds * workload.ops_per_round,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
