"""Traced run: spans around the public functions of each npc module.

Every wrapped function is patched where its caller looks it up (a module
attribute or a class attribute), records one span (name, start, end,
parent, round) in memory, and passes its arguments through unchanged.
The per-layer metrics are derived from the spans after the run; the
spans themselves are written out as JSON lines.

Span metrics are per round (a round repeats the same operations), except
datagen.generate, which runs once, in set-up.  lintheory, config and cli
are not wrapped: no workload calls them.
"""

import json
import time

import npc.autodiff
import npc.continuous
import npc.controller
import npc.datagen
import npc.gradcheck
import npc.layers
import npc.objective
import npc.odesolve
import npc.params
import npc.spline
import npc.trainer

# (owner, attribute, span name).  Callers look these up at call time,
# so patching the attribute reroutes every call.
WRAPPED = [
    (npc.autodiff, "backward", "autodiff.backward"),
    (npc.params.Adamax, "step", "params.adamax_step"),
    (npc.params.ParamStore, "gradients", "params.gradients"),
    (npc.trainer, "train", "trainer.train"),
    (npc.trainer, "classify", "trainer.classify"),
    (npc.trainer, "interpolate", "trainer.interpolate"),
    (npc.controller.Controller, "step", "controller.step"),
    (npc.controller.Controller, "emit", "controller.emit"),
    (npc.continuous.ContinuousModel, "evolve", "continuous.evolve"),
    (npc.continuous.ContinuousModel, "commit_step", "continuous.commit_step"),
    (npc.continuous.ContinuousModel, "readout", "continuous.readout"),
    (npc.continuous, "integrate_span", "odesolve.integrate_span"),
    (npc.odesolve, "integrate_span", "odesolve.integrate_span"),
    (npc.layers.GRUCell, "step", "layers.gru_step"),
    (npc.layers.MLP, "apply", "layers.mlp_apply"),
    (npc.layers.Linear, "apply", "layers.linear_apply"),
    (npc.objective, "classification_cost", "objective.cost"),
    (npc.objective, "regression_cost", "objective.cost"),
    (npc.objective, "action_regularizer", "objective.cost"),
    (npc.spline.CubicPath, "__init__", "spline.path_build"),
    (npc.spline.CubicPath, "derivative_weights", "spline.derivative_weights"),
    (npc.gradcheck, "check_function", "gradcheck.check_function"),
    (npc.datagen, "gen_toy_train", "datagen.generate"),
    (npc.datagen, "gen_toy_test", "datagen.generate"),
    (npc.datagen, "gen_sine_regression", "datagen.generate"),
    (npc.datagen, "load_csv", "datagen.load_csv"),
]

SPAN_METRICS = [
    "autodiff.backward", "params.adamax_step", "params.gradients",
    "trainer.train", "trainer.classify", "trainer.interpolate",
    "controller.step.taped", "controller.step.untaped", "controller.emit",
    "continuous.evolve", "continuous.commit_step", "continuous.readout",
    "odesolve.integrate_span", "layers.gru_step", "layers.mlp_apply",
    "layers.linear_apply", "objective.cost", "spline.path_build",
    "spline.derivative_weights", "gradcheck.check_function",
    "datagen.generate", "datagen.load_csv",
]

PHASES = ("trainer.train", "trainer.classify", "trainer.interpolate")
SETUP_ONLY = ("datagen.generate",)


def node_ids_used():
    """Current value of the autodiff node-id counter."""
    return int(repr(npc.autodiff._ids)[len("count("):-1])


def taped_nodes(loss):
    """Differentiable nodes reachable from `loss`: what backward visits."""
    if not loss.requires:
        return 0
    seen = {loss.id}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires and p.id not in seen:
                seen.add(p.id)
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, round, extra]
        self.spans = []
        self.stack = []
        self.round = -1          # -1 is set-up
        self.active = True

    def install(self):
        for owner, attr, name in WRAPPED:
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name, extra = _annotate(name, args)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [span_name, 0.0, 0.0, parent, tracer.round, extra]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            ids0 = node_ids_used() if name in PHASES else 0
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if name in PHASES:
                    span[5] = node_ids_used() - ids0

        return traced

    def write(self, path):
        with open(path, "w") as f:
            for name, start, end, parent, rnd, _ in self.spans:
                f.write(json.dumps([name, start, end, parent, rnd]) + "\n")


def _annotate(name, args):
    """Span name and the count the span carries, from the call arguments."""
    if name == "controller.step":
        taped = npc.autodiff.grad_enabled()
        return name + (".taped" if taped else ".untaped"), 0
    if name == "autodiff.backward":
        return name, taped_nodes(args[0])
    if name == "continuous.commit_step":
        return name, int(args[2].value.shape[0])      # series advanced
    return name, 0


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of `rounds` identical rounds."""
    n = len(spans)
    child_time = [0.0] * n
    phase = [None] * n
    in_commit = [False] * n
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            phase[i] = phase[parent]
            in_commit[i] = in_commit[parent]
        if name in PHASES:
            phase[i] = name
        if name == "continuous.commit_step":
            in_commit[i] = True

    calls = dict.fromkeys(SPAN_METRICS, 0)
    self_s = dict.fromkeys(SPAN_METRICS, 0.0)
    train_nodes = infer_nodes = 0
    train_steps = infer_steps = 0
    train_windows = train_taped = 0
    infer_commits = infer_ctrl = 0
    commits = commit_weights = 0
    for i, (name, start, end, parent, rnd, extra) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        ph = phase[i]
        training = ph == "trainer.train"
        inferring = ph in ("trainer.classify", "trainer.interpolate")
        if name == "trainer.train":
            train_nodes += extra
        elif name in ("trainer.classify", "trainer.interpolate"):
            infer_nodes += extra
        elif name == "autodiff.backward" and training:
            train_windows += 1
            train_taped += extra
        elif name == "continuous.commit_step":
            commits += 1
            if training:
                train_steps += extra
            elif inferring:
                infer_steps += extra
                infer_commits += 1
        elif name.startswith("controller.step") and inferring:
            infer_ctrl += 1
        elif name == "spline.derivative_weights" and in_commit[i]:
            commit_weights += 1

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in SPAN_METRICS:
        per = 1 if name in SETUP_ONLY else rounds
        out[f"{name}.calls"] = (calls[name] / per, "calls")
        out[f"{name}.self_s"] = (self_s[name] / per, "s")
    out["autodiff.taped_nodes_per_window"] = (
        ratio(train_taped, train_windows), "nodes")
    out["autodiff.nodes_per_train_step"] = (
        ratio(train_nodes, train_steps), "nodes")
    out["autodiff.nodes_per_infer_interval"] = (
        ratio(infer_nodes, infer_steps), "nodes")
    out["trainer.series_per_window"] = (
        ratio(train_steps, train_windows), "series")
    out["controller.steps_per_infer_interval"] = (
        ratio(infer_ctrl, infer_commits), "steps")
    out["spline.weights_per_commit"] = (ratio(commit_weights, commits),
                                        "weights")
    return out
