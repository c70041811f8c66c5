import json

import numpy as np
import pytest

import npc.autodiff as ad
from npc.controller import ActionSequence, Controller, ControllerState
from npc.datagen import Normalizer, TimeSeries, drop_observations, gen_sine_regression
from npc.trainer import (_META_KEYS, ModelBundle, TrainConfig,
                         TrainingDiverged, _Batch, _committed_pass,
                         _group_series, _WindowRunner, classify,
                         evaluate_classification, evaluate_interpolation,
                         extrapolate, interpolate, sensitivity_sweep, train)


def _class_series(n=8, length=8, seed=0):
    """Two trivially separable classes: levels +1 and -1 plus jitter."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, length)
    out = []
    for i in range(n):
        label = i % 2
        base = 1.0 if label == 0 else -1.0
        out.append(TimeSeries(t, base + 0.05 * rng.normal(size=length),
                              label=label))
    return out


def _tiny_bundle(task="classification", algorithm="npc", backend="ode_rnn",
                 m=2, seed=0, normalizer=None):
    return ModelBundle.build(
        task=task, obs_dim=1, algorithm=algorithm, backend=backend, m=m,
        window=2, ctrl_hidden=4, model_hidden=4, action_dim=3, fdepth=1,
        substeps=2, lam=0.1, seed=seed, normalizer=normalizer)


def test_build_meta_and_validation():
    b = _tiny_bundle()
    assert b.meta["m"] == 2 and b.meta["algorithm"] == "npc"
    assert "ctrl.head.l0.w" in b.store.names()
    with pytest.raises(ValueError):
        ModelBundle.build(task="ranking", obs_dim=1)
    with pytest.raises(ValueError):
        ModelBundle.build(task="regression", obs_dim=1, algorithm="a2c")


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_build_rejects_negative_or_non_finite_lam(lam):
    with pytest.raises(ValueError, match="lam"):
        ModelBundle.build(task="regression", obs_dim=1, lam=lam)


def test_single_horizon_forces_reference_shape():
    b = ModelBundle.build(task="regression", obs_dim=1,
                          algorithm="single_horizon", m=9, ctrl_hidden=4,
                          model_hidden=4, action_dim=99, substeps=2)
    assert b.meta["m"] == 1
    assert b.meta["action_dim"] == b.meta["ctrl_hidden"] == 4
    assert not any(n.startswith("ctrl.head") for n in b.store.names())
    assert not any(n.startswith("ctrl.readout") for n in b.store.names())


def test_group_series():
    t1 = np.linspace(0.0, 1.0, 6)
    t2 = np.linspace(0.0, 2.0, 6)
    series = [TimeSeries(t1, np.zeros(6)), TimeSeries(t2, np.ones(6)),
              TimeSeries(t1, np.full(6, 2.0)),
              TimeSeries(np.array([0.0, 1.0]), np.zeros(2))]
    batches, skipped = _group_series(series, min_len=3, batch_size=8)
    assert skipped == 1
    assert sorted(b.b for b in batches) == [1, 2]
    big = next(b for b in batches if b.b == 2)
    assert big.values.shape == (2, 6, 1)
    # chunking respects batch_size
    many = [TimeSeries(t1, np.zeros(6)) for _ in range(5)]
    batches, _ = _group_series(many, 3, 2)
    assert sorted(b.b for b in batches) == [1, 2, 2]


@pytest.mark.parametrize("algorithm", ["npc", "single_horizon"])
@pytest.mark.parametrize("backend", ["ode_rnn", "cde"])
def test_tiny_training_reduces_loss(algorithm, backend):
    series = _class_series()
    bundle = _tiny_bundle(algorithm=algorithm, backend=backend)
    cfg = TrainConfig(epochs=4, batch=8, lr=5e-3, seed=0)
    report = train(bundle, series, cfg)
    assert report.epochs_run == 4
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert report.windows > 0 and report.wall_seconds > 0


def test_training_is_deterministic():
    series = _class_series()
    runs = []
    for _ in range(2):
        bundle = _tiny_bundle(seed=3)
        report = train(bundle, series, TrainConfig(epochs=2, batch=8, seed=3))
        runs.append(report.epoch_losses)
    np.testing.assert_array_equal(runs[0], runs[1])


def test_early_stop_patience():
    series = _class_series()
    bundle = _tiny_bundle()
    cfg = TrainConfig(epochs=50, batch=8, lr=1e-4, seed=0, patience=3,
                      min_rel_improve=1.0)  # nothing can improve 100%
    report = train(bundle, series, cfg)
    assert report.stopped_early
    assert report.epochs_run == 3  # every epoch stalls, patience runs out


def test_training_diverged():
    # nan readout weights keep the flow finite but poison the objective
    series = _class_series()
    bundle = _tiny_bundle()
    bad = np.full_like(bundle.store.value("readout.w"), np.nan)
    bundle.store.set_value("readout.w", bad)
    with pytest.raises(TrainingDiverged):
        train(bundle, series, TrainConfig(epochs=1, batch=8))


def test_freeze_prefixes():
    series = _class_series()
    bundle = _tiny_bundle()
    before = {n: bundle.store.value(n).copy() for n in bundle.store.names()}
    cfg = TrainConfig(epochs=1, batch=8, lr=1e-2, seed=0,
                      freeze_prefixes=("ctrl.",))
    train(bundle, series, cfg)
    for n in bundle.store.names():
        if n.startswith("ctrl."):
            np.testing.assert_array_equal(bundle.store.value(n), before[n])
        elif n.startswith("enc."):
            assert not np.array_equal(bundle.store.value(n), before[n])


def test_too_short_series_rejected():
    t = np.array([0.0, 1.0])
    series = [TimeSeries(t, np.zeros(2), label=0)]
    bundle = _tiny_bundle(m=3)
    with pytest.raises(ValueError):
        train(bundle, series, TrainConfig(epochs=1))


def test_classification_needs_labels():
    t = np.linspace(0.0, 1.0, 6)
    series = [TimeSeries(t, np.zeros(6))]
    bundle = _tiny_bundle()
    with pytest.raises(ValueError):
        train(bundle, series, TrainConfig(epochs=1))


def test_save_load_round_trip(tmp_path):
    series = _class_series()
    norm = Normalizer.fit(series)
    bundle = _tiny_bundle(normalizer=norm)
    train(bundle, [norm.apply(s) for s in series],
          TrainConfig(epochs=2, batch=8, seed=0))
    path = tmp_path / "ckpt.json"
    bundle.save(path)
    back = ModelBundle.load(path)
    assert back.meta == bundle.meta
    for n in bundle.store.names():
        np.testing.assert_array_equal(back.store.value(n),
                                      bundle.store.value(n))
    np.testing.assert_array_equal(back.normalizer.mean, norm.mean)
    p1 = classify(bundle, series)
    p2 = classify(back, series)
    np.testing.assert_array_equal(p1[0], p2[0])
    np.testing.assert_array_equal(p1[1], p2[1])


def test_checkpoint_carries_format_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "ckpt.json"
    _tiny_bundle().save(path)
    payload = json.loads(path.read_text())
    assert payload["format"] == ModelBundle.FORMAT
    assert set(payload["meta"]) == set(_META_KEYS)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    _tiny_bundle(seed=0).save(path)
    before = path.read_bytes()

    def broken_dump(obj, f):
        f.write('{"format": 1, "meta"')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", broken_dump)
    with pytest.raises(OSError):
        _tiny_bundle(seed=1).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def _drop_param(payload):
    del payload["params"][3]


def _truncate_values(payload):
    payload["params"][0]["values"] = payload["params"][0]["values"][:-1]


def _widen_model(payload):
    payload["meta"]["model_hidden"] += 1


@pytest.mark.parametrize("corrupt,needle", [
    (lambda p: p.update(format=2), "checkpoint format 2 is not supported"),
    (lambda p: p.pop("format"), "checkpoint format None is not supported"),
    (lambda p: p["meta"].pop("substeps"), "missing ['substeps']"),
    (lambda p: p.pop("params"), "missing ['params']"),
    (_drop_param, "parameters do not match the model (missing ['ctrl.head.l0.w']"),
    (_truncate_values, "parameter 'ctrl.gru.wx' has shape [2, 12] and 23 values"),
    (_widen_model, "parameter 'enc.w' has shape [1, 4] and 4 values; the "
                   "model needs [1, 5]"),
    (lambda p: p["meta"].update(backend="lstm"), "backend must be one of"),
    (lambda p: p["normalizer"].update(mean=[0.0, 1.0]),
     "normalizer mean (2,) and std (1,) must match obs_dim (1,)"),
], ids=["version", "no_version", "meta_key", "no_params", "dropped_param",
        "truncated_values", "shape_mismatch", "bad_meta_value",
        "normalizer_width"])
def test_load_rejects_bad_checkpoint(tmp_path, corrupt, needle):
    path = tmp_path / "ckpt.json"
    _tiny_bundle(normalizer=Normalizer(np.zeros(1), np.ones(1))).save(path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        ModelBundle.load(path)
    assert str(err.value).startswith(f"{path}: ")
    assert needle in str(err.value)


def test_load_rejects_non_json_naming_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"format": 1, "meta": {')
    with pytest.raises(ValueError, match="not a checkpoint") as err:
        ModelBundle.load(path)
    assert str(err.value).startswith(f"{path}: ")


def test_classify_single_series_and_accuracy():
    series = _class_series()
    norm = Normalizer.fit(series)
    bundle = _tiny_bundle(normalizer=norm)
    train(bundle, [norm.apply(s) for s in series],
          TrainConfig(epochs=8, batch=8, lr=1e-2, seed=0))
    label, prob = classify(bundle, series[0])
    assert isinstance(label, int) and isinstance(prob, float)
    assert 0.5 <= prob <= 1.0
    res = evaluate_classification(bundle, series)
    assert res["n_series"] == 8
    assert res["accuracy"] >= 0.75


def test_classify_tie_resolves_to_lower_id():
    series = _class_series(n=2)
    bundle = _tiny_bundle()
    for n in ("readout.w", "readout.b"):
        bundle.store.set_value(n, np.zeros_like(bundle.store.value(n)))
    preds, probs = classify(bundle, series)
    np.testing.assert_array_equal(preds, 0)
    np.testing.assert_allclose(probs, 0.5)


@pytest.mark.parametrize("backend", ["ode_rnn", "cde"])
def test_classify_steps_controller_once_per_interval(backend, monkeypatch):
    series = _class_series(n=4, length=8, seed=3)
    bundle = _tiny_bundle(backend=backend, seed=3)
    train(bundle, series, TrainConfig(epochs=1, batch=4, seed=0))
    # reference: the training commit, which replays the controller window
    runner = _WindowRunner(bundle, _Batch(series))
    for a, m_eff in runner.anchors():
        runner.commit(a, m_eff)
    with ad.no_grad():
        logits = bundle.model.readout(bundle.store,
                                      ad.constant(runner.h_comm)).value
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)

    steps = []
    original = Controller.step

    def counting(self, *args, **kwargs):
        steps.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Controller, "step", counting)
    preds, probs = classify(bundle, series)
    assert len(steps) == len(series[0].times) - 1
    np.testing.assert_array_equal(preds, p.argmax(axis=1))
    np.testing.assert_array_equal(probs, p.max(axis=1))


def test_single_horizon_classify_steps_controller_once_per_observation(
        monkeypatch):
    series = _class_series(n=2, length=100, seed=4)
    bundle = _tiny_bundle(algorithm="single_horizon", seed=4)
    # reference: the actions of interval a are the carried state after
    # obs a and one more step over obs a + 1, re-stepped per interval
    batch = _Batch(series)
    runner = _WindowRunner(bundle, batch)
    store, model, ctrl = bundle.store, bundle.model, bundle.controller
    with ad.no_grad():
        h = model.encode_initial(store, batch.values[:, 0])
        for a, m_eff in runner.anchors():
            runner._advance_zlist(a + 1)
            z = ControllerState(ad.constant(runner.zlist[a + 1]))
            nxt = ctrl.step(store, z, batch.values[:, a + 1],
                            runner.dts[a + 1])
            seq = ActionSequence(actions=[z.z, nxt.z], anchor=a,
                                 anchor_times=batch.times[a : a + m_eff + 1])
            _, h = model.commit_step(store, ad.constant(h.value), seq,
                                     bundle.meta["substeps"],
                                     bundle.meta["method"])
        logits = model.readout(store, h).value

    steps = []
    original = Controller.step

    def counting(self, *args, **kwargs):
        steps.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Controller, "step", counting)
    preds, probs = classify(bundle, series)
    assert len(steps) == 100
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(preds, p.argmax(axis=1))
    np.testing.assert_array_equal(probs, p.max(axis=1))


@pytest.mark.parametrize("algorithm", ["npc", "single_horizon"])
def test_frozen_pass_keeps_only_live_carried_states(algorithm):
    series = _class_series(n=3, length=12, seed=5)
    runner = _WindowRunner(_tiny_bundle(algorithm=algorithm, seed=5),
                           _Batch(series))
    seen = []
    for j, _, _ in _committed_pass(runner):
        seen.append(j)
        assert sum(z is not None for z in runner.zlist) <= 2
    assert seen == list(range(12))


def _full_window_nodes(backend):
    """Differentiable nodes reachable from one full criterion-2 window
    (anchor 4, m = 5, B = 1); a window's tape depends on m, window and
    substeps, not on which points the clock keeps."""
    series = gen_sine_regression(1, 64, seed=0, cycles=1.5, noise=0.02)
    bundle = ModelBundle.build(
        task="regression", obs_dim=1, backend=backend, m=5, window=4,
        lam=0.1, action_dim=8, ctrl_hidden=16, model_hidden=16, substeps=2,
        seed=0)
    runner = _WindowRunner(bundle, _Batch(series))
    anchor = 4
    for a, m_eff in runner.anchors()[:anchor]:
        runner.commit(a, m_eff)
    loss = runner.window_objective(anchor, 5)
    seen = {loss.id}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires and p.id not in seen:
                seen.add(p.id)
                stack.append(p)
    return len(seen)


def test_window_tape_stays_within_node_budget():
    assert _full_window_nodes("ode_rnn") <= 77


def test_cde_window_tape_stays_within_node_budget():
    assert _full_window_nodes("cde") <= 73


def test_classify_wrong_task_rejected():
    bundle = _tiny_bundle(task="regression")
    with pytest.raises(ValueError):
        classify(bundle, _class_series())


def _trained_regression(seed=0):
    raw = gen_sine_regression(n_series=3, length=24, seed=seed, cycles=1.0)
    dropped = [drop_observations(s, 0.4, seed=seed + i) for i, s in
               enumerate(raw)]
    norm = Normalizer.fit(dropped)
    bundle = _tiny_bundle(task="regression", normalizer=norm)
    train(bundle, [norm.apply(s) for s in dropped],
          TrainConfig(epochs=2, batch=4, seed=seed))
    return bundle, dropped


def test_interpolate_contract():
    bundle, dropped = _trained_regression()
    s = dropped[0]
    t_obs, v_obs = s.observed()
    out = interpolate(bundle, s, [])
    assert out.shape == (0, 1)
    mid = 0.5 * (t_obs[0] + t_obs[1])
    vals = interpolate(bundle, s, [mid, t_obs[1]])
    assert vals.shape == (2, 1)
    assert np.all(np.isfinite(vals))
    with pytest.raises(ValueError):
        interpolate(bundle, s, [t_obs[0] - 1.0])
    with pytest.raises(ValueError):
        interpolate(bundle, s, [t_obs[-1] + 1.0])


def test_interpolate_query_order_irrelevant():
    bundle, dropped = _trained_regression()
    s = dropped[0]
    t_obs, _ = s.observed()
    qs = [0.5 * (t_obs[0] + t_obs[1]), 0.5 * (t_obs[2] + t_obs[3]), t_obs[2]]
    fwd = interpolate(bundle, s, qs)
    rev = interpolate(bundle, s, qs[::-1])
    np.testing.assert_allclose(fwd, rev[::-1], atol=1e-12)


def test_extrapolate_contract():
    bundle, dropped = _trained_regression()
    s = dropped[0]
    last = s.observed()[0][-1]
    out = extrapolate(bundle, s, [last + 0.1, last + 0.2])
    assert out.shape == (2, 1)
    assert extrapolate(bundle, s, []).shape == (0, 1)
    with pytest.raises(ValueError):
        extrapolate(bundle, s, [last + 0.1] * 3)  # not increasing
    with pytest.raises(ValueError):
        extrapolate(bundle, s, [last - 0.1])
    with pytest.raises(ValueError):
        extrapolate(bundle, s, [last + k * 0.1 for k in range(1, 5)])  # > m


def test_evaluate_interpolation():
    bundle, dropped = _trained_regression()
    res = evaluate_interpolation(bundle, dropped)
    assert res["n_points"] == sum(int((~s.mask).sum()) for s in dropped)
    assert np.isfinite(res["rmse"])
    full = [TimeSeries(s.times, s.values) for s in dropped]
    with pytest.raises(ValueError):
        evaluate_interpolation(bundle, full)


def test_evaluate_interpolation_skips_hidden_points_without_value():
    bundle, dropped = _trained_regression()
    s = dropped[0]
    values = s.values.copy()
    values[np.flatnonzero(~s.mask)[0]] = np.nan
    unknown = TimeSeries(s.times, values, mask=s.mask)
    res = evaluate_interpolation(bundle, [unknown] + dropped[1:])
    full = evaluate_interpolation(bundle, dropped)
    assert res["n_points"] == full["n_points"] - 1
    assert np.isfinite(res["rmse"])


def test_sweep_deterministic_and_parallel_equal():
    kwargs = dict(seed=1, n_series=2, length=12, cycles=1.0,
                  train_kwargs=dict(epochs=1, batch=4),
                  build_kwargs=dict(algorithm="npc", backend="ode_rnn",
                                    window=2, ctrl_hidden=4, model_hidden=4,
                                    action_dim=3, fdepth=1, substeps=2))
    rows1 = sensitivity_sweep([3, 2], [0.4], **kwargs)
    rows2 = sensitivity_sweep([2, 3], [0.4], jobs=2, **kwargs)
    assert [r["m"] for r in rows1] == [2, 3]
    assert rows1 == rows2
    assert all(r["drop_rate"] == 0.4 for r in rows1)
