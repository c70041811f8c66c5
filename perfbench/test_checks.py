"""The benchmark's own checks fail on perturbed outputs.

    python3 -m pytest perfbench/test_checks.py

Each test hands a check the output it accepts, then the same output
perturbed, and expects CheckError.  The reference forward is compared
with the program on small untrained bundles of both backends.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from npc import datagen, trainer  # noqa: E402
from reference import Reference  # noqa: E402


def test_window_counts():
    toy = datagen.gen_toy_train(seed=0)
    assert checks.expected_windows(toy, 6, 32) == (396, 0)
    checks.window_counts(396, 0, 396, 0)
    with pytest.raises(CheckError):
        checks.window_counts(395, 0, 396, 0)
    with pytest.raises(CheckError):
        checks.window_counts(396, 1, 396, 0)


def test_window_counts_under_drop():
    series = [datagen.drop_observations(s, 0.8, seed=7 * i + 1) for i, s in
              enumerate(datagen.gen_sine_regression(12, 64, seed=0))]
    sizes = [int(s.mask.sum()) for s in series]
    want = sum(n - 1 for n in sizes if n >= 6)
    assert checks.expected_windows(series, 6, 32)[0] == want
    assert checks.series_steps(series, 6) == want


def test_objectives():
    checks.objectives([0.5, 0.0, 2.0], 3)
    for bad in ([0.5, np.nan, 2.0], [0.5, -1e-9, 2.0], [0.5, np.inf, 1.0]):
        with pytest.raises(CheckError):
            checks.objectives(bad, 3)
    with pytest.raises(CheckError):
        checks.objectives([0.5, 1.0], 3)


def test_directional():
    checks.directional(1.2345678, 1.2345678 * (1 + 1e-8), 0.7)
    with pytest.raises(CheckError):
        checks.directional(1.2345678, 1.2345678 * (1 + 1e-4), 0.7)
    with pytest.raises(CheckError):
        checks.directional(1.0, np.nan, 0.7)
    # near zero the floor absorbs the difference's rounding, not more
    checks.directional(-1.52580e-05, -1.52581e-05, 0.7)
    with pytest.raises(CheckError):
        checks.directional(-1.5e-05, -1.6e-05, 0.7)


def test_adamax_first_step():
    rng = np.random.default_rng(0)
    before = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}
    grads = {"w": rng.normal(size=(3, 2)), "b": np.array([0.0, 0.3])}
    lr, eps = 1e-3, 1e-8
    after = {k: before[k] - lr * g / (np.abs(g) + eps)
             for k, g in grads.items()}
    checks.adamax_first_step(before, after, grads, lr, eps)
    drifted = dict(after, b=after["b"] + np.array([1e-6, 0.0]))
    with pytest.raises(CheckError):
        checks.adamax_first_step(before, drifted, grads, lr, eps)


def test_identical_and_close():
    a = np.linspace(0.0, 1.0, 5)
    checks.identical("x", a, a.copy())
    with pytest.raises(CheckError):
        checks.identical("x", a, np.nextafter(a, 2.0))
    checks.close("x", a * (1 + 1e-10), a, 1e-8)
    with pytest.raises(CheckError):
        checks.close("x", a * (1 + 1e-6), a, 1e-8)


def test_classification_and_interpolation():
    checks.classification(np.array([0, 1]), np.array([0.6, 1.0]), 2, 2)
    with pytest.raises(CheckError):
        checks.classification(np.array([0, 2]), np.array([0.6, 0.9]), 2, 2)
    with pytest.raises(CheckError):
        checks.classification(np.array([0, 1]), np.array([0.4, 0.9]), 2, 2)
    checks.interpolation({"n_points": 7, "rmse": 0.1}, 7)
    with pytest.raises(CheckError):
        checks.interpolation({"n_points": 6, "rmse": 0.1}, 7)
    with pytest.raises(CheckError):
        checks.interpolation({"n_points": 7, "rmse": np.nan}, 7)


def test_gradcheck_checks():
    suites = ("ops", "cde")
    checks.gradcheck_results({"ops.add": 1e-9, "cde.x": 2e-6}, 1e-4, suites)
    with pytest.raises(CheckError):
        checks.gradcheck_results({"ops.add": 1e-9, "cde.x": 2e-4}, 1e-4,
                                 suites)
    with pytest.raises(CheckError):
        checks.gradcheck_results({"ops.add": 1e-9}, 1e-4, suites)
    checks.corruption_caught(True)
    with pytest.raises(CheckError):
        checks.corruption_caught(False)


def _masked_series():
    return [datagen.drop_observations(s, 0.5, seed=i) for i, s in
            enumerate(datagen.gen_sine_regression(3, 20, seed=1))]


def test_csv_roundtrip():
    series = _masked_series()
    copy = [datagen.TimeSeries(s.times, s.values, mask=s.mask)
            for s in series]
    checks.csv_roundtrip(copy, series)
    unmasked = [datagen.TimeSeries(s.times, s.values) for s in series]
    with pytest.raises(CheckError):
        checks.csv_roundtrip(unmasked, series)
    shifted = [datagen.TimeSeries(s.times, s.values + 1e-12 * s.mask[:, None],
                                  mask=s.mask) for s in series]
    with pytest.raises(CheckError):
        checks.csv_roundtrip(shifted, series)
    with pytest.raises(CheckError):
        checks.csv_roundtrip(copy[:2], series)


def test_written_csv_layout(tmp_path):
    import run
    series = _masked_series()
    path = tmp_path / "d.csv"
    run.write_csv(series, path)
    blocks = path.read_text().split("\n\n")
    assert blocks[0].startswith("t,v1\n")
    rows = blocks[1].splitlines()
    assert len(rows) == series[1].length
    hidden = [r.endswith(",") for r in rows]
    assert hidden == list(~series[1].mask)


def _bundle(backend, task):
    if task == "classification":
        data, norm = datagen.gen_toy_train(seed=0, return_normalizer=True)
        data = data[:2]
    else:
        data = _masked_series()
        norm = datagen.Normalizer.fit(data)
    bundle = trainer.ModelBundle.build(
        task=task, obs_dim=1, backend=backend, m=3, window=2, ctrl_hidden=5,
        model_hidden=4, action_dim=3, substeps=2, seed=3, normalizer=norm)
    ref = Reference({k: bundle.store.value(k) for k in bundle.store.names()},
                    bundle.meta, norm.mean, norm.std)
    return bundle, ref, data


@pytest.mark.parametrize("backend", ["ode_rnn", "cde"])
def test_reference_interpolation(backend):
    bundle, ref, data = _bundle(backend, "regression")
    s = data[0]
    q = s.times[~s.mask]
    got = trainer.interpolate(bundle, s, q)
    checks.close("interp", got, ref.interpolate(s, q), 1e-8)
    name = "cde.l0.w" if backend == "cde" else "f.l0.w"
    bundle.store.set_value(name, bundle.store.value(name) * 1.001)
    with pytest.raises(CheckError):
        checks.close("interp", trainer.interpolate(bundle, s, q),
                     ref.interpolate(s, q), 1e-8)


def test_reference_classification():
    bundle, ref, data = _bundle("ode_rnn", "classification")
    label, prob = trainer.classify(bundle, data[0])
    p = ref.class_probabilities(data[0])
    assert label == int(np.argmax(p))
    checks.close("prob", prob, p[label], 1e-8)
    bundle.store.set_value("jump.b", bundle.store.value("jump.b") + 1e-3)
    label2, prob2 = trainer.classify(bundle, data[0])
    with pytest.raises(CheckError):
        checks.close("prob", prob2, p[label2], 1e-8)
