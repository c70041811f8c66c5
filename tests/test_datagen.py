import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from npc.datagen import (CsvFormatError, Normalizer, TimeSeries,
                         drop_observations, gen_sine_regression,
                         gen_toy_test, gen_toy_train, load_csv, save_csv,
                         toy_class0_base)


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0]), np.zeros(2), mask=np.array([True]))
    s = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert s.values.shape == (2, 1)
    assert s.length == 2 and s.channels == 1
    assert s.mask.all()


def test_observed_respects_mask():
    s = TimeSeries(np.arange(4.0), np.arange(4.0) * 2,
                   mask=np.array([True, False, True, False]))
    t, v = s.observed()
    np.testing.assert_array_equal(t, [0.0, 2.0])
    np.testing.assert_array_equal(v[:, 0], [0.0, 4.0])


def test_toy_train_composition():
    series = gen_toy_train(seed=0)
    assert len(series) == 100
    labels = sorted(s.label for s in series)
    assert labels == [0] * 50 + [1] * 50
    assert all(s.length == 100 and s.channels == 1 for s in series)
    stacked = np.concatenate([s.values for s in series], axis=0)
    np.testing.assert_allclose(stacked.mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(stacked.std(), 1.0, atol=1e-12)


def test_toy_train_raw_vs_normalized():
    raw, norm = gen_toy_train(seed=3, normalize=False, return_normalizer=True)
    cooked = gen_toy_train(seed=3)
    for r, c in zip(raw, cooked):
        assert r.label == c.label
        np.testing.assert_allclose(norm.apply(r).values, c.values)
    # raw class-0 curves sit far from zero (base level is 7 + sin + cos)
    c0_means = [s.values.mean() for s in raw if s.label == 0]
    assert min(c0_means) > 4.0


def test_toy_test_composition():
    series = gen_toy_test(seed=0)
    assert len(series) == 1050
    labels = np.array([s.label for s in series])
    assert labels.sum() == 50
    np.testing.assert_array_equal(labels[:1000], 0)
    np.testing.assert_array_equal(labels[1000:], 1)


def test_toy_test_kind_structure():
    series = gen_toy_test(seed=1)
    vals = np.stack([s.values[:, 0] for s in series[:1000]])
    # within a kind all 50 rows repeat the same deviated curve
    for kind in (0, 7, 19):
        block = vals[kind * 50 : (kind + 1) * 50]
        assert np.ptp(block, axis=0).max() == 0.0
    # all kinds share the same prefix before index 60 and differ after
    np.testing.assert_array_equal(vals[0, :60], vals[950, :60])
    assert not np.array_equal(vals[0, 60:100], vals[950, 60:100])
    # every kind's parabola passes through the same point at x = 3.6
    t = series[0].times
    h, x_pass = 4.8, 3.6
    at_anchor = [vals[k * 50, 60]
                 + 0.3 * k * ((x_pass - h) ** 2 - (t[60] - h) ** 2)
                 for k in range(20)]
    np.testing.assert_allclose(at_anchor, at_anchor[0], atol=1e-10)
    # deviation amplitude grows with the kind index
    spread = [np.abs(vals[k * 50, 60:100] - vals[0, 60:100]).max()
              for k in range(20)]
    assert all(a <= b + 1e-12 for a, b in zip(spread, spread[1:]))


def test_toy_test_noise_scale_is_unit():
    # test-set base noise is N(0,1): class-1 rows deviate from the clean
    # curve far more than the 0.2-scaled training draws do
    test = gen_toy_test(seed=0)
    t = test[0].times
    resid = np.stack([s.values[:, 0] for s in test[1000:]]) \
        - (2.0 * np.sin(t) + 2.0 * np.cos(t))
    assert 0.8 < resid.std() < 1.2


def test_gen_sine_regression():
    series = gen_sine_regression(n_series=4, length=30, seed=2, cycles=1.0,
                                 noise=0.0)
    assert len(series) == 4 and all(s.length == 30 for s in series)
    np.testing.assert_allclose(series[0].times[-1], 2.0 * np.pi)
    for s in series:
        amp = np.abs(s.values).max()
        assert 0.6 < amp < 1.35
    with pytest.raises(ValueError):
        gen_sine_regression(n_series=0)
    with pytest.raises(ValueError):
        gen_sine_regression(length=1)


def test_drop_observations():
    s = TimeSeries(np.arange(50.0) + 1.0, np.zeros(50))
    d = drop_observations(s, 0.8, seed=0)
    assert d.mask[0] and d.mask[-1]
    assert 0 < d.mask.sum() < 50
    np.testing.assert_array_equal(d.values, s.values)
    same = drop_observations(s, 0.8, seed=0)
    np.testing.assert_array_equal(d.mask, same.mask)
    with pytest.raises(ValueError):
        drop_observations(s, 1.0)
    with pytest.raises(ValueError):
        drop_observations(s, -0.1)


def test_drop_composes_with_existing_mask():
    s = TimeSeries(np.arange(10.0), np.zeros(10),
                   mask=np.array([True] * 5 + [False] * 5))
    d = drop_observations(s, 0.3, seed=1)
    assert not d.mask[5:-1].any() or not d.mask[5:9].any()
    assert np.all(d.mask[5:9] == False)  # noqa: E712  already-hidden stay hidden


def test_normalizer_ignores_masked_points():
    vals = np.array([1.0, 2.0, 1000.0])
    s = TimeSeries(np.arange(3.0), vals,
                   mask=np.array([True, True, False]))
    norm = Normalizer.fit([s])
    np.testing.assert_allclose(norm.mean, [1.5])
    np.testing.assert_allclose(norm.std, [0.5])
    out = norm.apply(s)
    np.testing.assert_allclose(out.values[:2, 0], [-1.0, 1.0])
    np.testing.assert_allclose(norm.invert_values(out.values), s.values)


def test_normalizer_constant_channel_guard():
    s = TimeSeries(np.arange(3.0), np.full(3, 4.0))
    norm = Normalizer.fit([s])
    np.testing.assert_allclose(norm.std, [1.0])


def test_csv_round_trip(tmp_path):
    series = gen_sine_regression(n_series=3, length=7, seed=5)
    path = tmp_path / "x.csv"
    save_csv(series, path)
    back = load_csv(path)
    assert len(back) == 3
    for a, b in zip(series, back):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.values, b.values)
        assert b.label is None


def test_csv_round_trip_hidden_points(tmp_path):
    series = [drop_observations(s, 0.5, seed=i) for i, s in
              enumerate(gen_sine_regression(n_series=3, length=20, seed=2))]
    assert all((~s.mask).any() for s in series)
    path = tmp_path / "dropped.csv"
    save_csv(series, path)
    back = load_csv(path)
    for a, b in zip(series, back):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.mask, b.mask)
        np.testing.assert_array_equal(a.observed()[1], b.observed()[1])
        assert np.all(np.isnan(b.values[~b.mask]))


def test_csv_round_trip_labeled(tmp_path):
    series = gen_toy_train(seed=0, normalize=False)[:4]
    path = tmp_path / "toy.csv"
    save_csv(series, path)
    back = load_csv(path)
    for a, b in zip(series, back):
        assert a.label == b.label
        np.testing.assert_array_equal(a.values, b.values)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _series_lists(draw):
    """1-4 series of 1-6 points over one layout of 1-3 channels, with or
    without labels, each point hidden or not."""
    d, labeled = draw(st.integers(1, 3)), draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        times = sorted(draw(st.lists(_FINITE, min_size=n, max_size=n,
                                     unique=True)))
        values = draw(st.lists(st.lists(_FINITE, min_size=d, max_size=d),
                               min_size=n, max_size=n))
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        label = draw(st.integers(0, 9)) if labeled else None
        out.append(TimeSeries(np.array(times), np.array(values), label=label,
                              mask=np.array(mask)))
    return out


@settings(max_examples=100, deadline=None)
@given(series=_series_lists())
def test_csv_round_trip_property(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.csv")
        save_csv(series, path)
        back = load_csv(path)
    assert len(back) == len(series)
    for a, b in zip(series, back):
        np.testing.assert_array_equal(b.times, a.times)
        np.testing.assert_array_equal(b.mask, a.mask)
        np.testing.assert_array_equal(b.observed()[1], a.observed()[1])
        assert b.label == a.label


def test_csv_normalizer_hook(tmp_path):
    series = [TimeSeries(np.arange(3.0), np.array([1.0, 2.0, 3.0]))]
    path = tmp_path / "n.csv"
    save_csv(series, path)
    norm = Normalizer(np.array([2.0]), np.array([2.0]))
    back = load_csv(path, normalizer=norm)
    np.testing.assert_allclose(back[0].values[:, 0], [-0.5, 0.0, 0.5])


def _write(tmp_path, text):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    return p


@pytest.mark.parametrize("text,needle", [
    ("", "empty file"),
    ("time,v1\n0,1\n", ":1: header"),
    ("t,v2\n0,1\n", ":1: header"),
    ("t,label\n0,1\n", ":1: header"),
    ("t,v1\n0,1,2\n", ":2: expected 2 fields"),
    ("t,v1\n0,abc\n", ":2: malformed value"),
    ("t,v1\n1,0\n0,1\n", ":4: series times must be strictly increasing"),
    ("t,v1,label\n0,1,0\n1,2,1\n", ":3: label changes"),
    ("t,v1\n\n", "no series found"),
    ("t,v1,v2\n0,1,2\n1,,3\n", ":3: some value cells are empty"),
    ("t,v1\n0,1\n1,nan\n", ":3: non-finite value"),
    ("t,v1\n0,inf\n", ":2: non-finite value"),
    ("t,v1\nnan,1\n", ":2: non-finite value"),
])
def test_csv_malformed_inputs(tmp_path, text, needle):
    with pytest.raises(CsvFormatError) as err:
        load_csv(_write(tmp_path, text))
    assert needle in str(err.value)


def test_save_csv_validation(tmp_path):
    with pytest.raises(ValueError):
        save_csv([], tmp_path / "e.csv")
    mixed = [TimeSeries(np.arange(2.0), np.zeros(2), label=0),
             TimeSeries(np.arange(2.0), np.zeros(2))]
    with pytest.raises(ValueError):
        save_csv(mixed, tmp_path / "m.csv")
