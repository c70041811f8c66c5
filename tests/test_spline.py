import numpy as np
import pytest

from npc.spline import CubicPath


def _path(seed=0, k=7, channels=2):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 10.0, size=k))
    t[0], t[-1] = 0.0, 10.0
    v = rng.normal(size=(k, channels))
    return CubicPath(t, v)


def test_knot_exactness():
    p = _path()
    out = p.evaluate(p.knot_times)
    assert np.max(np.abs(out - p.knot_values)) < 1e-12


def test_c1_c2_continuity_at_interior_knots():
    p = _path(seed=1)
    inner = p.knot_times[1:-1]
    d_gap = np.abs(p.derivative(inner, side="left")
                   - p.derivative(inner, side="right"))
    s_gap = np.abs(p.second_derivative(inner, side="left")
                   - p.second_derivative(inner, side="right"))
    assert d_gap.max() < 1e-8
    assert s_gap.max() < 1e-8


def test_natural_boundary_conditions():
    p = _path(seed=2)
    ends = p.second_derivative(np.array([p.t0, p.t1]))
    assert np.max(np.abs(ends)) < 1e-9


def test_derivative_matches_finite_differences():
    p = _path(seed=3)
    ts = np.linspace(p.t0 + 0.3, p.t1 - 0.3, 41)
    eps = 1e-6
    fd = (p.evaluate(ts + eps) - p.evaluate(ts - eps)) / (2 * eps)
    d = p.derivative(ts)
    rel = np.abs(d - fd) / np.maximum(np.abs(fd), 1.0)
    assert rel.max() < 1e-6


def test_linear_data_reproduced_exactly():
    t = np.array([0.0, 1.0, 2.5, 4.0])
    v = 3.0 * t - 1.0
    p = CubicPath(t, v)
    ts = np.linspace(0.0, 4.0, 17)
    np.testing.assert_allclose(p.evaluate(ts), 3.0 * ts - 1.0, atol=1e-12)
    np.testing.assert_allclose(p.derivative(ts), 3.0, atol=1e-12)


def test_two_knots_is_a_line():
    p = CubicPath([0.0, 2.0], [1.0, 5.0])
    np.testing.assert_allclose(p.evaluate([1.0]), [3.0], atol=1e-14)
    np.testing.assert_allclose(p.derivative([0.5]), [2.0], atol=1e-14)


def test_no_extrapolation():
    p = _path()
    with pytest.raises(ValueError):
        p.evaluate([p.t1 + 0.1])
    with pytest.raises(ValueError):
        p.derivative([p.t0 - 0.1])


def test_validation():
    with pytest.raises(ValueError):
        CubicPath([0.0], [1.0])
    with pytest.raises(ValueError):
        CubicPath([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        CubicPath([0.0, 1.0], [[1.0], [2.0], [3.0]])


def test_weight_rows_sum_to_one():
    # value weights form a partition of unity (constants reproduce exactly)
    p = _path(seed=7)
    w = p.value_weights(np.linspace(0.0, 10.0, 23))
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
