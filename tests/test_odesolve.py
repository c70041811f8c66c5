import numpy as np
import pytest

import npc.autodiff as ad
from npc.odesolve import BlowupError, TimeGrid, integrate_span, ode_solve


def _decay(h, t):
    return ad.neg(h)


def test_rk4_matches_exponential():
    traj = ode_solve(_decay, np.array([[1.0]]), TimeGrid([0.0, 1.0, 2.0], 20))
    for t, s in zip(traj.times, traj.states):
        np.testing.assert_allclose(s.value, np.exp(-t), rtol=1e-6)


def test_euler_is_first_order_accurate():
    traj = ode_solve(_decay, np.array([[1.0]]), TimeGrid([0.0, 1.0], 100),
                     method="euler")
    err = abs(traj.states[-1].value[0, 0] - np.exp(-1.0))
    assert 1e-4 < err < 5e-3  # sloppy but converging


def _order(method, levels=4):
    errs = []
    for lv in range(levels):
        sub = 4 * 2 ** lv
        traj = ode_solve(_decay, np.array([[1.0]]), TimeGrid([0.0, 1.0], sub),
                         method=method)
        errs.append(abs(traj.states[-1].value[0, 0] - np.exp(-1.0)))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    return min(rates)


def test_convergence_orders():
    assert _order("rk4") >= 3.8
    assert _order("euler") >= 0.9


def test_interior_sampling_exact_times():
    inner = (0.3, 0.7)
    out, end = integrate_span(_decay, ad.constant(np.array([[1.0]])),
                              0.0, 1.0, 10, "rk4", interior=inner)
    assert [t for t, _ in out] == list(inner)
    for t, s in out:
        np.testing.assert_allclose(s.value, np.exp(-t), rtol=1e-6)
    np.testing.assert_allclose(end.value, np.exp(-1.0), rtol=1e-6)


def test_gradient_through_solver_matches_analytic():
    h0 = ad.leaf(np.array([[1.0]]))
    traj = ode_solve(_decay, h0, TimeGrid([0.0, 1.0], 50))
    ad.backward(ad.sum_(traj.states[-1]))
    # d/dh0 of h0*exp(-1) is exp(-1)
    np.testing.assert_allclose(h0.grad, np.exp(-1.0), rtol=1e-8)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid([0.0], 10)
    with pytest.raises(ValueError):
        TimeGrid([0.0, 0.0], 10)
    with pytest.raises(ValueError):
        TimeGrid([0.0, 1.0], 0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        integrate_span(_decay, ad.constant(np.zeros((1, 1))), 0.0, 1.0, 2,
                       "rk5")


def test_blowup_reports_time():
    def explode(h, t):
        return ad.square(h)

    with pytest.raises(BlowupError) as exc, np.errstate(over="ignore"):
        ode_solve(explode, np.array([[1e200]]), TimeGrid([0.0, 1.0], 4))
    assert 0.0 < exc.value.t <= 1.0


def test_batched_interval_times():
    # per-sample spans: each row integrates its own [0, t1]
    t0 = np.zeros((2, 1))
    t1 = np.array([[1.0], [2.0]])
    _, end = integrate_span(_decay, ad.constant(np.ones((2, 1))), t0, t1,
                            40, "rk4")
    np.testing.assert_allclose(end.value, np.exp(-t1), rtol=1e-6)


def test_batched_interior_queries_rejected():
    with pytest.raises(ValueError):
        integrate_span(_decay, ad.constant(np.ones((2, 1))),
                       np.zeros((2, 1)), np.ones((2, 1)), 4, "rk4",
                       interior=(0.5,))
