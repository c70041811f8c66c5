import itertools

import numpy as np
import pytest

import npc.autodiff as ad
from npc import odesolve
from npc.odesolve import (BlowupError, DenseField, TimeGrid, integrate_span,
                          ode_solve)


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


# ---------------------------------------------------------------------------
# DenseField: a whole span as one node, against the stage-by-stage graph

_B, _H, _DU, _C, _SUB = 3, 2, 2, 3, 3
_RNG = np.random.default_rng(21)
_CLOCKS = {
    "float": (0.1, 0.6),
    "column": (np.array([[0.1], [0.3], [0.2]]),
               np.array([[0.6], [0.7], [0.9]])),
}


def _tcol(t):
    if isinstance(t, np.ndarray):
        return np.broadcast_to(t.reshape(-1, 1), (_B, 1))
    return np.full((_B, 1), float(t))


def _pairs(flat):
    return list(zip(flat[::2], flat[1::2]))


def _field_values(cde):
    """h, then u (ode_rnn) or nothing, the weights, then rows (cde)."""
    dims = [_H + 1 + (0 if cde else _DU), 4, _H * _C if cde else _H]
    wb = [0.7 * _RNG.normal(size=s) for i in range(2)
          for s in ((dims[i], dims[i + 1]), (dims[i + 1],))]
    if cde:
        # row 0 and the last row lie outside a span that starts at row 1
        # and cuts its substeps at two interior times
        return [_RNG.normal(size=(_B, _H))] + wb + [
            _RNG.normal(size=(_B, 4 * (_SUB + 2) + 2, _C))]
    return [_RNG.normal(size=(_B, _H)), _RNG.normal(size=(_B, _DU))] + wb


_VALUES = {False: _field_values(False), True: _field_values(True)}


def _fused(cde, t0, t1, method, interior=()):
    def run(h, *rest):
        if cde:
            field = DenseField(_pairs(rest[:-1]), out_tanh=True,
                               rows=rest[-1], first_row=1)
        else:
            field = DenseField(_pairs(rest[1:]), u=rest[0])
        return integrate_span(field, h, t0, t1, _SUB, method, interior)
    return run


def _unrolled(cde, t0, t1, method, interior=()):
    """The same span from ad.mlp and primitive ops, one node per stage."""
    def run(h, *rest):
        if cde:
            rows, stage = rest[-1], itertools.count(1)

            def f(s, t):
                flat = ad.mlp([s, _tcol(t)], _pairs(rest[:-1]), out_tanh=True)
                row = ad.reshape(ad.narrow(rows, 1, next(stage), 1), (_B, _C))
                return ad.bmatvec(ad.reshape(flat, (_B, _H, _C)), row)
        else:
            def f(s, t):
                return ad.mlp([s, rest[0], _tcol(t)], _pairs(rest[1:]))
        return integrate_span(f, h, t0, t1, _SUB, method, interior)
    return run


def _run_backward(op, values):
    """Interior states, end state and input leaves of op, after backward
    from the sum of squares of every reported state."""
    nodes = [ad.leaf(v) for v in values]
    out, end = op(*nodes)
    loss = ad.sum_(ad.square(end))
    for _, state in out:
        loss = ad.add(loss, ad.sum_(ad.square(state)))
    ad.backward(loss)
    return out, end, nodes


@pytest.mark.parametrize("cde", [False, True], ids=["mlp", "cde"])
@pytest.mark.parametrize("method", ["rk4", "euler"])
@pytest.mark.parametrize("clock", sorted(_CLOCKS))
def test_dense_field_span_matches_unrolled_stages(cde, method, clock):
    values = _VALUES[cde]
    t0, t1 = _CLOCKS[clock]
    _, end, nodes = _run_backward(_fused(cde, t0, t1, method), values)
    _, want, want_nodes = _run_backward(_unrolled(cde, t0, t1, method),
                                        values)
    # one node over the inputs; same arithmetic in the same order, so the
    # values are bit-identical
    assert end.parents == tuple(nodes)
    np.testing.assert_array_equal(end.value, want.value)
    for n, w in zip(nodes, want_nodes):
        assert n.grad.shape == w.grad.shape
        np.testing.assert_allclose(n.grad, w.grad, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cde", [False, True], ids=["mlp", "cde"])
def test_dense_field_interior_states(cde):
    values, interior = _VALUES[cde], (0.25, 0.4)
    fused = _fused(cde, 0.1, 0.6, "rk4", interior)
    unrolled = _unrolled(cde, 0.1, 0.6, "rk4", interior)
    with ad.no_grad():
        out, end = fused(*[ad.constant(v) for v in values])
        want, want_end = unrolled(*[ad.constant(v) for v in values])
    assert [t for t, _ in out] == list(interior)
    for (_, s), (_, w) in zip(out, want):
        np.testing.assert_array_equal(s.value, w.value)
    np.testing.assert_array_equal(end.value, want_end.value)
    # on the tape, each piece between reported times is one node
    out, end, nodes = _run_backward(fused, values)
    assert end.parents[0] is out[-1][1]
    _, _, want_nodes = _run_backward(unrolled, values)
    for n, w in zip(nodes, want_nodes):
        np.testing.assert_allclose(n.grad, w.grad, rtol=1e-12, atol=1e-12)


def test_dense_field_skips_constant_inputs_adjoint():
    values = _VALUES[False]
    nodes = [ad.constant(v) for v in values[:2]] + [ad.leaf(v)
                                                    for v in values[2:]]
    _, end = _fused(False, 0.1, 0.6, "rk4")(*nodes)
    ad.backward(ad.sum_(ad.square(end)))
    assert nodes[0].grad is None and nodes[1].grad is None
    assert all(n.grad is not None for n in nodes[2:])


def test_no_grad_span_keeps_no_stage_arrays(monkeypatch):
    kept = []
    original = odesolve._field_steps

    def spy(*args):
        value, tape = original(*args)
        kept.append(len(tape))
        return value, tape

    monkeypatch.setattr(odesolve, "_field_steps", spy)
    run = _fused(True, 0.1, 0.6, "rk4")
    with ad.no_grad():
        _, end = run(*[ad.leaf(v) for v in _VALUES[True]])
    assert kept == [0]
    assert end.parents == () and end._back is None
    run(*[ad.leaf(v) for v in _VALUES[True]])
    assert kept == [0, _SUB]


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_dense_field_blowup_reports_step_end_time(method):
    # a constant field of 1.6e307 from 1e308: the third step of width 2
    # overflows, on both integrators
    layers = [(ad.constant(np.zeros((2, 1))), ad.constant(np.full(1, 1.6e307)))]
    h0 = ad.constant(np.full((1, 1), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowupError) as fused:
            integrate_span(DenseField(layers), h0, 0.0, 8.0, 4, method)
        with pytest.raises(BlowupError) as unrolled:
            integrate_span(lambda h, t: ad.constant(np.full((1, 1), 1.6e307)),
                           h0, 0.0, 8.0, 4, method)
    assert fused.value.t == unrolled.value.t == 6.0


@pytest.mark.parametrize("field,needle", [
    (lambda v: DenseField(_pairs(v[1:-1]),
                          rows=ad.constant(v[-1].value[:, :4])),
     "rows 0..11 of (3, 4, 3) do not align"),
    (lambda v: DenseField(_pairs(v[1:-1]), rows=v[-1], first_row=12),
     "rows 12..23 of (3, 22, 3) do not align"),
    (lambda v: DenseField(_pairs(v[1:-1]),
                          rows=ad.constant(np.ones((_B, 22, 4)))),
     "field output width 6 and rows 0..11 of (3, 22, 4) do not align"),
    (lambda v: DenseField(_pairs(v[1:-1])),
     "field output width 6 does not match state (3, 2)"),
], ids=["rows_past_end", "first_row_past_end", "width_not_multiple",
        "width_mismatch"])
def test_dense_field_shape_errors(field, needle):
    values = [ad.constant(v) for v in _VALUES[True]]
    with pytest.raises(ValueError) as err:
        integrate_span(field(values), values[0], 0.1, 0.6, _SUB, "rk4")
    assert needle in str(err.value)
