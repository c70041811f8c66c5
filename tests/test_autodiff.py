import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import npc.autodiff as ad
import refgraph as ref
from npc import gradcheck
from npc.odesolve import DenseField, integrate_span


def test_constant_vs_leaf():
    c = ad.constant([1.0, 2.0])
    lf = ad.leaf([1.0, 2.0])
    out = ad.sum_(ref.mul(c, lf))
    ad.backward(out)
    assert c.grad is None
    np.testing.assert_allclose(lf.grad, [1.0, 2.0])


def test_add_broadcast_unbroadcasts_grad():
    a = ad.leaf(np.ones((2, 3)))
    b = ad.leaf(np.arange(3.0))
    out = ad.sum_(ad.add(a, b))
    ad.backward(out)
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (3,)
    np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])


def test_elementwise_shape_mismatch_raises():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((4, 3)))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_diamond_graph_accumulates():
    x = ad.leaf([3.0])
    y = ad.add(ad.square(x), ad.square(x))
    ad.backward(ad.sum_(y))
    np.testing.assert_allclose(x.grad, [12.0])


def test_square_values():
    x = ad.constant([-2.0, 0.5])
    np.testing.assert_allclose(ad.square(x).value, [4.0, 0.25])


def test_matmul_forward_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 4))
    out = ad.matmul(ad.constant(a), ad.constant(b))
    np.testing.assert_allclose(out.value, a @ b)


def test_bmatvec_forward():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(2, 3, 4))
    v = rng.normal(size=(2, 4))
    out = ref.bmatvec(ad.constant(m), ad.constant(v))
    np.testing.assert_allclose(out.value, np.einsum("bij,bj->bi", m, v))


def test_concat_narrow_round_trip():
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(4.0).reshape(2, 2)
    joined = ad.concat([ad.constant(a), ad.constant(b)], axis=1)
    back = ad.narrow(joined, 1, 3, 2)
    np.testing.assert_allclose(back.value, b)


def test_narrow_grad_routes_to_slice():
    x = ad.leaf(np.arange(6.0).reshape(2, 3))
    out = ad.sum_(ad.narrow(x, 1, 1, 2))
    ad.backward(out)
    expected = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    np.testing.assert_allclose(x.grad, expected)


def test_mean_axis_values():
    x = ad.constant(np.arange(6.0).reshape(2, 3))
    np.testing.assert_allclose(ad.mean_(x, axis=1).value, [1.0, 4.0])
    np.testing.assert_allclose(ad.mean_(x).value, 2.5)


def test_softmax_cross_entropy_matches_manual():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    node = ad.softmax_cross_entropy(ad.constant(logits), labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -logp[np.arange(4), labels]
    np.testing.assert_allclose(node.value, expected, atol=1e-12)


def test_softmax_cross_entropy_extreme_logits_stable():
    logits = ad.constant(np.array([[1000.0, -1000.0]]))
    out = ad.softmax_cross_entropy(logits, np.array([0]))
    assert np.all(np.isfinite(out.value))
    np.testing.assert_allclose(out.value, [0.0], atol=1e-12)


def test_no_grad_builds_no_graph():
    x = ad.leaf([1.0, 2.0])
    with ad.no_grad():
        y = ad.square(x)
    assert y.parents == ()
    out = ad.sum_(ad.square(x))
    ad.backward(out)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = ad.leaf([1.0, 2.0])
    with pytest.raises(ValueError):
        ad.backward(ad.square(x))


def test_sigmoid_values():
    x = ad.constant([-1.0, 0.0, 2.0])
    np.testing.assert_allclose(ref.sigmoid(x).value,
                               1.0 / (1.0 + np.exp([1.0, 0.0, -2.0])))


def test_reshape_grad_shape():
    x = ad.leaf(np.arange(6.0))
    out = ad.sum_(ad.square(ad.reshape(x, (2, 3))))
    ad.backward(out)
    assert x.grad.shape == (6,)
    np.testing.assert_allclose(x.grad, 2.0 * np.arange(6.0))


def test_grad_accumulates_once_per_backward():
    x = ad.leaf([2.0])
    out = ad.sum_(ad.square(x))
    ad.backward(out)
    first = x.grad.copy()
    np.testing.assert_allclose(first, [4.0])


# -- fused ops against the same computation in smaller ops -----------------
# (npc.autodiff's own and the reference ops of tests/refgraph.py)

def _primitive_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _primitive_mlp(out_tanh):
    def run(x, *wb):
        h = x
        last = len(wb) // 2 - 1
        for i in range(last + 1):
            h = _primitive_linear(h, wb[2 * i], wb[2 * i + 1])
            if i < last or out_tanh:
                h = ad.tanh(h)
        return h
    return run


def _fused_mlp(out_tanh):
    def run(x, *wb):
        return ad.mlp([x], list(zip(wb[::2], wb[1::2])), out_tanh)
    return run


def _fused_mlp_blocks(x0, x1, *wb):
    return ad.mlp([x0, x1, _DATA_COL], list(zip(wb[::2], wb[1::2])))


def _primitive_mlp_blocks(x0, x1, *wb):
    joined = ad.concat([x0, x1, ad.constant(_DATA_COL)], axis=1)
    return _primitive_mlp(False)(joined, *wb)


def _cde_field_span(h, *wb_rows):
    """One rk4 step of the cde's DenseField: one node."""
    *wb, rows = wb_rows
    field = DenseField(list(zip(wb[::2], wb[1::2])), out_tanh=True, rows=rows)
    return integrate_span(field, h, 0.2, 0.5, 1, "rk4")[1]


def _primitive_cde_field_span(h, *wb_rows):
    """The same step with the field built from primitive ops, one node per
    op; stage s multiplies row s."""
    *wb, rows = wb_rows
    b, _, c = rows.value.shape
    stage = itertools.count()

    def f(state, t):
        joined = ad.concat([state, ad.constant(np.full((b, 1), t))], axis=1)
        flat = _primitive_mlp(True)(joined, *wb)
        mat = ad.reshape(flat, (b, flat.value.shape[1] // c, c))
        row = ad.reshape(ad.narrow(rows, 1, next(stage), 1), (b, c))
        return ref.bmatvec(mat, row)

    return ref.unrolled_span(f, h, 0.2, 0.5, 1, "rk4")[1]


def _primitive_mse(pred, target, weights=None):
    """The squared-error term as objective built it from primitive ops."""
    per = ad.mean_(ad.square(ref.sub(pred, ad.constant(target))), axis=1)
    if weights is None:
        return ad.mean_(per)
    return ad.sum_(ad.mul_const(per, weights / weights.sum()))


def _primitive_gru_step(prev, x, wx, wh, b):
    h = prev.value.shape[1]
    px = ad.add(ad.matmul(x, wx), b)
    ph = ad.matmul(prev, wh)
    r = ref.sigmoid(ad.add(ad.narrow(px, -1, 0, h), ad.narrow(ph, -1, 0, h)))
    u = ref.sigmoid(ad.add(ad.narrow(px, -1, h, h), ad.narrow(ph, -1, h, h)))
    cand = ad.tanh(ad.add(ad.narrow(px, -1, 2 * h, h),
                          ref.mul(r, ad.narrow(ph, -1, 2 * h, h))))
    return ad.add(ref.mul(u, prev), ref.mul(ref.one_minus(u), cand))


_RNG = np.random.default_rng(11)
_DENSE = [_RNG.normal(size=s) for s in [(4, 3), (3, 5), (5,), (5, 2), (2,)]]

_DATA_COL = _RNG.normal(size=(4, 1))
_TARGET = _RNG.normal(size=(4, 3))
_WEIGHTS = np.array([0.0, 1.0, 0.5, 2.0])

FUSED_CASES = {
    "linear": (ad.linear, _primitive_linear, _DENSE[:3]),
    "mlp": (_fused_mlp(False), _primitive_mlp(False), _DENSE),
    "mlp_out_tanh": (_fused_mlp(True), _primitive_mlp(True), _DENSE),
    "gru_step": (ad.gru_step, _primitive_gru_step,
                 [_RNG.normal(size=s) for s in
                  [(4, 3), (4, 2), (2, 9), (3, 9), (9,)]]),
    "mlp_blocks": (_fused_mlp_blocks, _primitive_mlp_blocks,
                   [_RNG.normal(size=(4, 1)), _RNG.normal(size=(4, 1))]
                   + _DENSE[1:]),
    "cde_field": (_cde_field_span, _primitive_cde_field_span,
                  [_RNG.normal(size=s) for s in
                   [(4, 2), (3, 5), (5,), (5, 6), (6,), (4, 4, 3)]]),
    "mse": (lambda x: ad.mse(x, _TARGET),
            lambda x: _primitive_mse(x, _TARGET), [_RNG.normal(size=(4, 3))]),
    "mse_weighted": (lambda x: ad.mse(x, _TARGET, _WEIGHTS),
                     lambda x: _primitive_mse(x, _TARGET, _WEIGHTS),
                     [_RNG.normal(size=(4, 3))]),
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_op_matches_primitive_ops(name):
    fused, primitive, values = FUSED_CASES[name]
    results = []
    for op in (fused, primitive):
        nodes = [ad.leaf(v) for v in values]
        out = op(*nodes)
        # squaring makes the output adjoint differ entry by entry
        ad.backward(ad.sum_(ad.square(out)))
        results.append((out.value, [n.grad for n in nodes]))
    (got, got_grads), (want, want_grads) = results
    assert len(fused(*[ad.leaf(v) for v in values]).parents) == len(values)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


# -- the reference ops' own adjoints against central differences -----------

def _ref_field(h, t):
    return ad.mul_const(ad.tanh(ad.matmul(h, ad.constant(_DENSE[1][:2, :2]))),
                        1.0 + t)


def _ref_span(method):
    def run(h):
        return ref.unrolled_span(_ref_field, h, 0.2, 0.7, 2, method)[1]
    return run


_A, _B = _RNG.normal(size=(2, 3)), _RNG.normal(size=(2, 3))
REF_CHECKS = (
    gradcheck._per_input("sub", ref.sub, ["a", "b"], [_A, _B])
    + gradcheck._per_input("mul", ref.mul, ["a", "b"], [_A, _B])
    + gradcheck._per_input("one_minus", ref.one_minus, ["x"], [_A])
    + gradcheck._per_input("sigmoid", ref.sigmoid, ["x"], [_A])
    + gradcheck._per_input("bmatvec", ref.bmatvec, ["a", "x"],
                           [_RNG.normal(size=(2, 3, 4)),
                            _RNG.normal(size=(2, 4))])
    + gradcheck._per_input("unrolled_rk4", _ref_span("rk4"), ["h"],
                           [_A[:, :2]])
    + gradcheck._per_input("unrolled_euler", _ref_span("euler"), ["h"],
                           [_A[:, :2]])
)


@pytest.mark.parametrize("name,f,x0", REF_CHECKS,
                         ids=[name for name, _, _ in REF_CHECKS])
def test_reference_op_passes_check_function(name, f, x0):
    assert gradcheck.check_function(f, x0, name=name) < gradcheck.TOL


def test_fused_ops_skip_constant_input_adjoint():
    x = ad.constant(_DENSE[0])
    w, b = ad.leaf(_DENSE[1]), ad.leaf(_DENSE[2])
    ad.backward(ad.sum_(ad.square(ad.linear(x, w, b))))
    assert x.grad is None
    np.testing.assert_allclose(
        w.grad, _DENSE[0].T @ (2.0 * (_DENSE[0] @ _DENSE[1] + _DENSE[2])),
        rtol=1e-12)


@pytest.mark.parametrize("call,needle", [
    (lambda: ad.linear(ad.constant(np.ones(3)), ad.constant(np.ones((3, 2))),
                       ad.constant(np.zeros(2))), "(3,) @ (3, 2) + (2,)"),
    (lambda: ad.linear(ad.constant(np.ones((4, 3))),
                       ad.constant(np.ones((2, 2))),
                       ad.constant(np.zeros(2))), "(4, 3) @ (2, 2)"),
    (lambda: ad.mlp([ad.constant(np.ones((4, 3)))],
                    [(ad.constant(np.ones((3, 2))), ad.constant(np.zeros(3)))]),
     "(3, 2) + (3,)"),
    (lambda: ad.mlp([ad.constant(np.ones((4, 3))), np.ones((2, 1))],
                    [(ad.constant(np.ones((4, 2))), ad.constant(np.zeros(2)))]),
     "mlp: input blocks [(4, 3), (2, 1)] must be (B, k_i) with one B"),
    (lambda: ad.mlp([], [(ad.constant(np.ones((4, 2))),
                          ad.constant(np.zeros(2)))]),
     "mlp: input blocks []"),
    (lambda: ad.mse(ad.constant(np.ones((4, 3))), np.ones((4, 1))),
     "mse: prediction (4, 3) and target (4, 1)"),
    (lambda: ad.mse(ad.constant(np.ones((4, 3))), np.ones((4, 3)),
                    np.ones(3)), "mse: weights (3,) do not match batch (4,)"),
    (lambda: ad.mse(ad.constant(np.ones((4, 3))), np.ones((4, 3)),
                    np.zeros(4)), "no available targets"),
    (lambda: ad.gru_step(ad.constant(np.ones((4, 3))),
                         ad.constant(np.ones((4, 2))),
                         ad.constant(np.ones((2, 6))),
                         ad.constant(np.ones((3, 6))),
                         ad.constant(np.zeros(6))), "gru_step: state (4, 3)"),
])
def test_fused_op_shape_errors(call, needle):
    with pytest.raises(ValueError) as err:
        call()
    assert needle in str(err.value)


@pytest.mark.parametrize("sa,sb,needle", [
    ((2, 3), (4, 3), "add: shapes (2, 3) and (4, 3) do not align"),
    ((1, 3), (2, 1), "add: broadcast may only promote a trailing shape"),
])
def test_elementwise_shape_error_messages(sa, sb, needle):
    with pytest.raises(ValueError) as err:
        ad.add(ad.constant(np.ones(sa)), ad.constant(np.ones(sb)))
    assert needle in str(err.value)


def test_mlp_blocks_route_adjoint_to_node_blocks_only():
    x0, x1 = ad.constant(_DENSE[0][:, :1]), ad.leaf(_DENSE[0][:, 1:2])
    wb = [ad.leaf(v) for v in _DENSE[1:]]
    out = ad.mlp([x0, x1, _DATA_COL], [(wb[0], wb[1]), (wb[2], wb[3])])
    assert out.parents == (x0, x1, *wb)
    ad.backward(ad.sum_(ad.square(out)))
    assert x0.grad is None
    joined = ad.leaf(np.hstack([_DENSE[0][:, :2], _DATA_COL]))
    ad.backward(ad.sum_(ad.square(_primitive_mlp(False)(
        joined, *[ad.constant(v) for v in _DENSE[1:]]))))
    np.testing.assert_allclose(x1.grad, joined.grad[:, 1:2], rtol=1e-12)


def test_cde_field_skips_constant_rows_adjoint():
    values = FUSED_CASES["cde_field"][2]
    nodes = [ad.leaf(v) for v in values[:-1]] + [ad.constant(values[-1])]
    ad.backward(ad.sum_(ad.square(_cde_field_span(*nodes))))
    assert nodes[-1].grad is None
    assert all(n.grad is not None for n in nodes[:-1])


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 4),
       widths=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       depth=st.integers(1, 3), out_tanh=st.booleans(),
       data_block=st.booleans(), seed=st.integers(0, 2**16))
def test_fused_dense_ops_match_primitive_graph(batch, widths, depth, out_tanh,
                                               data_block, seed):
    """mlp against concat + matmul/tanh stack: value and every input's
    gradient within 1e-12."""
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=(batch, w)) for w in widths]
    col = rng.normal(size=(batch, 1)) if data_block else None
    dims = [sum(widths) + data_block] + [3] * (depth - 1) + [2]
    values = blocks + [rng.normal(size=shape) for i in range(depth)
                       for shape in ((dims[i], dims[i + 1]), (dims[i + 1],))]
    k = len(blocks)

    def fused(*nodes):
        wb = nodes[k:k + 2 * depth]
        inputs = list(nodes[:k]) + ([col] if data_block else [])
        return ad.mlp(inputs, list(zip(wb[::2], wb[1::2])), out_tanh)

    def primitive(*nodes):
        inputs = list(nodes[:k]) + ([ad.constant(col)] if data_block else [])
        joined = ad.concat(inputs, axis=1)
        return _primitive_mlp(out_tanh)(joined, *nodes[k:k + 2 * depth])

    results = []
    for op in (fused, primitive):
        nodes = [ad.leaf(v) for v in values]
        out = op(*nodes)
        ad.backward(ad.sum_(ad.square(out)))
        results.append((out.value, [nd.grad for nd in nodes]))
    (got, got_grads), (want, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
