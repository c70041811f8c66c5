"""Reverse-mode automatic differentiation over dense float64 arrays.

The tape is implicit: every operation returns a Node carrying its value,
its parent nodes, and a closure mapping the node's adjoint to parent
adjoints.  Graphs are rebuilt on every forward pass.  backward() walks the
nodes reachable from a scalar loss in reverse creation order, which is a
valid reverse topological order because parents always predate children;
adjoints of shared subexpressions accumulate by summation.

Values are float64 throughout.  Elementwise ops broadcast only over
leading dimensions (a trailing-shape operand such as a bias vector may be
promoted); anything richer must be spelled out by the caller.

The arrays are small (a batch of a few series by a few dozen units), so a
graph's cost is the Python work per node more than the arithmetic.  The
fused ops add_scaled (a + b * c, the generic solver's update), linear,
mlp (a whole dense stack over column blocks it joins itself), gru_step
(one GRU cell) and mse (one squared-error term) each build a single node
whose hand-written adjoint repeats the arithmetic of the primitive-op
graph they replace.  The dense-stack helpers _dense and _dense_back are
shared with odesolve's fused interval op, which integrates a whole
interval of a dense vector field as one node.  Each op, fused or
primitive, has a finite-difference check in gradcheck.op_checks.

State is confined to the calling thread: the grad-enabled flag is
thread-local and node ids come from a single monotone counter, so distinct
model replicas may run on distinct threads but a single graph must not be
shared across threads.
"""

import itertools
import threading

import numpy as np
from scipy.special import expit

__all__ = [
    "Node", "constant", "leaf", "no_grad", "grad_enabled", "backward",
    "add", "sub", "mul", "neg", "add_const", "mul_const", "matmul",
    "bmatvec", "tanh", "relu", "sigmoid", "log", "square", "concat",
    "narrow", "reshape", "sum_", "mean_", "softmax_cross_entropy",
    "add_scaled", "linear", "mlp", "gru_step", "mse",
]

_ids = itertools.count()


class _Mode(threading.local):
    enabled = True


_mode = _Mode()


def grad_enabled():
    return _mode.enabled


class no_grad:
    """Context manager that suspends graph construction."""

    def __enter__(self):
        self._saved = _mode.enabled
        _mode.enabled = False
        return self

    def __exit__(self, *exc):
        _mode.enabled = self._saved
        return False


class Node:
    """One tape entry: a float64 array plus how to push adjoints back."""

    __slots__ = ("value", "parents", "_back", "grad", "id", "requires")

    def __init__(self, value, parents=(), back=None, requires=False):
        self.value = value
        self.parents = parents
        self._back = back
        self.grad = None
        self.id = next(_ids)
        self.requires = requires

    @property
    def shape(self):
        return self.value.shape

    # Convenience arithmetic.  Plain numbers and arrays enter as constants.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        if isinstance(other, Node):
            return mul(self, other)
        return mul_const(self, other)

    def __rmul__(self, other):
        return mul_const(self, other)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires={self.requires})"


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


def constant(x):
    return Node(_as_f64(x))


def leaf(x):
    """Differentiable graph input (parameter or probe)."""
    return Node(_as_f64(x), requires=True)


def _lift(x):
    return x if isinstance(x, Node) else constant(x)


def _make(value, parents, back):
    if _mode.enabled and any(p.requires for p in parents):
        return Node(value, tuple(parents), back, requires=True)
    return Node(value)


def _unbroadcast(g, shape):
    """Sum g down to `shape` after leading-dimension broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _check_elementwise(op, a, b):
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return sa
    try:
        out = np.broadcast_shapes(sa, sb)
    except ValueError:
        raise ValueError(f"{op}: shapes {sa} and {sb} do not align") from None
    if out != sa and out != sb:
        raise ValueError(
            f"{op}: broadcast may only promote a trailing shape, got "
            f"{sa} and {sb}"
        )
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise("add", a, b)
    sa, sb = a.value.shape, b.value.shape

    def back(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(a.value + b.value, (a, b), back)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise("sub", a, b)
    sa, sb = a.value.shape, b.value.shape

    def back(g):
        return _unbroadcast(g, sa), -_unbroadcast(g, sb)

    return _make(a.value - b.value, (a, b), back)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_elementwise("mul", a, b)
    va, vb = a.value, b.value

    def back(g):
        return _unbroadcast(g * vb, va.shape), _unbroadcast(g * va, vb.shape)

    return _make(va * vb, (a, b), back)


def neg(a):
    def back(g):
        return (-g,)

    return _make(-a.value, (a,), back)


def add_const(a, c):
    """a + c where c is data, never differentiated."""
    c = _as_f64(c)
    value = a.value + c
    if value.shape != a.value.shape:
        raise ValueError(
            f"add_const: constant {c.shape} would widen operand {a.value.shape}"
        )

    def back(g):
        return (g,)

    return _make(value, (a,), back)


def mul_const(a, c):
    """a * c where c is data (scalar or array broadcastable up to a.shape)."""
    c = _as_f64(c)
    value = a.value * c
    if value.shape != a.value.shape:
        raise ValueError(
            f"mul_const: constant {c.shape} would widen operand {a.value.shape}"
        )

    def back(g):
        return (g * c,)

    return _make(value, (a,), back)


def add_scaled(a, b, c):
    """a + b * c as one node; c is data (scalar or array broadcastable up
    to b.shape), never differentiated, and a and b share a shape."""
    c = _as_f64(c)
    scaled = b.value * c
    if scaled.shape != b.value.shape or a.value.shape != b.value.shape:
        raise ValueError(
            f"add_scaled: shapes {a.value.shape} + {b.value.shape} * "
            f"{c.shape} do not align"
        )

    def back(g):
        return g, g * c

    return _make(a.value + scaled, (a, b), back)


# ---------------------------------------------------------------------------
# linear algebra

def _swap(x):
    return np.swapaxes(x, -1, -2)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    va, vb = a.value, b.value
    if va.ndim == 0 or vb.ndim == 0:
        raise ValueError("matmul: operands must have at least 1 dimension")
    try:
        value = va @ vb
    except ValueError:
        raise ValueError(f"matmul: shapes {va.shape} @ {vb.shape} do not align") from None

    if va.ndim == 1 and vb.ndim == 1:
        def back(g):
            return g * vb, g * va
    elif va.ndim == 1:
        # (k,) @ (..., k, m) -> (..., m)
        def back(g):
            ga = _unbroadcast((vb @ np.expand_dims(g, -1))[..., 0], va.shape)
            gb = np.expand_dims(va, -1) * np.expand_dims(g, -2)
            return ga, _unbroadcast(gb, vb.shape)
    elif vb.ndim == 1:
        # (..., n, k) @ (k,) -> (..., n)
        def back(g):
            ga = np.expand_dims(g, -1) * vb
            gb = _unbroadcast((_swap(va) @ np.expand_dims(g, -1))[..., 0], vb.shape)
            return _unbroadcast(ga, va.shape), gb
    else:
        def back(g):
            return (_unbroadcast(g @ _swap(vb), va.shape),
                    _unbroadcast(_swap(va) @ g, vb.shape))

    return _make(value, (a, b), back)


def bmatvec(a, x):
    """Batched matrix-vector product: (B,n,k) @ (B,k) -> (B,n)."""
    a, x = _lift(a), _lift(x)
    va, vx = a.value, x.value
    if va.ndim != 3 or vx.ndim != 2 or va.shape[0] != vx.shape[0] or va.shape[2] != vx.shape[1]:
        raise ValueError(f"bmatvec: shapes {va.shape} and {vx.shape} do not align")
    value = np.einsum("bnk,bk->bn", va, vx)

    def back(g):
        return (np.einsum("bn,bk->bnk", g, vx),
                np.einsum("bnk,bn->bk", va, g))

    return _make(value, (a, x), back)


# ---------------------------------------------------------------------------
# nonlinearities and pointwise maps

def tanh(a):
    t = np.tanh(a.value)

    def back(g):
        return (g * (1.0 - t * t),)

    return _make(t, (a,), back)


def relu(a):
    m = a.value > 0

    def back(g):
        return (g * m,)

    return _make(np.where(m, a.value, 0.0), (a,), back)


def sigmoid(a):
    s = expit(a.value)

    def back(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), back)


def log(a):
    if np.any(a.value <= 0):
        raise ValueError("log: input must be strictly positive")
    va = a.value

    def back(g):
        return (g / va,)

    return _make(np.log(va), (a,), back)


def square(a):
    va = a.value

    def back(g):
        return (2.0 * va * g,)

    return _make(va * va, (a,), back)


# ---------------------------------------------------------------------------
# shape surgery

def concat(nodes, axis=0):
    nodes = [_lift(n) for n in nodes]
    if not nodes:
        raise ValueError("concat: need at least one input")
    try:
        value = np.concatenate([n.value for n in nodes], axis=axis)
    except ValueError:
        shapes = [n.value.shape for n in nodes]
        raise ValueError(f"concat: shapes {shapes} do not align on axis {axis}") from None
    splits = []
    end = 0
    for n in nodes[:-1]:
        end += n.value.shape[axis]
        splits.append(end)

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(value, tuple(nodes), back)


def narrow(a, axis, start, length):
    """Contiguous slice of `length` entries along `axis`."""
    if axis < 0:
        axis += a.value.ndim
    if not 0 <= axis < a.value.ndim:
        raise ValueError(f"narrow: axis {axis} out of range for shape {a.value.shape}")
    n = a.value.shape[axis]
    if start < 0 or length < 0 or start + length > n:
        raise ValueError(
            f"narrow: [{start}:{start + length}] out of bounds for axis {axis} "
            f"of shape {a.value.shape}"
        )
    idx = tuple(
        slice(start, start + length) if ax == axis else slice(None)
        for ax in range(a.value.ndim)
    )
    shape = a.value.shape

    def back(g):
        out = np.zeros(shape)
        out[idx] = g
        return (out,)

    return _make(a.value[idx], (a,), back)


def reshape(a, shape):
    orig = a.value.shape
    value = a.value.reshape(shape)

    def back(g):
        return (g.reshape(orig),)

    return _make(value, (a,), back)


# ---------------------------------------------------------------------------
# reductions

def sum_(a, axis=None):
    shape = a.value.shape

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _make(a.value.sum(axis=axis), (a,), back)


def mean_(a, axis=None):
    shape = a.value.shape
    count = a.value.size if axis is None else shape[axis]

    def back(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape).copy(),)

    return _make(a.value.mean(axis=axis), (a,), back)


# ---------------------------------------------------------------------------
# fused classification loss

def softmax_cross_entropy(logits, labels):
    """Cross entropy of softmax(logits) against integer labels.

    logits: (B, C) with labels (B,) -> per-sample losses (B,);
    logits (C,) with a scalar label -> scalar loss.
    The softmax and log are fused for numerical stability.
    """
    v = logits.value
    single = v.ndim == 1
    mat = v[None, :] if single else v
    if mat.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: logits must be 1-D or 2-D, got {v.shape}")
    lab = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if lab.shape != (mat.shape[0],):
        raise ValueError(
            f"softmax_cross_entropy: labels {lab.shape} do not match logits {v.shape}"
        )
    if np.any(lab < 0) or np.any(lab >= mat.shape[1]):
        raise ValueError("softmax_cross_entropy: label out of range")

    m = mat.max(axis=1, keepdims=True)
    shifted = mat - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True)) + m
    losses = lse[:, 0] - mat[np.arange(mat.shape[0]), lab]
    probs = np.exp(mat - lse)

    def back(g):
        gb = np.atleast_1d(g)
        d = probs.copy()
        d[np.arange(d.shape[0]), lab] -= 1.0
        d *= gb[:, None]
        return (d[0] if single else d,)

    value = losses[0] if single else losses
    return _make(np.asarray(value), (logits,), back)


# ---------------------------------------------------------------------------
# fused layers: one node each, with hand-written adjoints that repeat the
# arithmetic of the equivalent primitive-op graph

def _check_dense(op, sx, sw, sb):
    """Check the shapes of x @ w + b: (B, k) @ (k, n) + (n,)."""
    if len(sx) != 2 or len(sw) != 2 or sx[1] != sw[0] or sb != sw[1:]:
        raise ValueError(
            f"{op}: shapes {sx} @ {sw} + {sb} do not align; "
            "need (B, k) @ (k, n) + (n,)"
        )


def linear(x, w, b):
    """x (B, k) @ w (k, n) + b (n,) -> (B, n)."""
    vx, vw = x.value, w.value
    _check_dense("linear", vx.shape, vw.shape, b.value.shape)

    def back(g):
        gx = g @ vw.T if x.requires else None
        return gx, vx.T @ g, g.sum(axis=0)

    return _make(vx @ vw + b.value, (x, w, b), back)


def _join(op, blocks):
    """Column blocks (nodes or data arrays, each (B, k_i)) -> the joined
    (B, sum k_i) input, the node blocks and each one's column span."""
    vals = [blk.value if isinstance(blk, Node) else _as_f64(blk)
            for blk in blocks]
    if not vals or any(v.ndim != 2 or v.shape[0] != vals[0].shape[0]
                       for v in vals):
        raise ValueError(
            f"{op}: input blocks {[v.shape for v in vals]} must be "
            "(B, k_i) with one B"
        )
    nodes, spans = [], []
    end = 0
    for blk, v in zip(blocks, vals):
        if isinstance(blk, Node):
            nodes.append(blk)
            spans.append((end, end + v.shape[1]))
        end += v.shape[1]
    x = vals[0] if len(vals) == 1 else np.concatenate(vals, axis=1)
    return x, tuple(nodes), spans


def _check_stack(op, shape, layers):
    """Check that a (B, k) input of `shape` feeds the dense stack `layers`;
    returns the shape of its output."""
    for w, b in layers:
        _check_dense(op, shape, w.value.shape, b.value.shape)
        shape = (shape[0], w.value.shape[1])
    return shape


def _dense(x, layers, out_tanh):
    """Activations of a dense stack that _check_stack has passed: the input
    of each layer, then the output.  tanh follows every layer but the last,
    the last too when out_tanh."""
    last = len(layers) - 1
    acts = [x]
    for i, (w, b) in enumerate(layers):
        h = acts[-1] @ w.value + b.value
        acts.append(np.tanh(h) if i < last or out_tanh else h)
    return acts


def _dense_back(g, acts, layers, out_tanh, need_x):
    """Given the adjoint g of a dense stack's output: the adjoint of its
    joined input (None unless need_x) and the adjoint of each layer's
    pre-activation, first layer first."""
    last = len(layers) - 1
    deltas = [None] * len(layers)
    for i in range(last, -1, -1):
        if i < last or out_tanh:
            t = acts[i + 1]
            g = g * (1.0 - t * t)
        deltas[i] = g
        g = g @ layers[i][0].value.T if i or need_x else None
    return g, deltas


def _weight_grads(inputs, deltas):
    """Adjoints of w0, b0, w1, b1, ... from each layer's input and
    pre-activation adjoint; the rows may stack many evaluations."""
    grads = []
    for x, d in zip(inputs, deltas):
        grads += [x.T @ d, d.sum(axis=0)]
    return grads


def _weights(layers):
    return tuple(n for pair in layers for n in pair)


def mlp(blocks, layers, out_tanh=False):
    """Dense stack over the column blocks of its input; `layers` is a list
    of (w, b) nodes.

    blocks (nodes or data arrays, each (B, k_i)) are joined side by side
    inside the node, so the first layer is one matmul; each node block
    gets its own slice of the input adjoint.  Every layer but the last is
    followed by tanh, the last one too when out_tanh.  The node's parents
    are the node blocks, then w0, b0, w1, b1, ...
    """
    x, nodes, spans = _join("mlp", blocks)
    _check_stack("mlp", x.shape, layers)
    acts = _dense(x, layers, out_tanh)

    def back(g):
        gx, deltas = _dense_back(g, acts, layers, out_tanh,
                                 any(n.requires for n in nodes))
        return ([None if gx is None else gx[:, a:b] for a, b in spans]
                + _weight_grads(acts, deltas))

    return _make(acts[-1], nodes + _weights(layers), back)


def mse(pred, target, weights=None):
    """Mean squared error of pred (B, D) against data target (B, D): the
    mean over channels, then the mean over the batch, or with weights
    (B,) the weighted mean over the batch.  -> scalar node."""
    vp = pred.value
    t = _as_f64(target)
    if vp.ndim != 2 or t.shape != vp.shape:
        raise ValueError(
            f"mse: prediction {vp.shape} and target {t.shape} must be "
            "one (B, D) shape"
        )
    diff = vp - t
    per = (diff * diff).mean(axis=1)
    if weights is None:
        scale = None
        value = per.mean()
    else:
        w = _as_f64(weights)
        if w.shape != per.shape:
            raise ValueError(
                f"mse: weights {w.shape} do not match batch {per.shape}")
        total = w.sum()
        if total <= 0:
            raise ValueError("no available targets in this term")
        scale = w / total
        value = (per * scale).sum()

    def back(g):
        if scale is None:
            d_per = np.broadcast_to(g / per.size, per.shape)
        else:
            d_per = g * scale
        return (2.0 * diff * (d_per[:, None] / vp.shape[1]),)

    return _make(np.asarray(value), (pred,), back)


def gru_step(prev, x, wx, wh, b):
    """GRU cell with fused gate weights; prev (B, H), x (B, k) -> (B, H).

    wx (k, 3H), wh (H, 3H) and b (3H,) hold the reset, update and
    candidate blocks side by side.  With px = x @ wx + b, ph = prev @ wh:
    r = sigmoid(px_r + ph_r), u = sigmoid(px_u + ph_u),
    cand = tanh(px_c + r * ph_c), next = u * prev + (1 - u) * cand.
    """
    vp, vx, vwh = prev.value, x.value, wh.value
    _check_dense("gru_step", vx.shape, wx.value.shape, b.value.shape)
    _check_dense("gru_step", vp.shape, vwh.shape, b.value.shape)
    h = vp.shape[1]
    if wx.value.shape[1] != 3 * h or vx.shape[0] != vp.shape[0]:
        raise ValueError(
            f"gru_step: state {vp.shape} and input {vx.shape} do not match "
            f"gate weights {wx.value.shape} and {vwh.shape}"
        )
    px = vx @ wx.value + b.value
    ph = vp @ vwh
    r = expit(px[:, :h] + ph[:, :h])
    u = expit(px[:, h:2 * h] + ph[:, h:2 * h])
    ph_c = ph[:, 2 * h:]
    cand = np.tanh(px[:, 2 * h:] + r * ph_c)
    keep = 1.0 - u

    def back(g):
        d_pre_c = g * keep * (1.0 - cand * cand)
        d_pre_u = (g * vp - g * cand) * u * (1.0 - u)
        d_pre_r = d_pre_c * ph_c * r * (1.0 - r)
        d_px = np.concatenate([d_pre_r, d_pre_u, d_pre_c], axis=1)
        d_ph = np.concatenate([d_pre_r, d_pre_u, d_pre_c * r], axis=1)
        d_prev = g * u + d_ph @ vwh.T
        d_x = d_px @ wx.value.T if x.requires else None
        return d_prev, d_x, vx.T @ d_px, vp.T @ d_ph, d_px.sum(axis=0)

    return _make(u * vp + keep * cand, (prev, x, wx, wh, b), back)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss):
    """Accumulate adjoints of `loss` into every reachable differentiable node.

    loss must be scalar.  Its own adjoint is 1; leaves that do not
    influence the loss keep grad None (read them as zeros).
    """
    if loss.value.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    loss.grad = np.asarray(1.0)
    if not loss.requires:
        return

    # Iterative reachability walk; recursion would overflow on deep graphs.
    seen = {loss.id}
    order = [loss]
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node.parents:
            if p.requires and p.id not in seen:
                seen.add(p.id)
                order.append(p)
                stack.append(p)

    order.sort(key=lambda n: n.id, reverse=True)
    for node in order:
        if node._back is None or node.grad is None:
            continue
        grads = node._back(node.grad)
        for parent, g in zip(node.parents, grads):
            if not parent.requires or g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
