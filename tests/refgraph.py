"""Reference graphs for the fused-op equivalence tests.

The fused ops of npc.autodiff and odesolve's one-node interval replace
graphs of smaller ops that the package itself never builds.  This module
builds those smaller ops from ad.Node with hand-written adjoints, so the
tests can still compare each fused op, value and every input's gradient,
against the graph it replaces:

* sub, mul, one_minus (1 - x), sigmoid and bmatvec, one node each;
* unrolled_span, an rk4 or euler span over odesolve.span_steps with the
  derivative f(h, t) -> Node unrolled one node per evaluation and per
  update.  Its updates are ad.add over ad.mul_const, the same arithmetic
  in the same order as the DenseField forward, so the two agree bit for
  bit.

The ops do not broadcast: operands of sub and mul share one shape.
tests/test_autodiff.py puts every op here through
gradcheck.check_function.
"""

import numpy as np
from scipy.special import expit

import npc.autodiff as ad
from npc.odesolve import span_steps


def _node(value, parents, back):
    if ad.grad_enabled() and any(p.requires for p in parents):
        return ad.Node(value, tuple(parents), back, requires=True)
    return ad.Node(value)


def sub(a, b):
    return _node(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a, b):
    va, vb = a.value, b.value
    return _node(va * vb, (a, b), lambda g: (g * vb, g * va))


def one_minus(a):
    return _node(1.0 - a.value, (a,), lambda g: (-g,))


def sigmoid(a):
    s = expit(a.value)
    return _node(s, (a,), lambda g: (g * s * (1.0 - s),))


def bmatvec(a, x):
    """Batched matrix-vector product: (B, n, k) @ (B, k) -> (B, n)."""
    va, vx = a.value, x.value

    def back(g):
        return (np.einsum("bn,bk->bnk", g, vx),
                np.einsum("bnk,bn->bk", va, g))

    return _node(np.einsum("bnk,bk->bn", va, vx), (a, x), back)


def _axpy(a, b, c):
    """a + b * c for data c: two nodes."""
    return ad.add(a, ad.mul_const(b, c))


def unrolled_span(f, h, t0, t1, substeps, method, interior=()):
    """integrate_span's steps with f(h, t) -> Node unrolled on the tape.
    Returns (list of (t, state) for interior times, end state)."""
    wanted = set(interior)
    out = []
    for dt, ts, b in span_steps(t0, t1, substeps, method, interior):
        if method == "euler":
            h = _axpy(h, f(h, ts[0]), dt)
        else:
            k1 = f(h, ts[0])
            k2 = f(_axpy(h, k1, dt / 2.0), ts[1])
            k3 = f(_axpy(h, k2, dt / 2.0), ts[2])
            k4 = f(_axpy(h, k3, dt), ts[3])
            acc = _axpy(ad.add(k1, k4), ad.add(k2, k3), 2.0)
            h = _axpy(h, acc, dt / 6.0)
        if wanted and b in wanted:
            out.append((b, h))
    return out, h
