"""Finite-difference verification of analytic gradients.

The oracle is a central difference with step 1e-5 in float64; analytic
adjoints must agree within relative error 1e-4.  check_function perturbs
one flat input vector; the component suites below wire up every tape op
and every composed model so the same gate runs in tests and in the CLI.

The relative error's denominator has a floor for near-zero coordinates.
The central difference carries a rounding error of about |f|*eps/step,
so the floor is max(1e-8, 4*|f(x0)|*eps/(step*tol)): that rounding alone
then costs at most tol/4, while a wrong gradient of any size above the
rounding still fails.
"""

import numpy as np

from . import autodiff as ad
from .odesolve import DenseField, integrate_span

STEP = 1e-5
TOL = 1e-4


class GradCheckError(AssertionError):
    pass


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def check_function(f, x0, step=STEP, tol=TOL, corrupt=1.0, name="f"):
    """Compare analytic gradient of scalar f against central differences.

    f maps a flat float64 vector wrapped as a leaf Node to a scalar Node.
    `corrupt` scales the analytic gradient before comparison; the harness
    self-test sets it to 1.01 to prove a broken rule is caught.
    Returns the maximum relative error over all coordinates.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    lf = ad.leaf(x0.copy())
    out = f(lf)
    ad.backward(out)
    grad = np.zeros_like(x0) if lf.grad is None else lf.grad.copy()
    grad = grad * corrupt
    eps = np.finfo(np.float64).eps
    floor = max(1e-8, 4.0 * abs(float(out.value)) * eps / (step * tol))

    worst = 0.0
    worst_i = -1
    for i in range(x0.size):
        xp = x0.copy()
        xp.flat[i] += step
        xm = x0.copy()
        xm.flat[i] -= step
        with ad.no_grad():
            fp = float(f(ad.constant(xp)).value)
            fm = float(f(ad.constant(xm)).value)
        fd = (fp - fm) / (2.0 * step)
        e = rel_err(grad.flat[i], fd, floor)
        if e > worst:
            worst, worst_i = e, i
    if worst > tol:
        raise GradCheckError(
            f"gradient check failed for {name}: coordinate {worst_i} "
            f"rel err {worst:.3e} > {tol:.0e}"
        )
    return worst


# ---------------------------------------------------------------------------
# op-level suite

def _scalarize(node):
    return ad.sum_(node) if node.value.shape != () else node


def op_checks(seed=0):
    """(name, function, x0) triples covering every registered tape op."""
    rng = np.random.default_rng(seed)
    a23 = rng.normal(size=(2, 3))
    b23 = rng.normal(size=(2, 3))
    w34 = rng.normal(size=(3, 4))
    mix = rng.normal(size=(5, 2))
    bm_vec = rng.normal(size=(2, 4))
    bm_mat = rng.normal(size=(2, 3, 4))

    checks = [
        ("add", lambda x: _scalarize(ad.add(ad.reshape(x, (2, 3)), ad.constant(b23))), a23.ravel()),
        ("add_broadcast", lambda x: _scalarize(ad.add(ad.constant(a23), ad.reshape(x, (3,)))), rng.normal(size=3)),
        ("sub", lambda x: _scalarize(ad.sub(ad.reshape(x, (2, 3)), ad.constant(b23))), a23.ravel()),
        ("mul", lambda x: _scalarize(ad.mul(ad.reshape(x, (2, 3)), ad.constant(b23))), a23.ravel()),
        ("neg", lambda x: _scalarize(ad.neg(x)), rng.normal(size=4)),
        ("add_const", lambda x: _scalarize(ad.add_const(x, 2.5)), rng.normal(size=4)),
        ("mul_const", lambda x: _scalarize(ad.mul_const(x, -1.7)), rng.normal(size=4)),
        ("matmul", lambda x: _scalarize(ad.matmul(ad.reshape(x, (2, 3)), ad.constant(w34))), a23.ravel()),
        ("matmul_rhs", lambda x: _scalarize(ad.matmul(ad.constant(a23), ad.reshape(x, (3, 4)))), w34.ravel()),
        ("matmul_vec", lambda x: _scalarize(ad.matmul(ad.constant(a23), x)), rng.normal(size=3)),
        ("matmul_vec_left", lambda x: _scalarize(ad.matmul(x, ad.constant(w34))), rng.normal(size=3)),
        ("matmul_batched", lambda x: _scalarize(ad.matmul(ad.constant(mix), ad.reshape(x, (4, 2, 3)))), rng.normal(size=24)),
        ("bmatvec", lambda x: _scalarize(ad.bmatvec(ad.reshape(x, (2, 3, 4)), ad.constant(bm_vec))), rng.normal(size=24)),
        ("bmatvec_vec", lambda x: _scalarize(ad.bmatvec(ad.constant(bm_mat), ad.reshape(x, (2, 4)))), rng.normal(size=8)),
        ("tanh", lambda x: _scalarize(ad.tanh(x)), rng.normal(size=5)),
        ("relu", lambda x: _scalarize(ad.relu(x)), rng.normal(size=5) + 0.3),
        ("sigmoid", lambda x: _scalarize(ad.sigmoid(x)), rng.normal(size=5)),
        ("log", lambda x: _scalarize(ad.log(x)), rng.uniform(0.5, 2.0, size=5)),
        ("square", lambda x: _scalarize(ad.square(x)), rng.normal(size=5)),
        ("concat", lambda x: _scalarize(ad.concat([ad.reshape(x, (2, 3)), ad.constant(b23)], axis=1)), a23.ravel()),
        ("narrow", lambda x: _scalarize(ad.square(ad.narrow(ad.reshape(x, (2, 3)), 1, 1, 2))), a23.ravel()),
        ("reshape", lambda x: _scalarize(ad.square(ad.reshape(x, (3, 2)))), a23.ravel()),
        ("sum", lambda x: ad.sum_(ad.square(x)), rng.normal(size=6)),
        ("sum_axis", lambda x: ad.sum_(ad.square(ad.sum_(ad.reshape(x, (2, 3)), axis=0))), a23.ravel()),
        ("mean", lambda x: ad.mean_(ad.square(x)), rng.normal(size=6)),
        ("mean_axis", lambda x: ad.sum_(ad.square(ad.mean_(ad.reshape(x, (2, 3)), axis=1))), a23.ravel()),
        ("softmax_cross_entropy",
         lambda x: ad.mean_(ad.softmax_cross_entropy(ad.reshape(x, (4, 3)), np.array([0, 2, 1, 1]))),
         rng.normal(size=12)),
        ("softmax_cross_entropy_single",
         lambda x: ad.softmax_cross_entropy(x, 1), rng.normal(size=3)),
    ]
    # fused ops: one check per differentiated input, named op_input; the
    # first input's check carries the op's own name
    dense = [rng.normal(size=(3, 4)), rng.normal(size=4),
             rng.normal(size=(4, 2)), rng.normal(size=2)]
    checks += _per_input("add_scaled", lambda a, b: ad.add_scaled(a, b, -1.7),
                         ["a", "b"], [a23, b23])
    checks += _per_input("linear", ad.linear, ["x", "w", "b"],
                         [a23, w34, rng.normal(size=4)])
    checks += _per_input("mlp", lambda x, *wb: ad.mlp([x], _pairs(wb)),
                         ["x", "w0", "b0", "w1", "b1"], [a23] + dense)
    checks += _per_input("mlp_out_tanh",
                         lambda x, *wb: ad.mlp([x], _pairs(wb), out_tanh=True),
                         ["x", "w0", "b0", "w1", "b1"], [a23] + dense)
    # two node blocks and a data column make up the (2, 3) input
    col = rng.normal(size=(2, 1))
    checks += _per_input("mlp_blocks",
                         lambda x0, x1, *wb: ad.mlp([x0, x1, col], _pairs(wb)),
                         ["x0", "x1", "w0", "b0", "w1", "b1"],
                         [a23[:, :1], a23[:, 1:2]] + dense)
    # odesolve's DenseField integration, one node per span: a (2, 2) state
    # under a width-3 stack over [h, u, t] (the ode_rnn field), and under
    # the cde field, whose (2, 4) output is read as 2 x 2 matrices against
    # its four stage rows
    checks += _per_input("mlp_field",
                         lambda h, u, *wb: _rk4_step(
                             DenseField(_pairs(wb), u=u), h),
                         ["h", "u", "w0", "b0", "w1", "b1"],
                         [rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                          rng.normal(size=(5, 3)), rng.normal(size=3),
                          rng.normal(size=(3, 2)), rng.normal(size=2)])
    checks += _per_input("cde_field",
                         lambda h, *wb_rows: _rk4_step(DenseField(
                             _pairs(wb_rows[:-1]), out_tanh=True,
                             rows=wb_rows[-1]), h),
                         ["h", "w0", "b0", "w1", "b1", "rows"],
                         [rng.normal(size=(2, 2)), rng.normal(size=(3, 3)),
                          rng.normal(size=3), rng.normal(size=(3, 4)),
                          rng.normal(size=4), rng.normal(size=(2, 4, 2))])
    checks += _per_input("mse", lambda x: ad.mse(x, b23), ["pred"], [a23])
    checks += _per_input("mse_weighted",
                         lambda x: ad.mse(x, b23, np.array([0.25, 1.0])),
                         ["pred"], [a23])
    checks += _per_input("gru_step", ad.gru_step,
                         ["prev", "x", "wx", "wh", "b"],
                         [rng.normal(size=(2, 4)), a23,
                          rng.normal(size=(3, 12)), rng.normal(size=(4, 12)),
                          rng.normal(size=12)])
    return checks


def _rk4_step(field, h):
    """One rk4 step of `field` from h across [0.2, 0.7]: one node."""
    return integrate_span(field, h, 0.2, 0.7, 1, "rk4")[1]


def _pairs(flat):
    return list(zip(flat[::2], flat[1::2]))


def _per_input(name, op, inputs, values):
    """One check per input of `op`: that input is probed, the others stay
    constants.  The loss squares the output so its adjoint is not uniform."""
    out = []
    for i, (label, v) in enumerate(zip(inputs, values)):
        def f(x, i=i):
            args = [ad.constant(u) for u in values]
            args[i] = ad.reshape(x, values[i].shape)
            return ad.sum_(ad.square(op(*args)))

        out.append((name if i == 0 else f"{name}_{label}", f, v.ravel()))
    return out


def run_ops(seed=0, corrupt_op=None):
    """Run the op suite; returns {name: max rel err}.  Raises on failure."""
    results = {}
    for name, f, x0 in op_checks(seed):
        factor = 1.01 if corrupt_op is not None and name == corrupt_op else 1.0
        results[name] = check_function(f, x0, corrupt=factor, name=name)
    return results


# ---------------------------------------------------------------------------
# composed-model suites (wired by higher modules to avoid import cycles)

_COMPONENTS = {}


def register(name, runner):
    _COMPONENTS[name] = runner


def component_names():
    return ["ops"] + sorted(_COMPONENTS)


def run_component(name, seed=0, corrupt_op=None):
    if name == "ops":
        return run_ops(seed, corrupt_op)
    if name not in _COMPONENTS:
        raise KeyError(f"unknown grad-check component {name!r}")
    return _COMPONENTS[name](seed)


def run_all(seed=0):
    out = {}
    for name in component_names():
        res = run_component(name, seed)
        for k, v in res.items():
            out[f"{name}.{k}"] = v
    return out
