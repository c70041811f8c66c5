"""Fixed-step differentiable ODE solvers (euler, rk4).

Gradients are the exact derivative of the discrete scheme (discretize
then optimize).  Each interval between requested evaluation times is
covered by `substeps` uniform steps.  Interval endpoints may be floats or
(B, 1) arrays, which lets a batch of series with different clocks
integrate in lockstep; time enters the derivative in the same form.

integrate_span takes one of two kinds of derivative:

* a callback f(h, t) -> Node, whose stages are unrolled onto the autodiff
  tape by _step, one node per evaluation and per update (ode_solve);
* a DenseField, a dense stack over [h, u, t] (the models' vector fields),
  integrated by _field_span as one tape node per interval.  Its forward
  runs on plain arrays in _step's arithmetic order, so its values equal
  the unrolled graph's bit for bit; it keeps the stage activations only
  when a parent needs a gradient, and its adjoint walks the stages in
  reverse through autodiff's dense-stack backward.

span_steps is the one place that lays out steps and stage times: both
integrators walk it, and the cde backend of ContinuousModel reads it
ahead of integration to evaluate its spline derivative at every stage
time in one weight matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

METHODS = ("euler", "rk4")


class BlowupError(FloatingPointError):
    """Raised when the state stops being finite; carries the time."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"non-finite state at t={t}")


@dataclass
class TimeGrid:
    """Strictly increasing evaluation times plus per-interval substeps."""

    eval_times: list
    substeps: int = 10

    def __post_init__(self):
        self.eval_times = [float(t) for t in self.eval_times]
        if len(self.eval_times) < 2:
            raise ValueError("TimeGrid needs at least two evaluation times")
        if any(b <= a for a, b in zip(self.eval_times, self.eval_times[1:])):
            raise ValueError("TimeGrid times must be strictly increasing")
        if self.substeps < 1:
            raise ValueError("TimeGrid substeps must be >= 1")


@dataclass
class Trajectory:
    times: list
    states: list = field(repr=False)


def _rep(t):
    # representative float for blow-up reporting when t is an array
    return float(np.min(t)) if isinstance(t, np.ndarray) else float(t)


def _check_finite(state, t):
    if not np.all(np.isfinite(state)):
        raise BlowupError(_rep(t))


def span_steps(t0, t1, substeps, method, interior=()):
    """The steps integrate_span takes from t0 to t1, in order.

    Yields (dt, stage times, end time) per step; the stage times are where
    the scheme evaluates f, in call order: (a,) for euler and
    (a, a + dt/2, a + dt/2, a + dt) for rk4.  integrate_span walks exactly
    these steps, and ContinuousModel's cde backend reads them to build its
    spline-derivative rows before integrating, so the two cannot drift.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if not isinstance(t0, np.ndarray):
        cuts = sorted(set(np.linspace(t0, t1, substeps + 1)[1:-1]).union(interior))
        points = [t0, *cuts, t1]
    else:
        if interior:
            raise ValueError("interior sampling requires scalar interval times")
        fracs = np.linspace(0.0, 1.0, substeps + 1)
        points = [t0 + (t1 - t0) * fr for fr in fracs]
    for a, b in zip(points, points[1:]):
        dt = b - a
        if method == "euler":
            yield dt, (a,), b
        else:
            tm = a + dt / 2.0
            yield dt, (a, tm, tm, a + dt), b


def _step(f, h, dt, ts, method):
    if method == "euler":
        return ad.add_scaled(h, f(h, ts[0]), dt)
    k1 = f(h, ts[0])
    k2 = f(ad.add_scaled(h, k1, dt / 2.0), ts[1])
    k3 = f(ad.add_scaled(h, k2, dt / 2.0), ts[2])
    k4 = f(ad.add_scaled(h, k3, dt), ts[3])
    acc = ad.add_scaled(ad.add(k1, k4), ad.add(k2, k3), 2.0)
    return ad.add_scaled(h, acc, dt / 6.0)


class DenseField:
    """A vector field that integrate_span evaluates inside one tape node.

    The field is a dense stack, with autodiff.mlp's arithmetic, over the
    joined input [h, u, t]: u is an optional (B, D_u) node held constant
    across the span and t is the stage time as a data column.  Without
    rows, f(h, t) is the stack's output (the ode_rnn's mlp([h, u, t])).
    With rows, a (B, S, c) node, the stack's (B, n * c) output is read as
    (B, n, c) matrices and the s-th stage the span visits multiplies row
    first_row + s (the cde's F([h, t]) dU/dt).
    """

    def __init__(self, layers, out_tanh=False, u=None, rows=None,
                 first_row=0):
        self.layers = list(layers)
        self.out_tanh = out_tanh
        self.u = u
        self.rows = rows
        self.first_row = first_row

    def parents(self, h):
        """The fused node's parents: h, u, w0, b0, w1, b1, ..., rows."""
        extra = (self.u,) if self.u is not None else ()
        tail = (self.rows,) if self.rows is not None else ()
        return (h, *extra, *(n for pair in self.layers for n in pair), *tail)

    def check(self, h, row, n_stages):
        """Validate the shapes the stages from `row` on will meet, once per
        span."""
        vh = h.value
        blocks = [vh] if self.u is None else [vh, self.u.value]
        if any(v.ndim != 2 or v.shape[0] != vh.shape[0] for v in blocks):
            raise ValueError(f"integrate_span: state and action "
                             f"{[v.shape for v in blocks]} must be (B, k_i) "
                             "with one B")
        joined = (vh.shape[0], sum(v.shape[1] for v in blocks) + 1)
        width = ad._check_stack("integrate_span", joined, self.layers)[1]
        if self.rows is not None:
            vr = self.rows.value
            if (vr.ndim != 3 or vr.shape[0] != vh.shape[0]
                    or width % vr.shape[2] or row < 0
                    or row + n_stages > vr.shape[1]):
                raise ValueError(
                    f"integrate_span: field output width {width} and rows "
                    f"{row}..{row + n_stages - 1} of {vr.shape} do not "
                    "align")
            width //= vr.shape[2]
        if width != vh.shape[1]:
            raise ValueError(f"integrate_span: field output width {width} "
                             f"does not match state {vh.shape}")

    def eval(self, y, t, row, records):
        """f at state y (B, H) and stage time t, reading `row` of rows.
        The stage's activations, which the adjoint needs, go into
        `records` unless that is None; nothing else outlives the call."""
        b = y.shape[0]
        if isinstance(t, np.ndarray):
            tcol = np.broadcast_to(t.reshape(-1, 1), (b, 1))
        else:
            tcol = np.full((b, 1), float(t))
        blocks = (y, tcol) if self.u is None else (y, self.u.value, tcol)
        acts = ad._dense(np.concatenate(blocks, axis=1), self.layers,
                         self.out_tanh)
        if records is not None:
            records.append(acts)
        if self.rows is None:
            return acts[-1]
        vr = self.rows.value
        mat = acts[-1].reshape(b, -1, vr.shape[2])
        return np.einsum("bnk,bk->bn", mat, vr[:, row])


class _Adjoints:
    """The reverse walk's running adjoints over one span's stages.

    stage() turns one stage's output adjoint into its state input's and
    keeps what the parameter adjoints need; grads() then forms those with
    one stacked matmul per layer instead of one per stage.
    """

    def __init__(self, field, n_h):
        self.field = field
        self.n_h = n_h
        self.inputs = [[] for _ in field.layers]
        self.deltas = [[] for _ in field.layers]
        self.u = []
        rows = field.rows
        self.rows = (np.zeros(rows.value.shape)
                     if rows is not None and rows.requires else None)

    def stage(self, g, acts, row):
        """The adjoint of a stage's state input given its output's g; acts
        are the stage's activations."""
        field = self.field
        if field.rows is not None:
            vr = field.rows.value
            if self.rows is not None:
                mat = acts[-1].reshape(g.shape[0], -1, vr.shape[2])
                self.rows[:, row] = np.einsum("bnk,bn->bk", mat, g)
            g = (g[:, :, None] * vr[:, row, None, :]).reshape(acts[-1].shape)
        gx, deltas = ad._dense_back(g, acts, field.layers, field.out_tanh,
                                    True)
        for inputs, x, kept, d in zip(self.inputs, acts, self.deltas, deltas):
            inputs.append(x)
            kept.append(d)
        if field.u is not None and field.u.requires:
            self.u.append(gx[:, self.n_h:-1])
        return gx[:, :self.n_h]

    def grads(self):
        """Adjoints of u (if the field has it), w0, b0, w1, b1, ... and rows
        (if the field has them)."""
        field = self.field
        weights = ad._weight_grads([np.concatenate(x) for x in self.inputs],
                                   [np.concatenate(d) for d in self.deltas])
        head = () if field.u is None else (
            np.sum(self.u, axis=0) if field.u.requires else None,)
        tail = () if field.rows is None else (self.rows,)
        return (*head, *weights, *tail)


def _field_steps(field, hv, steps, method, row, keep):
    """Plain-array forward over `steps` from state hv, in _step's order.

    Returns the end state and, when keep, one (dt, first row, stage
    records) entry per step for the adjoint; raises BlowupError at the end
    time of the first step whose state is not finite.
    """
    tape = []
    for dt, ts, b in steps:
        recs = [] if keep else None
        if method == "euler":
            out = hv + field.eval(hv, ts[0], row, recs) * dt
        else:
            half = dt / 2.0
            k1 = field.eval(hv, ts[0], row, recs)
            k2 = field.eval(hv + k1 * half, ts[1], row + 1, recs)
            k3 = field.eval(hv + k2 * half, ts[2], row + 2, recs)
            k4 = field.eval(hv + k3 * dt, ts[3], row + 3, recs)
            out = hv + ((k1 + k4) + (k2 + k3) * 2.0) * (dt / 6.0)
        _check_finite(out, b)
        if keep:
            tape.append((dt, row, recs))
        row += len(ts)
        hv = out
    return hv, tape


def _field_span(field, h, steps, method, row):
    """Integrate `steps` from node h under a DenseField as one tape node.
    Returns (end state node, the row after the span's last stage)."""
    n_stages = sum(len(ts) for _, ts, _ in steps)
    field.check(h, row, n_stages)
    parents = field.parents(h)
    keep = ad.grad_enabled() and any(p.requires for p in parents)
    value, tape = _field_steps(field, h.value, steps, method, row, keep)
    if not keep:
        return ad.Node(value), row + n_stages

    def back(g):
        # _step's graph in reverse: add_scaled(a, b, c) passes g to a and
        # g * c to b, and add passes g to both operands
        adj = _Adjoints(field, h.value.shape[1])
        for dt, r, recs in reversed(tape):
            if method == "euler":
                g = g + adj.stage(g * dt, recs[0], r)
                continue
            half = dt / 2.0
            ga = g * (dt / 6.0)
            g23 = ga * 2.0
            gy4 = adj.stage(ga, recs[3], r + 3)
            gy3 = adj.stage(g23 + gy4 * dt, recs[2], r + 2)
            gy2 = adj.stage(g23 + gy3 * half, recs[1], r + 1)
            gy1 = adj.stage(ga + gy2 * half, recs[0], r)
            g = g + gy4 + gy3 + gy2 + gy1
        return (g if h.requires else None, *adj.grads())

    return ad.Node(value, parents, back, requires=True), row + n_stages


def integrate_span(f, h, t0, t1, substeps, method, interior=()):
    """Advance h from t0 to t1; also report states at `interior` times.

    f is a callback f(h, t) -> Node, unrolled stage by stage, or a
    DenseField, integrated as one node from t0 to t1 (one node per piece
    between reported times when interior is given).  interior must be
    sorted and strictly inside (t0, t1); it is honored by splitting
    substeps at those exact times, so reported states carry no
    interpolation error beyond the scheme itself.  Returns
    (list of (t, state) for interior times, end state).
    """
    wanted = set(interior)
    out = []
    steps = span_steps(t0, t1, substeps, method, interior)
    if isinstance(f, DenseField):
        piece, row = [], f.first_row
        for step in steps:
            piece.append(step)
            if wanted and step[2] in wanted:
                h, row = _field_span(f, h, piece, method, row)
                out.append((step[2], h))
                piece = []
        return out, _field_span(f, h, piece, method, row)[0]
    for dt, ts, b in steps:
        h = _step(f, h, dt, ts, method)
        _check_finite(h.value, b)
        if wanted and b in wanted:
            out.append((b, h))
    return out, h


def ode_solve(derivative, h0, grid, method="rk4"):
    """Integrate dh/dt = derivative(h, t) across grid.eval_times.

    h0 may be a Node or an array; states[k] is the solution at
    eval_times[k], with states[0] == h0.
    """
    h = h0 if isinstance(h0, ad.Node) else ad.constant(h0)
    _check_finite(h.value, grid.eval_times[0])
    states = [h]
    for a, b in zip(grid.eval_times, grid.eval_times[1:]):
        _, h = integrate_span(derivative, h, a, b, grid.substeps, method)
        states.append(h)
    return Trajectory(times=list(grid.eval_times), states=states)
