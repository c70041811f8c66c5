"""Fixed-step differentiable ODE solvers (euler, rk4).

Integration is unrolled onto the autodiff tape, so d(solution)/d(inputs)
is the exact derivative of the discrete scheme (discretize then optimize).
Each interval between requested evaluation times is covered by `substeps`
uniform steps.  Interval endpoints may be floats or (B, 1) arrays, which
lets a batch of series with different clocks integrate in lockstep; time
enters the derivative callback in the same form.

span_steps is the one place that lays out steps and stage times:
integrate_span walks it, and the cde backend of ContinuousModel reads it
ahead of integration to evaluate its spline derivative at every stage
time in one weight matrix.  _step is the only RK4 on the tape.
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
    if not np.all(np.isfinite(state.value)):
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


def integrate_span(f, h, t0, t1, substeps, method, interior=()):
    """Advance h from t0 to t1; also report states at `interior` times.

    interior must be sorted and strictly inside (t0, t1); it is honored by
    splitting substeps at those exact times, so reported states carry no
    interpolation error beyond the scheme itself.  Returns
    (list of (t, state) for interior times, end state).
    """
    wanted = set(interior)
    out = []
    for dt, ts, b in span_steps(t0, t1, substeps, method, interior):
        h = _step(f, h, dt, ts, method)
        _check_finite(h, b)
        if wanted and b in wanted:
            out.append((b, h))
    return out, h


def ode_solve(derivative, h0, grid, method="rk4"):
    """Integrate dh/dt = derivative(h, t) across grid.eval_times.

    h0 may be a Node or an array; states[k] is the solution at
    eval_times[k], with states[0] == h0.
    """
    h = h0 if isinstance(h0, ad.Node) else ad.constant(h0)
    _check_finite(h, grid.eval_times[0])
    states = [h]
    for a, b in zip(grid.eval_times, grid.eval_times[1:]):
        _, h = integrate_span(derivative, h, a, b, grid.substeps, method)
        states.append(h)
    return Trajectory(times=list(grid.eval_times), states=states)
