"""Continuous-time hidden-state models driven by planned actions.

Two backends evolve a hidden state h across the action sequence's span:

* ode_rnn: between anchors, dh/dt = f(h, u_k, t) with the interval's
  action held constant; at each interval end a GRU jump folds in the next
  action.  f is an MLP with tanh hidden layers over the column blocks
  h, u and t.
* cde: the actions (with time appended as an extra channel) are knots of
  a natural cubic spline U(t); dh/dt = F(h, t) dU/dt where F maps the
  state to an H x (D_u + 1) matrix, bounded by a final tanh.

Each backend has one integration path: one interval is one
integrate_span call over an odesolve.DenseField, a single tape node for
every substep and stage of the interval (split only at interior query
times); evolve repeats it over the window and commit_step is the same
call on the first interval.  The cde evaluates its spline derivative once
per call, as one (B, S, D_u + 1) tape node of dU/dt rows at every stage
time the solver will visit (odesolve.span_steps lists them); each
interval reads its stages' rows from its first row on.  Gradients flow
into the actions (through the spline for the cde) and into the phi
parameters.
States are (B, H); interval times may be shared floats or per-series
(B, 1) arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .layers import GRUCell, Linear, MLP
from .odesolve import DenseField, integrate_span, span_steps
from .spline import CubicPath

BACKENDS = ("ode_rnn", "cde")


@dataclass
class ContinuousConfig:
    obs_dim: int
    action_dim: int
    hidden: int = 16
    backend: str = "ode_rnn"
    fdepth: int = 2              # hidden layers in the dynamics nets
    fwidth: int = 0              # 0 means 2 * hidden
    jumps: bool = True           # ode_rnn cell jumps at interval ends
    cde_tanh: bool = True        # bound the cde matrix output
    readout_dim: int = 2         # classes or observation dim

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.fwidth <= 0:
            self.fwidth = 2 * self.hidden
        if self.fdepth < 0:
            raise ValueError("fdepth must be >= 0")


@dataclass
class HiddenTrajectory:
    """States h(t_{i+1}) .. h(t_{i+M'}) for one window."""

    times: np.ndarray
    states: list = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.shape[-1] != len(self.states):
            raise ValueError(
                f"{len(self.states)} states need matching times, got {times.shape}"
            )
        self.times = times


class ContinuousModel:
    def __init__(self, cfg):
        self.cfg = cfg
        h, du = cfg.hidden, cfg.action_dim
        self.encoder = Linear("enc", cfg.obs_dim, h)
        dims = [h + du + 1] + [cfg.fwidth] * cfg.fdepth + [h]
        self.fnet = MLP("f", dims)
        self.jump_cell = GRUCell("jump", du, h)
        cde_dims = [h + 1] + [cfg.fwidth] * cfg.fdepth + [h * (du + 1)]
        self.cde_net = MLP("cde", cde_dims, out_tanh=cfg.cde_tanh)
        self.readout_layer = Linear("readout", h, cfg.readout_dim)

    def init(self, store, rng):
        self.encoder.init(store, "phi", rng)
        if self.cfg.backend == "ode_rnn":
            self.fnet.init(store, "phi", rng)
            self.jump_cell.init(store, "phi", rng)
        else:
            self.cde_net.init(store, "phi", rng)
        self.readout_layer.init(store, "phi", rng)

    # -- pieces --------------------------------------------------------------

    def encode_initial(self, store, x):
        """First observation (B, D) -> initial hidden state (B, H)."""
        x = x if isinstance(x, ad.Node) else ad.constant(x)
        return ad.tanh(self.encoder.apply(store, x))

    def readout(self, store, h):
        return self.readout_layer.apply(store, h)

    # -- integration -----------------------------------------------------------

    def evolve(self, store, h0, seq, substeps=10, method="rk4"):
        """Evolve h across the whole action window.

        h0: Node or array (B, H) at seq.anchor_times[0].  Returns a
        HiddenTrajectory with one post-transition state per horizon.
        """
        h = h0 if isinstance(h0, ad.Node) else ad.constant(h0)
        rates = self._spline_rates(seq, seq.horizon, substeps, method)
        states = []
        for k in range(seq.horizon):
            _, h = self._advance(store, h, seq, k, substeps, method, rates)
            states.append(h)
        return HiddenTrajectory(times=seq.anchor_times[..., 1:], states=states)

    def commit_step(self, store, h, seq, substeps=10, method="rk4", queries=()):
        """Advance the committed state across the window's first interval.

        Uses the emitted window exactly as the planner shaped it: the
        ode_rnn flows with the first action and jumps on the second; the
        cde integrates the window spline restricted to its first leg.
        queries are times strictly inside the interval at which pre-jump
        states are also reported (shared clocks only).  Returns
        (list of (t, state), end state).
        """
        rates = self._spline_rates(seq, 1, substeps, method, queries)
        return self._advance(store, h, seq, 0, substeps, method, rates, queries)

    def _interval_times(self, seq, k):
        times = seq.anchor_times
        if times.ndim == 1:
            return float(times[k]), float(times[k + 1])
        return times[:, k : k + 1], times[:, k + 1 : k + 2]

    def _advance(self, store, h, seq, k, substeps, method, rates, queries=()):
        """Integrate interval k; the cde reads its dU/dt rows from `rates`."""
        t0, t1 = self._interval_times(seq, k)
        if self.cfg.backend == "cde":
            rows, firsts = rates
            field = DenseField(self.cde_net.weights(store),
                               self.cde_net.out_tanh, rows=rows,
                               first_row=firsts[k])
            return integrate_span(field, h, t0, t1, substeps, method,
                                  interior=queries)
        field = DenseField(self.fnet.weights(store), u=seq.actions[k])
        out, h = integrate_span(field, h, t0, t1, substeps, method,
                                interior=queries)
        if self.cfg.jumps:
            h = self.jump_cell.step(store, h, seq.actions[k + 1])
        return out, h

    def _cde_knots(self, seq):
        """Stack actions with the time channel: (B, K, D_u + 1) node."""
        b = seq.actions[0].value.shape[0]
        k = len(seq.actions)
        act = ad.reshape(ad.concat(seq.actions, axis=1),
                         (b, k, self.cfg.action_dim))
        times = np.atleast_2d(seq.anchor_times)[:, :, None]
        tch = np.broadcast_to(times, (b, k, 1)).copy()
        return ad.concat([act, ad.constant(tch)], axis=2)

    def _spline_rates(self, seq, intervals, substeps, method, queries=()):
        """dU/dt at every stage time integrate_span will visit, in call order.

        Covers the window's first `intervals` intervals.  The window spline
        gives one weight matrix over all those stage times (one CubicPath,
        or one per series on a ragged clock) and one tape matmul against
        the knots, a (B, S, D_u + 1) node.  Returns that node and the row
        of each interval's first stage.  None for the ode_rnn.
        """
        if self.cfg.backend != "cde":
            return None
        stages, firsts = [], []
        for k in range(intervals):
            firsts.append(len(stages))
            stages += [t for _, ts, _ in span_steps(
                *self._interval_times(seq, k), substeps, method, queries)
                for t in ts]
        # one row of knot and stage times per clock (a single row when
        # shared); a + dt may round one ulp past the last knot
        times = np.atleast_2d(seq.anchor_times)
        stage_mat = np.minimum(np.atleast_2d(np.hstack(stages)), times[:, -1:])
        weights = np.stack([
            CubicPath(row, np.zeros((row.size, 1))).derivative_weights(ts)
            for row, ts in zip(times, stage_mat)])
        return ad.matmul(ad.constant(weights), self._cde_knots(seq)), firsts
