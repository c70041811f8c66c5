"""Plain-numpy forward of the frozen committed pass, apart from the tape.

It recomputes what `npc.trainer.classify` and `npc.trainer.interpolate`
return for one series from the checkpoint parameters alone: the GRU
controller consumes each observation, the head emits the window's
actions, and the committed state crosses one interval by the same rk4
grid (uniform substeps, split at interior query times).  The ode_rnn
flows with the first action and jumps on the second; the cde reads
dU/dt from scipy's natural CubicSpline through the window's actions and
times.  Only rk4 is implemented, which is what every workload uses.
"""

import numpy as np
from scipy.interpolate import CubicSpline


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Reference:
    def __init__(self, params, meta, mean, std):
        """params: {checkpoint name: array}; meta: the bundle's meta;
        mean, std: the bundle's normalizer."""
        if meta["method"] != "rk4":
            raise ValueError("the reference forward implements rk4 only")
        self.p = params
        self.meta = meta
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    def _linear(self, prefix, x):
        return x @ self.p[f"{prefix}.w"] + self.p[f"{prefix}.b"]

    def _mlp(self, prefix, x, out_tanh):
        n = 0
        while f"{prefix}.l{n}.w" in self.p:
            n += 1
        for i in range(n):
            x = self._linear(f"{prefix}.l{i}", x)
            if i < n - 1 or out_tanh:
                x = np.tanh(x)
        return x

    def _gru(self, prefix, prev, x):
        h = prev.shape[-1]
        px = x @ self.p[f"{prefix}.wx"] + self.p[f"{prefix}.b"]
        ph = prev @ self.p[f"{prefix}.wh"]
        r = _sigmoid(px[:h] + ph[:h])
        u = _sigmoid(px[h:2 * h] + ph[h:2 * h])
        cand = np.tanh(px[2 * h:] + r * ph[2 * h:])
        return u * prev + (1.0 - u) * cand

    def _rk4_span(self, f, h, t0, t1, queries, out):
        grid = np.linspace(t0, t1, self.meta["substeps"] + 1)[1:-1]
        points = [t0, *sorted(set(grid).union(queries)), t1]
        for a, b in zip(points, points[1:]):
            dt = b - a
            k1 = f(h, a)
            k2 = f(h + k1 * (dt / 2.0), a + dt / 2.0)
            k3 = f(h + k2 * (dt / 2.0), a + dt / 2.0)
            k4 = f(h + k3 * dt, a + dt)
            h = h + ((k1 + k4) + (k2 + k3) * 2.0) * (dt / 6.0)
            if b in queries:
                out[b] = h
        return h

    def committed_pass(self, times, values, queries=()):
        """Committed state after the last observation, plus the pre-jump
        state at each query time strictly inside an interval.

        times (N,), values (N, D) are the observed points in model units.
        """
        meta = self.meta
        m, du = meta["m"], meta["action_dim"]
        dts = np.diff(times, prepend=times[0])
        h = np.tanh(self._linear("enc", values[0]))
        z = np.zeros(meta["ctrl_hidden"])
        out = {}
        n = times.size
        for a in range(n - 1):
            z = self._gru("ctrl.gru", z, np.append(values[a], dts[a]))
            m_eff = min(m, n - 1 - a)
            flat = self._mlp("ctrl.head", z, out_tanh=False)
            actions = [flat[k * du:(k + 1) * du] for k in range(m_eff + 1)]
            wt = times[a:a + m_eff + 1]
            inner = {q for q in queries if wt[0] < q < wt[1]}
            if meta["backend"] == "ode_rnn":
                def f(s, t, u=actions[0]):
                    return self._mlp("f", np.concatenate([s, u, [t]]),
                                     out_tanh=False)
            else:
                knots = np.column_stack([np.stack(actions), wt])
                du_dt = CubicSpline(wt, knots, bc_type="natural").derivative()

                def f(s, t, du_dt=du_dt):
                    flat = self._mlp("cde", np.append(s, t),
                                     out_tanh=meta["cde_tanh"])
                    return flat.reshape(s.size, du + 1) @ du_dt(t)
            h = self._rk4_span(f, h, wt[0], wt[1], inner, out)
            if meta["backend"] == "ode_rnn" and meta["jumps"]:
                h = self._gru("jump", h, actions[1])
        return h, out

    def class_probabilities(self, series):
        """Softmax of the readout at the last committed state."""
        t, v = series.observed()
        h, _ = self.committed_pass(t, (v - self.mean) / self.std)
        logits = self._linear("readout", h)
        p = np.exp(logits - logits.max())
        return p / p.sum()

    def interpolate(self, series, query_times):
        """Model values (data units) at query times strictly inside the
        intervals between observed points."""
        t, v = series.observed()
        _, states = self.committed_pass(t, (v - self.mean) / self.std,
                                        queries=set(query_times))
        out = np.stack([self._linear("readout", states[q])
                        for q in query_times])
        return out * self.std + self.mean
