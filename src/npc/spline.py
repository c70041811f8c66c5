"""Natural cubic spline control paths.

A path interpolates knots (t_j, v_j) with C2 piecewise cubics and zero
second derivative at both ends.  Because knot times are fixed data, the
map from knot values to spline coefficients is linear: second derivatives
are m = S v with S built from the tridiagonal system, and any batch of
value or derivative evaluations is a constant weight matrix times the
knot values.  That makes path evaluation differentiable with respect to
the knots through a single matmul, which is how the CDE model consumes it.

Evaluation outside [t_0, t_K-1] is an error; these paths never
extrapolate.
"""

import numpy as np


class CubicPath:
    """Natural cubic spline through (knot_times, knot_values).

    knot_values has shape (K,) or (K, C).  Interpolating linear data
    reproduces it exactly, so a channel holding the times themselves has
    derivative one everywhere.
    """

    def __init__(self, knot_times, knot_values):
        t = np.asarray(knot_times, dtype=np.float64)
        v = np.asarray(knot_values, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("need at least two knots")
        if np.any(np.diff(t) <= 0):
            raise ValueError("knot times must be strictly increasing")
        squeeze = v.ndim == 1
        if squeeze:
            v = v[:, None]
        if v.shape[0] != t.size:
            raise ValueError(
                f"knot_values has {v.shape[0]} rows for {t.size} knot times"
            )
        self.knot_times = t
        self.knot_values = v
        self._squeeze = squeeze
        self.second_map = _second_derivative_map(t)
        self.second = self.second_map @ v

    @property
    def t0(self):
        return self.knot_times[0]

    @property
    def t1(self):
        return self.knot_times[-1]

    def _locate(self, ts, side):
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        if np.any(ts < self.t0) or np.any(ts > self.t1):
            raise ValueError(
                f"evaluation times must lie in [{self.t0}, {self.t1}]"
            )
        seg = np.clip(np.searchsorted(self.knot_times, ts, side=side) - 1,
                      0, self.knot_times.size - 2)
        return ts, seg

    def value_weights(self, ts, side="right"):
        """(len(ts), K) matrix W with spline(ts) == W @ knot_values.

        side picks the segment at a knot time exactly: "right" the segment
        starting there (default), "left" the one ending there.  Both agree
        in value; the distinction matters for one-sided derivatives.
        """
        ts, seg = self._locate(ts, side)
        return _eval_weights(self.knot_times, self.second_map, ts, seg, derivative=False)

    def derivative_weights(self, ts, side="right"):
        ts, seg = self._locate(ts, side)
        return _eval_weights(self.knot_times, self.second_map, ts, seg, derivative=True)

    def evaluate(self, ts, side="right"):
        out = self.value_weights(ts, side) @ self.knot_values
        return out[:, 0] if self._squeeze else out

    def derivative(self, ts, side="right"):
        out = self.derivative_weights(ts, side) @ self.knot_values
        return out[:, 0] if self._squeeze else out

    def second_derivative(self, ts, side="right"):
        """Exact per-segment second derivative (linear in the knot seconds)."""
        ts, seg = self._locate(ts, side)
        h = self.knot_times[seg + 1] - self.knot_times[seg]
        lo = (self.knot_times[seg + 1] - ts) / h
        hi = (ts - self.knot_times[seg]) / h
        out = lo[:, None] * self.second[seg] + hi[:, None] * self.second[seg + 1]
        return out[:, 0] if self._squeeze else out


def _second_derivative_map(t):
    """K x K matrix taking knot values to knot second derivatives."""
    k = t.size
    s = np.zeros((k, k))
    if k == 2:
        return s
    h = np.diff(t)
    n = k - 2
    a = np.zeros((n, n))
    rhs = np.zeros((n, k))
    for i in range(n):
        j = i + 1
        if i > 0:
            a[i, i - 1] = h[j - 1] / 6.0
        a[i, i] = (h[j - 1] + h[j]) / 3.0
        if i < n - 1:
            a[i, i + 1] = h[j] / 6.0
        rhs[i, j - 1] = 1.0 / h[j - 1]
        rhs[i, j] = -1.0 / h[j - 1] - 1.0 / h[j]
        rhs[i, j + 1] = 1.0 / h[j]
    s[1:-1, :] = np.linalg.solve(a, rhs)
    return s


def _eval_weights(t, second_map, ts, seg, derivative):
    k = t.size
    w = np.zeros((ts.size, k))
    h = t[seg + 1] - t[seg]
    left = t[seg + 1] - ts
    right = ts - t[seg]
    rows = np.arange(ts.size)

    if derivative:
        wm_lo = -left ** 2 / (2.0 * h) + h / 6.0
        wm_hi = right ** 2 / (2.0 * h) - h / 6.0
        wv_lo = -1.0 / h
        wv_hi = 1.0 / h
    else:
        wm_lo = left ** 3 / (6.0 * h) - h * left / 6.0
        wm_hi = right ** 3 / (6.0 * h) - h * right / 6.0
        wv_lo = left / h
        wv_hi = right / h

    np.add.at(w, (rows, seg), wv_lo)
    np.add.at(w, (rows, seg + 1), wv_hi)
    wm = np.zeros((ts.size, k))
    np.add.at(wm, (rows, seg), wm_lo)
    np.add.at(wm, (rows, seg + 1), wm_hi)
    return w + wm @ second_map
