"""Linear-quadratic control checks for the receding-horizon scheme.

For a linear state-space model dx/dt = Ax + Bu with quadratic cost
x'C'Cx + u'Ru, the infinite-horizon optimal feedback comes from the
algebraic Riccati equation and the finite-horizon one from the Riccati
differential equation.  This module solves both from scratch (Lyapunov
solves are delegated to scipy) and simulates the two closed loops so the
receding-horizon claims can be checked numerically:

* the finite-horizon solution P(s) approaches the ARE solution
  exponentially in the horizon length, at rate 2 mu_inf (the closed-loop
  spectral margin);
* the receding-horizon loop (plan over horizon T, apply the first tau of
  it, re-plan) is exponentially stable once T is long enough, and its
  trajectory converges to the infinite-horizon one as T grows.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

__all__ = [
    "StateSpaceModel", "scalar_model", "double_integrator",
    "AreSolution", "solve_are", "are_residual", "integrate_rde",
    "mpc_closed_loop", "infinite_closed_loop", "fit_decay_rate",
    "verify_theorem1", "verify_theorem2", "TheoryReport", "verify_all",
]


class StateSpaceModel:
    """dx/dt = Ax + Bu, y = Cx, with control weight R (default identity)."""

    def __init__(self, a, b, c, r=None):
        self.a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        self.b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        self.c = np.atleast_2d(np.asarray(c, dtype=np.float64))
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ValueError(f"A must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise ValueError("B row count must match A")
        if self.c.shape[1] != n:
            raise ValueError("C column count must match A")
        m = self.b.shape[1]
        self.r = np.eye(m) if r is None else np.atleast_2d(
            np.asarray(r, dtype=np.float64))
        if self.r.shape != (m, m):
            raise ValueError("R must be m x m")
        if not np.allclose(self.r, self.r.T):
            raise ValueError("R must be symmetric")
        if np.any(np.linalg.eigvalsh(self.r) <= 0):
            raise ValueError("R must be positive definite")

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def q(self):
        return self.c.T @ self.c

    def controllable(self):
        blocks = [self.b]
        for _ in range(self.n - 1):
            blocks.append(self.a @ blocks[-1])
        return np.linalg.matrix_rank(np.hstack(blocks)) == self.n


def scalar_model(a=0.0, b=1.0, c=1.0, r=1.0):
    return StateSpaceModel([[a]], [[b]], [[c]], [[r]])


def double_integrator():
    """Position-sensing double integrator; closed-loop margin sqrt(2)/2."""
    return StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                           [[1.0, 0.0]])


# ---------------------------------------------------------------------------
# algebraic Riccati equation

@dataclass
class AreSolution:
    p: np.ndarray
    gain: np.ndarray          # F with u = -F x
    a_closed: np.ndarray      # A - B F
    iterations: int
    residual: float

    @property
    def margin(self):
        """mu_inf: distance of the closed-loop spectrum from the axis."""
        return float(-np.max(np.linalg.eigvals(self.a_closed).real))


def are_residual(model, p):
    rinv = np.linalg.inv(model.r)
    res = (model.a.T @ p + p @ model.a
           - p @ model.b @ rinv @ model.b.T @ p + model.q)
    return float(np.linalg.norm(res, "fro"))


def _bass_stabilizing_gain(model):
    """An initial gain making A - BF Hurwitz.

    Shift A right by beta > ||A||_2 so -(A + beta I) is stable, solve the
    Lyapunov equation (A + beta I) Z + Z (A + beta I)' = 2 B B', and take
    F = B' Z^{-1}.  Then (A - BF) Z + Z (A - BF)' = -2 beta Z < 0 with
    Z > 0 by controllability, which certifies stability.
    """
    beta = np.linalg.norm(model.a, 2) + 1.0
    shifted = model.a + beta * np.eye(model.n)
    z = solve_continuous_lyapunov(-shifted, -2.0 * model.b @ model.b.T)
    z = (z + z.T) / 2.0
    if np.any(np.linalg.eigvalsh(z) <= 0):
        raise np.linalg.LinAlgError(
            "stabilizing-gain construction failed; is (A, B) controllable?")
    return model.b.T @ np.linalg.inv(z)


def solve_are(model, tol=1e-12, max_iter=100):
    """Positive-semidefinite ARE solution by Newton iteration on the gain.

    Each step solves one Lyapunov equation for the closed-loop cost of the
    current gain and re-derives the gain from it; iterates decrease
    monotonically to the stabilizing solution.
    """
    if not model.controllable():
        raise ValueError("(A, B) must be controllable")
    rinv = np.linalg.inv(model.r)
    f = _bass_stabilizing_gain(model)
    p_prev = None
    for it in range(1, max_iter + 1):
        a_cl = model.a - model.b @ f
        p = solve_continuous_lyapunov(
            a_cl.T, -(model.q + f.T @ model.r @ f))
        p = (p + p.T) / 2.0
        f = rinv @ model.b.T @ p
        if p_prev is not None:
            delta = np.linalg.norm(p - p_prev, "fro")
            if delta <= tol * max(1.0, np.linalg.norm(p, "fro")):
                break
        p_prev = p
    a_cl = model.a - model.b @ f
    if np.any(np.linalg.eigvals(a_cl).real >= 0):
        raise np.linalg.LinAlgError("Riccati iteration left the loop unstable")
    return AreSolution(p=p, gain=f, a_closed=a_cl, iterations=it,
                       residual=are_residual(model, p))


# ---------------------------------------------------------------------------
# Riccati differential equation

def _rk4(rhs, x, h):
    """One plain-numpy rk4 step of dx/dt = rhs(x, i), where i = 0, 1, 2
    indexes the stage offsets 0, h/2 and h.  The theory battery runs off
    the tape, so it does not use odesolve."""
    k1 = rhs(x, 0)
    k2 = rhs(x + 0.5 * h * k1, 1)
    k3 = rhs(x + 0.5 * h * k2, 1)
    k4 = rhs(x + h * k3, 2)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_rde(model, horizon, p_terminal=None, step=0.005):
    """P(s) on s in [0, horizon], s measured as time-to-go.

    dP/ds = A'P + PA - P B R^{-1} B' P + C'C with P(0) equal to the
    terminal weight (default C'C).  Fixed-step rk4; returns (s grid,
    stacked P of shape (len(s), n, n)).
    """
    steps = int(round(horizon / step))
    if steps < 1 or abs(steps * step - horizon) > 1e-9:
        raise ValueError("horizon must be a positive multiple of step")
    rinv = np.linalg.inv(model.r)
    q = model.q
    a = model.a

    def rhs(p, _stage):
        return a.T @ p + p @ a - p @ model.b @ rinv @ model.b.T @ p + q

    p = q.copy() if p_terminal is None else np.atleast_2d(
        np.asarray(p_terminal, dtype=np.float64)).copy()
    out = np.empty((steps + 1, model.n, model.n))
    out[0] = p
    for k in range(steps):
        p = _rk4(rhs, p, step)
        p = (p + p.T) / 2.0
        out[k + 1] = p
    s = np.linspace(0.0, horizon, steps + 1)
    return s, out


# ---------------------------------------------------------------------------
# closed loops

def mpc_closed_loop(model, horizon, tau, x0, t_end, steps_per_tau=50,
                    p_terminal=None):
    """Simulate the receding-horizon loop: plan over `horizon`, execute
    the first `tau` of the plan, re-plan.

    Within each planning window the feedback gain is the finite-horizon
    one at the remaining time-to-go, -R^{-1} B' P(horizon - sigma) for
    local time sigma in [0, tau).  Returns (times, states) with states of
    shape (len(times), n).  Gains repeat with period tau, so the loop is
    a periodic linear system.
    """
    if tau <= 0 or horizon < tau:
        raise ValueError("need 0 < tau <= horizon")
    h = tau / steps_per_tau
    p_step = h / 2.0
    s_grid, p_path = integrate_rde(model, horizon, p_terminal=p_terminal,
                                   step=p_step)
    rinv = np.linalg.inv(model.r)
    bt = model.b.T

    def a_closed_at(units):
        # units counts multiples of p_step of time-to-go
        p = p_path[units]
        return model.a - model.b @ (rinv @ bt @ p)

    n_windows = int(np.ceil(t_end / tau - 1e-12))
    x = np.asarray(x0, dtype=np.float64).reshape(model.n)
    times = [0.0]
    states = [x.copy()]
    total_units = len(s_grid) - 1          # horizon / p_step
    for w in range(n_windows):
        for j in range(steps_per_tau):
            sigma_units = 2 * j            # local time in p_step units
            stages = (a_closed_at(total_units - sigma_units),
                      a_closed_at(total_units - sigma_units - 1),
                      a_closed_at(total_units - sigma_units - 2))
            x = _rk4(lambda x_, i: stages[i] @ x_, x, h)
            times.append(w * tau + (j + 1) * h)
            states.append(x.copy())
    return np.array(times), np.stack(states)


def infinite_closed_loop(model, x0, t_end, step=0.01, are=None):
    """Simulate dx/dt = (A - B F_inf) x with the ARE gain."""
    are = are or solve_are(model)
    steps = int(np.ceil(t_end / step - 1e-12))
    x = np.asarray(x0, dtype=np.float64).reshape(model.n)
    a_cl = are.a_closed
    times = [0.0]
    states = [x.copy()]
    for k in range(steps):
        x = _rk4(lambda x_, _: a_cl @ x_, x, step)
        times.append((k + 1) * step)
        states.append(x.copy())
    return np.array(times), np.stack(states)


# ---------------------------------------------------------------------------
# empirical rate fitting

def fit_decay_rate(times, norms, ref=None, window=(1e-8, 1e-1)):
    """Least-squares slope of log(norm) vs time inside a relative window.

    Fits only where norm is in [window[0], window[1]] * ref (ref defaults
    to the first norm), away from both the transient and the f64 noise
    floor.  Returns (rate, stderr); rate > 0 means decay.
    """
    times = np.asarray(times, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    ref = float(norms[0]) if ref is None else float(ref)
    lo, hi = window[0] * ref, window[1] * ref
    keep = (norms >= lo) & (norms <= hi)
    if keep.sum() < 4:
        keep = norms > 0
    t, y = times[keep], np.log(norms[keep])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    denom = max(len(t) - 2, 1) * np.sum((t - t.mean()) ** 2)
    stderr = float(np.sqrt(np.sum(resid ** 2) / denom))
    return -float(slope), stderr


# ---------------------------------------------------------------------------
# theorem-level checks

def verify_theorem1(model, pairs=((4.0, 0.5), (8.0, 0.5)), x0=None,
                    t_end=16.0, rtol=0.05):
    """Receding-horizon stability: the loop decays exponentially and its
    rate approaches the infinite-horizon margin as the horizon grows.

    Plans start from a zero terminal weight so short horizons are
    genuinely myopic.  Returns a result dict; `passed` requires a positive
    fitted rate for each (T, tau) and |rate - mu_inf| non-increasing in T
    (up to rtol * mu_inf slack).
    """
    are = solve_are(model)
    mu = are.margin
    x0 = np.ones(model.n) if x0 is None else x0
    rows = []
    for horizon, tau in pairs:
        t, xs = mpc_closed_loop(model, horizon, tau, x0, t_end,
                                p_terminal=np.zeros((model.n, model.n)))
        norms = np.linalg.norm(xs, axis=1)
        rate, stderr = fit_decay_rate(t, norms)
        rows.append({"horizon": horizon, "tau": tau, "rate": rate,
                     "stderr": stderr, "gap_to_mu": abs(rate - mu)})
    gaps = [r["gap_to_mu"] for r in rows]
    monotone = all(g2 <= g1 + rtol * mu for g1, g2 in zip(gaps, gaps[1:]))
    passed = all(r["rate"] > 0 for r in rows) and monotone
    return {"mu_inf": mu, "rows": rows, "monotone_gap": monotone,
            "passed": bool(passed)}


def verify_theorem2(model, horizons=(1.0, 2.0, 4.0, 8.0), tau=0.5, x0=None,
                    t_end=10.0):
    """Receding-horizon vs infinite-horizon discrepancy shrinks with T.

    Measures sup_t |x_T(t) - x_inf(t)| on a shared grid for a geometric
    horizon sweep; passes if the sequence is non-increasing and the
    fitted slope of log-discrepancy against T is negative.
    """
    are = solve_are(model)
    x0 = np.ones(model.n) if x0 is None else x0
    steps_per_tau = 50
    t_inf, x_inf = infinite_closed_loop(model, x0, t_end,
                                        step=tau / steps_per_tau, are=are)
    rows = []
    for horizon in horizons:
        t, xs = mpc_closed_loop(model, horizon, tau, x0, t_end,
                                steps_per_tau=steps_per_tau,
                                p_terminal=np.zeros((model.n, model.n)))
        k = min(len(t), len(t_inf))
        if not np.allclose(t[:k], t_inf[:k]):
            raise AssertionError("closed-loop grids must align")
        disc = float(np.max(np.linalg.norm(xs[:k] - x_inf[:k], axis=1)))
        rows.append({"horizon": horizon, "sup_discrepancy": disc})
    d = np.array([r["sup_discrepancy"] for r in rows])
    non_increasing = bool(np.all(np.diff(d) <= 1e-12 + 1e-9 * d[:-1]))
    slope = float(np.polyfit(list(horizons), np.log(np.maximum(d, 1e-300)),
                             1)[0])
    return {"rows": rows, "non_increasing": non_increasing,
            "log_slope": slope,
            "passed": bool(non_increasing and slope < 0)}


@dataclass
class TheoryReport:
    are_scalar: dict = field(default_factory=dict)
    rde_scalar: dict = field(default_factory=dict)
    theorem1: dict = field(default_factory=dict)
    theorem2: dict = field(default_factory=dict)
    passed: bool = False

    def to_dict(self):
        return {"are_scalar": self.are_scalar, "rde_scalar": self.rde_scalar,
                "theorem1": self.theorem1, "theorem2": self.theorem2,
                "passed": self.passed}


def verify_all(models=None):
    """Run the standard battery on the built-in models.

    Covers: scalar ARE closed form, scalar RDE closed form p(s) = tanh(s),
    RDE convergence rate vs 2 mu_inf, and both theorem-level checks on
    the scalar and double-integrator models.
    """
    report = TheoryReport()
    sm = scalar_model(0.0)
    are = solve_are(sm)
    report.are_scalar = {
        "p": float(are.p[0, 0]), "expected": 1.0,
        "a_closed": float(are.a_closed[0, 0]),
        "residual": are.residual,
        "passed": bool(abs(are.p[0, 0] - 1.0) < 1e-10
                       and are.residual < 1e-8
                       and are.a_closed[0, 0] < 0),
    }

    s, p_path = integrate_rde(sm, 8.0, p_terminal=np.zeros((1, 1)),
                              step=0.005)
    p1 = p_path[np.searchsorted(s, 1.0), 0, 0]
    gaps = np.abs(p_path[:, 0, 0] - are.p[0, 0])
    rate, _ = fit_decay_rate(s, gaps, ref=1.0)
    report.rde_scalar = {
        "p_at_1": float(p1), "expected": float(np.tanh(1.0)),
        "fitted_rate": rate, "expected_rate": 2.0 * are.margin,
        "passed": bool(abs(p1 - np.tanh(1.0)) < 1e-6
                       and abs(rate - 2.0 * are.margin)
                       < 0.2 * 2.0 * are.margin),
    }

    models = models or {"scalar": sm, "double_integrator": double_integrator()}
    t1 = {name: verify_theorem1(m) for name, m in models.items()}
    t2 = {name: verify_theorem2(m) for name, m in models.items()}
    report.theorem1 = {k: v for k, v in t1.items()}
    report.theorem2 = {k: v for k, v in t2.items()}
    report.passed = bool(
        report.are_scalar["passed"] and report.rde_scalar["passed"]
        and all(v["passed"] for v in t1.values())
        and all(v["passed"] for v in t2.values()))
    return report
