"""
Splines and fixed-step solvers
==============================

The two numerical workhorses: a natural cubic path through irregular
knots, and rk4/euler integration on the autodiff tape.
"""

import numpy as np

import npc.autodiff as ad
from npc.odesolve import DenseField, TimeGrid, ode_solve
from npc.spline import CubicPath

# a path through 6 irregularly spaced knots, two channels
rng = np.random.default_rng(0)
t = np.array([0.0, 0.7, 1.1, 2.4, 3.0, 4.0])
v = rng.normal(size=(6, 2))
path = CubicPath(t, v)

print("knot reproduction error:",
      np.max(np.abs(path.evaluate(t) - v)))
mid = 0.5 * (t[:-1] + t[1:])
print("path at segment midpoints:\n", np.round(path.evaluate(mid), 3))

# the derivative is what a CDE consumes; compare against differences
eps = 1e-6
fd = (path.evaluate(mid + eps) - path.evaluate(mid - eps)) / (2 * eps)
print("max derivative gap vs finite differences:",
      np.max(np.abs(path.derivative(mid) - fd)))

# integrate dh/dt = -h from 1; the answer is exp(-t).  The right-hand side
# is a one-layer dense field over [h, t], the form the models' fields take
decay = DenseField([(ad.constant([[-1.0], [0.0]]), ad.constant([0.0]))])
print("\nsolver convergence on dh/dt = -h over [0, 1]:")
print(f"{'substeps':>9} {'rk4 error':>12} {'euler error':>12}")
for sub in (4, 8, 16, 32):
    errs = []
    for method in ("rk4", "euler"):
        traj = ode_solve(decay, np.array([[1.0]]),
                         TimeGrid([0.0, 1.0], sub), method=method)
        errs.append(abs(traj.states[-1].value[0, 0] - np.exp(-1.0)))
    print(f"{sub:>9} {errs[0]:>12.3e} {errs[1]:>12.3e}")
print("halving the step cuts rk4 error ~16x and euler error ~2x")

# gradients flow through the whole integration
h0 = ad.leaf(np.array([[1.0]]))
traj = ode_solve(decay, h0, TimeGrid([0.0, 1.0], 32))
ad.backward(ad.sum_(traj.states[-1]))
print("\nd h(1) / d h(0) =", float(h0.grad[0, 0]), "(exact: exp(-1) =",
      round(np.exp(-1.0), 9), ")")
