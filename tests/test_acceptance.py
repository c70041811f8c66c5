"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Criteria 1 and 2 train at full protocol (3 seeds, both
algorithms) and took 177 s and 97 s in one run on a shared 2-vCPU VM;
everything else finishes in seconds.  All runs are deterministic under
their fixed seeds.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

import npc.autodiff as ad
from npc import gradcheck, lintheory
from npc.cli import main
from npc.datagen import (Normalizer, drop_observations, gen_sine_regression,
                         gen_toy_test, gen_toy_train, save_csv)
from npc.odesolve import DenseField, TimeGrid, ode_solve
from npc.spline import CubicPath
from npc.trainer import (ModelBundle, TrainConfig, evaluate_classification,
                         evaluate_interpolation, sensitivity_sweep, train)


def _report(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


# -- 1: toy classification, NPC vs single-horizon reference -----------------

def _toy_accuracy(algorithm, seed, epochs=20):
    series, norm = gen_toy_train(seed=seed, return_normalizer=True)
    bundle = ModelBundle.build(
        task="classification", obs_dim=1, algorithm=algorithm,
        backend="ode_rnn", m=5, window=4, lam=0.2, action_dim=8,
        ctrl_hidden=16, model_hidden=16, substeps=2, seed=seed,
        normalizer=norm)
    train(bundle, series, TrainConfig(epochs=epochs, batch=32, lr=1e-3,
                                      seed=seed))
    return evaluate_classification(bundle, gen_toy_test(seed=seed))["accuracy"]


def test_criterion_01_toy_classification():
    accs = {"npc": [], "single_horizon": []}
    for seed in (0, 1, 2):
        for algo in accs:
            accs[algo].append(_toy_accuracy(algo, seed))
    npc_mean = float(np.mean(accs["npc"]))
    base_mean = float(np.mean(accs["single_horizon"]))
    gap = npc_mean - base_mean
    ok = npc_mean >= 0.95 and gap >= 0.05
    _report(1, ok, f"toy accuracy npc {npc_mean:.4f} (need >= 0.95), "
                   f"baseline {base_mean:.4f}, gap {gap:.4f} (need >= 0.05), "
                   f"3 seeds")


# -- 2: sine interpolation at 80% drop ---------------------------------------

def _sine_rmse(algorithm, seed, epochs=40, lr=3e-3, n_series=12):
    raw = gen_sine_regression(n_series, 64, seed=seed, cycles=1.5, noise=0.02)
    dropped = [drop_observations(s, 0.8, seed=seed + 7 * i + 1)
               for i, s in enumerate(raw)]
    norm = Normalizer.fit(dropped)
    bundle = ModelBundle.build(
        task="regression", obs_dim=1, algorithm=algorithm, backend="ode_rnn",
        m=5, window=4, lam=0.1, action_dim=8, ctrl_hidden=16, model_hidden=16,
        substeps=2, seed=seed, normalizer=norm)
    train(bundle, [norm.apply(s) for s in dropped],
          TrainConfig(epochs=epochs, batch=32, lr=lr, seed=seed))
    return evaluate_interpolation(bundle, dropped)["rmse"]


def test_criterion_02_sine_interpolation():
    rmses = {"npc": [], "single_horizon": []}
    for seed in (0, 1, 2):
        for algo in rmses:
            rmses[algo].append(_sine_rmse(algo, seed))
    npc_mean = float(np.mean(rmses["npc"]))
    base_mean = float(np.mean(rmses["single_horizon"]))
    ratio = npc_mean / base_mean
    ok = ratio <= 0.9
    _report(2, ok, f"80% drop rmse npc {npc_mean:.4f}, baseline "
                   f"{base_mean:.4f}, ratio {ratio:.4f} (need <= 0.9), "
                   f"3 seeds")


# -- 3: gradient correctness --------------------------------------------------

def test_criterion_03_gradient_checks():
    t0 = time.perf_counter()
    results = gradcheck.run_all(seed=0)
    wall = time.perf_counter() - t0
    prefixes = {name.split(".")[0] for name in results}
    covered = {"ops", "controller", "ode_rnn", "cde", "costs"} <= prefixes
    worst = max(results.values())
    ok = covered and worst < 1e-4 and wall <= 120.0
    _report(3, ok, f"{len(results)} checks over {sorted(prefixes)}, max rel "
                   f"err {worst:.3e} (need < 1e-4), wall {wall:.0f}s "
                   f"(need <= 120s)")


# -- 4: solver convergence order ----------------------------------------------

# dh/dt = -h as a one-layer field over [h, t]: the integrator the models run
_DECAY = DenseField([(ad.constant([[-1.0], [0.0]]), ad.constant([0.0]))])


def _order(method, levels=4):
    errs = []
    for lv in range(levels):
        traj = ode_solve(_DECAY, np.array([[1.0]]),
                         TimeGrid([0.0, 1.0], 4 * 2 ** lv), method=method)
        errs.append(abs(traj.states[-1].value[0, 0] - np.exp(-1.0)))
    return min(np.log2(a / b) for a, b in zip(errs, errs[1:]))


def test_criterion_04_solver_orders():
    rk4 = _order("rk4")
    euler = _order("euler")
    ok = rk4 >= 3.8 and euler >= 0.9
    _report(4, ok, f"empirical order rk4 {rk4:.2f} (need >= 3.8), euler "
                   f"{euler:.2f} (need >= 0.9), 4-level step halving")


# -- 5: spline properties ------------------------------------------------------

def test_criterion_05_spline_properties():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0.0, 10.0, size=7))
    t[0], t[-1] = 0.0, 10.0
    p = CubicPath(t, rng.normal(size=(7, 2)))
    knot_err = float(np.max(np.abs(p.evaluate(t) - p.knot_values)))
    inner = t[1:-1]
    c1 = float(np.max(np.abs(p.derivative(inner, side="left")
                             - p.derivative(inner, side="right"))))
    c2 = float(np.max(np.abs(p.second_derivative(inner, side="left")
                             - p.second_derivative(inner, side="right"))))
    natural = float(np.max(np.abs(p.second_derivative(np.array([t[0], t[-1]])))))
    ts = np.linspace(t[0] + 0.3, t[-1] - 0.3, 41)
    eps = 1e-6
    fd = (p.evaluate(ts + eps) - p.evaluate(ts - eps)) / (2 * eps)
    rel = float(np.max(np.abs(p.derivative(ts) - fd)
                       / np.maximum(np.abs(fd), 1.0)))
    ok = (knot_err < 1e-12 and c1 < 1e-8 and c2 < 1e-8 and natural < 1e-9
          and rel < 1e-6)
    _report(5, ok, f"knots {knot_err:.1e} (<1e-12), C1 {c1:.1e} / C2 "
                   f"{c2:.1e} (<1e-8), natural BC {natural:.1e} (<1e-9), "
                   f"deriv vs FD {rel:.1e} (<1e-6)")


# -- 6: algebraic Riccati equation ---------------------------------------------

def test_criterion_06_are():
    sol = lintheory.solve_are(lintheory.scalar_model(0.0))
    p_err = abs(sol.p[0, 0] - 1.0)
    a_cl = sol.a_closed[0, 0]
    worst_resid, all_stable = sol.residual, True
    rng = np.random.default_rng(1)
    solved = 1
    while solved < 6:
        n = int(rng.integers(2, 5))
        model = lintheory.StateSpaceModel(rng.normal(size=(n, n)),
                                          rng.normal(size=(n, 2)),
                                          rng.normal(size=(2, n)))
        if not model.controllable():
            continue
        s = lintheory.solve_are(model)
        ref = solve_continuous_are(model.a, model.b, model.q, model.r)
        worst_resid = max(worst_resid, s.residual,
                          float(np.max(np.abs(s.p - ref))))
        all_stable &= bool(np.all(np.linalg.eigvals(s.a_closed).real < 0))
        solved += 1
    ok = p_err < 1e-10 and abs(a_cl + 1.0) < 1e-10 and worst_resid < 1e-8 \
        and all_stable
    _report(6, ok, f"scalar P err {p_err:.1e} (<1e-10), A_closed {a_cl:.6f} "
                   f"(need -1), worst residual {worst_resid:.1e} (<1e-8) "
                   f"over {solved} models, loops stable {all_stable}")


# -- 7: Riccati differential equation decay -------------------------------------

def test_criterion_07_rde_decay():
    model = lintheory.scalar_model(0.0)
    are = lintheory.solve_are(model)
    s, p_path = lintheory.integrate_rde(model, 8.0,
                                        p_terminal=np.zeros((1, 1)),
                                        step=0.005)
    p1 = p_path[np.searchsorted(s, 1.0), 0, 0]
    tanh_err = abs(p1 - np.tanh(1.0))
    gaps = np.abs(p_path[:, 0, 0] - are.p[0, 0])
    rate, _ = lintheory.fit_decay_rate(s, gaps, ref=1.0)
    target = 2.0 * are.margin
    rel = abs(rate - target) / target
    ok = tanh_err < 1e-6 and rel < 0.2
    _report(7, ok, f"p(1) err vs tanh(1) {tanh_err:.1e} (<1e-6), fitted "
                   f"decay {rate:.4f} vs 2*mu_inf {target:.4f} "
                   f"(rel gap {rel:.3f}, need < 0.2)")


# -- 8: receding-horizon stability ------------------------------------------------

def test_criterion_08_theorem1():
    details = []
    ok = True
    for name, model in (("scalar", lintheory.scalar_model(0.0)),
                        ("double_integrator", lintheory.double_integrator())):
        res = lintheory.verify_theorem1(model)
        ok &= res["passed"]
        rates = "/".join(f"{r['rate']:.3f}" for r in res["rows"])
        details.append(f"{name}: mu_hat {rates} (mu_inf "
                       f"{res['mu_inf']:.3f}, gap monotone "
                       f"{res['monotone_gap']})")
    _report(8, ok, "; ".join(details))


# -- 9: receding-horizon vs infinite-horizon discrepancy ---------------------------

def test_criterion_09_theorem2():
    details = []
    ok = True
    for name, model in (("scalar", lintheory.scalar_model(0.0)),
                        ("double_integrator", lintheory.double_integrator())):
        res = lintheory.verify_theorem2(model)
        ok &= res["passed"]
        details.append(f"{name}: non-increasing {res['non_increasing']}, "
                       f"log slope {res['log_slope']:.3f} (need < 0)")
    _report(9, ok, "; ".join(details))


# -- 10: sensitivity sweep ----------------------------------------------------------

def test_criterion_10_sensitivity_sweep():
    kwargs = dict(seed=0, n_series=3, length=64, cycles=1.5, noise=0.02,
                  train_kwargs=dict(epochs=2, batch=8, lr=3e-3),
                  build_kwargs=dict(algorithm="npc", backend="ode_rnn",
                                    window=2, ctrl_hidden=8, model_hidden=8,
                                    action_dim=4, fdepth=1, substeps=2),
                  jobs=4)
    m_values = list(range(2, 9))
    rates = [0.4, 0.8]
    rows1 = sensitivity_sweep(m_values, rates, **kwargs)
    rows2 = sensitivity_sweep(m_values, rates, **kwargs)
    full = [(r["m"], r["drop_rate"]) for r in rows1] \
        == [(m, d) for m in m_values for d in rates]
    finite = all(np.isfinite(r["rmse"]) for r in rows1)
    ok = rows1 == rows2 and full and finite
    best = {rate: min((r for r in rows1 if r["drop_rate"] == rate),
                      key=lambda r: r["rmse"])["m"] for rate in rates}
    _report(10, ok, f"14-cell table (M 2..8 x drop 40/80%) deterministic "
                    f"{rows1 == rows2}, complete {full}; best M by rmse: "
                    f"40% -> {best[0.4]}, 80% -> {best[0.8]} (right-shift "
                    f"reported, not asserted)")


# -- 11: external data path -----------------------------------------------------------

def test_criterion_11_csv_smoke(tmp_path):
    # Table 2/3 absolute numbers (HAR, UCR, PV) are NOT reproducible here:
    # those datasets are not bundled.  The contract is that externally
    # supplied CSV data in the documented schema trains end to end.
    data = tmp_path / "external.csv"
    save_csv(gen_sine_regression(n_series=10, length=32, seed=9), data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"task = regression\ndata = {data}\nepochs = 2\nbatch = 8\n"
        "m = 3\nwindow = 2\nctrl_hidden = 8\nmodel_hidden = 8\n"
        "action_dim = 4\nfdepth = 1\nsubsteps = 2\ndrop = 0.3\n")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    trained_ok = code == 0 and (out / "checkpoint.json").exists()
    eval_code = main(["evaluate", str(out / "checkpoint.json"), str(data),
                      "--config", str(cfg), "--out", str(out)])
    ok = trained_ok and eval_code == 0
    _report(11, ok, f"10-series CSV smoke train exit {code}, evaluate exit "
                    f"{eval_code} (HAR/UCR/PV tables explicitly not "
                    f"reproducible: datasets not bundled)")
