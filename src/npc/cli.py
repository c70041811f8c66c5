"""Command-line interface.

Subcommands: generate-data, train, evaluate, interpolate, extrapolate,
sweep, verify-theory, grad-check.  Shared flags: --config (flat key=value
file), --seed, --out, plus --jobs on sweep.  NPC_LOG sets the log level.

Exit codes: 0 success, 1 usage or configuration error, 2 runtime or
numerical failure.  All outputs are deterministic under a fixed seed
except wall-clock fields.
"""

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import gradcheck, lintheory, trainer
from .config import DATASET_PRESETS, ConfigError, load_run_config
from .datagen import (CsvFormatError, Normalizer, TimeSeries,
                      drop_observations, gen_sine_regression, gen_toy_test,
                      gen_toy_train, load_csv, save_csv)
from .gradcheck import GradCheckError
from .trainer import ModelBundle, TrainConfig, TrainingDiverged

log = logging.getLogger("npc.cli")

BUILTIN_DATA = ("toy", "toy-test", "sine")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# dataset plumbing

def _load_dataset(name, cfg):
    """Builtin name or CSV path -> list of raw (data-unit) series."""
    if name == "toy":
        return gen_toy_train(seed=cfg.seed, normalize=False)
    if name == "toy-test":
        return gen_toy_test(seed=cfg.seed)
    if name == "sine":
        return gen_sine_regression(cfg.n_series, cfg.length, seed=cfg.seed,
                                   cycles=cfg.cycles, noise=cfg.noise)
    if not os.path.exists(name):
        raise ConfigError(f"dataset {name!r} is neither a builtin "
                          f"({', '.join(BUILTIN_DATA)}) nor an existing file")
    return load_csv(name)


def _apply_drop(series_list, cfg):
    if cfg.drop <= 0.0:
        return series_list
    return [drop_observations(s, cfg.drop, seed=cfg.seed + 7 * i + 1)
            for i, s in enumerate(series_list)]


def _check_labels(series_list, n_classes, source):
    for i, s in enumerate(series_list):
        if s.label is None:
            raise ConfigError(
                f"{source}: series {i} has no label; classification needs "
                "a label column")
        if not 0 <= s.label < n_classes:
            raise ConfigError(
                f"{source}: series {i} label {s.label} outside "
                f"[0, {n_classes})")


def _check_obs_dim(series_list, bundle, source):
    d = series_list[0].channels
    if d != bundle.meta["obs_dim"]:
        raise ConfigError(
            f"{source}: {d} channels, checkpoint expects "
            f"{bundle.meta['obs_dim']}")


def _require_task(bundle, task, command):
    if bundle.meta["task"] != task:
        raise ConfigError(
            f"{command} needs a {task} checkpoint; this one was trained "
            f"for {bundle.meta['task']}")


def _config_from_args(args):
    """Compose the RunConfig for a command from file + CLI overrides.

    When the data source names a preset row (e.g. toy), that row's
    hyperparameters seed the defaults; the file and flags still win.
    """
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    if getattr(args, "data", None) is not None:
        overrides["data"] = args.data

    file_pairs = {}
    if args.config is not None:
        from .config import parse_config_file
        file_pairs = parse_config_file(args.config)
    data = overrides.get("data", file_pairs.get("data", "toy"))
    preset = data if data in DATASET_PRESETS else None
    cfg = load_run_config(args.config, preset=preset, overrides=overrides)
    return cfg


def _out_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    log.info("wrote %s", path)


def _write_tidy(bundle, series_list, path):
    """Per-point CSV for plotting: model value at every series time.

    mask is 1 where the model saw the observation, 0 where it was held
    out; truth is empty where the data has no value (a hidden CSV row).
    Multichannel series get one row per channel.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["series", "time", "channel", "truth", "prediction",
                    "mask"])
        for si, s in enumerate(series_list):
            pred = trainer.interpolate(bundle, s, s.times)
            for k in range(s.length):
                for c in range(s.channels):
                    v = float(s.values[k, c])
                    w.writerow([si, repr(float(s.times[k])), c + 1,
                                "" if np.isnan(v) else repr(v),
                                repr(float(pred[k, c])), int(s.mask[k])])
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# commands

def cmd_generate_data(args):
    cfg = _config_from_args(args)
    if args.kind == "toy-train":
        series = gen_toy_train(seed=cfg.seed, normalize=False)
    elif args.kind == "toy-test":
        series = gen_toy_test(seed=cfg.seed)
    else:
        series = gen_sine_regression(cfg.n_series, cfg.length, seed=cfg.seed,
                                     cycles=cfg.cycles, noise=cfg.noise)
    path = _out_path(cfg, f"{args.kind}.csv")
    save_csv(series, path)
    print(f"wrote {len(series)} series to {path}")
    return 0


def _build_bundle(cfg, obs_dim, normalizer):
    return ModelBundle.build(
        task=cfg.task, obs_dim=obs_dim, algorithm=cfg.algorithm,
        backend=cfg.backend, n_classes=cfg.n_classes, m=cfg.m,
        window=cfg.window, ctrl_hidden=cfg.ctrl_hidden,
        model_hidden=cfg.model_hidden, action_dim=cfg.action_dim,
        head_width=cfg.head_width, fdepth=cfg.fdepth, jumps=cfg.jumps,
        cde_tanh=cfg.cde_tanh, substeps=cfg.substeps, method=cfg.method,
        lam=cfg.lam, seed=cfg.seed, normalizer=normalizer)


def cmd_train(args):
    cfg = _config_from_args(args)
    raw = _load_dataset(cfg.data, cfg)
    if cfg.task == "classification":
        _check_labels(raw, cfg.n_classes, cfg.data)
    elif cfg.task != "regression":
        raise ConfigError(f"unknown task {cfg.task!r}")
    raw = _apply_drop(raw, cfg)
    norm = Normalizer.fit(raw)
    bundle = _build_bundle(cfg, raw[0].channels, norm)
    tcfg = TrainConfig(epochs=cfg.epochs, batch=cfg.batch,
                       inner_steps=cfg.inner_steps, lr=cfg.lr,
                       stride=cfg.stride, seed=cfg.seed,
                       patience=cfg.patience,
                       min_rel_improve=cfg.min_rel_improve)
    log.info("training %s/%s on %d series", cfg.algorithm, cfg.backend,
             len(raw))
    report = trainer.train(bundle, [norm.apply(s) for s in raw], tcfg)
    ckpt = _out_path(cfg, "checkpoint.json")
    bundle.save(ckpt)
    payload = {"config": asdict(cfg), **report.to_dict()}
    _write_json(_out_path(cfg, "train_report.json"), payload)
    final = report.epoch_losses[-1] if report.epoch_losses else float("nan")
    print(f"trained {len(raw)} series, {report.epochs_run} epochs"
          f"{' (early stop)' if report.stopped_early else ''}, "
          f"final loss {final:.6g}; checkpoint at {ckpt}")
    return 0


def cmd_evaluate(args):
    cfg = _config_from_args(args)
    bundle = ModelBundle.load(args.checkpoint)
    t0 = time.perf_counter()
    raw = _load_dataset(args.data, cfg)
    _check_obs_dim(raw, bundle, args.data)
    task = bundle.meta["task"]
    if task == "classification":
        _check_labels(raw, bundle.meta["n_classes"], args.data)
        metrics = trainer.evaluate_classification(bundle, raw)
    else:
        dropped = _apply_drop(raw, cfg)
        if not any((~s.mask).any() for s in dropped):
            raise ConfigError(
                "no held-out points to evaluate; set drop > 0 in the config")
        metrics = trainer.evaluate_interpolation(bundle, dropped)
        _write_tidy(bundle, dropped, _out_path(cfg, "points.csv"))
    payload = {"task": task, "data": args.data, "metrics": metrics,
               "runtime_seconds": time.perf_counter() - t0}
    _write_json(_out_path(cfg, "metrics.json"), payload)
    parts = ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                      for k, v in metrics.items())
    print(f"{task} on {args.data}: {parts}")
    return 0


def cmd_interpolate(args):
    cfg = _config_from_args(args)
    bundle = ModelBundle.load(args.checkpoint)
    _require_task(bundle, "regression", "interpolate")
    raw = _load_dataset(args.data, cfg)
    _check_obs_dim(raw, bundle, args.data)
    dropped = _apply_drop(raw, cfg)
    path = _out_path(cfg, "interpolation.csv")
    _write_tidy(bundle, dropped, path)
    print(f"wrote model values at {sum(s.length for s in dropped)} points "
          f"to {path}")
    return 0


def cmd_extrapolate(args):
    cfg = _config_from_args(args)
    bundle = ModelBundle.load(args.checkpoint)
    _require_task(bundle, "regression", "extrapolate")
    raw = _load_dataset(args.data, cfg)
    _check_obs_dim(raw, bundle, args.data)
    m = bundle.meta["m"]
    k = cfg.horizon if cfg.horizon > 0 else m
    if k > m:
        raise ConfigError(f"horizon {k} exceeds the planner horizon {m}")
    if not any(s.mask[-k:].any() for s in raw):
        raise ConfigError(f"no series has an observed value among its last "
                          f"{k} points, so there is nothing to score")
    path = _out_path(cfg, "extrapolation.csv")
    sq_sum, n_pts = 0.0, 0
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["series", "time", "channel", "truth", "prediction",
                    "mask"])
        for si, s in enumerate(raw):
            if s.length < k + 2:
                raise ConfigError(
                    f"series {si} has {s.length} points; extrapolating "
                    f"{k} needs at least {k + 2}")
            ctx = TimeSeries(s.times[:-k], s.values[:-k], label=s.label,
                             mask=s.mask[:-k])
            pred = trainer.extrapolate(bundle, ctx, s.times[-k:])
            truth = s.values[-k:]
            seen = s.mask[-k:]      # hidden tail points have no truth
            sq_sum += float(np.sum((pred[seen] - truth[seen]) ** 2))
            n_pts += truth[seen].size
            for j in range(k):
                for c in range(s.channels):
                    w.writerow([si, repr(float(s.times[-k + j])), c + 1,
                                repr(float(truth[j, c])) if seen[j] else "",
                                repr(float(pred[j, c])), 0])
    rmse = (sq_sum / n_pts) ** 0.5
    print(f"extrapolated {k} steps on {len(raw)} series, "
          f"rmse {rmse:.6g}; wrote {path}")
    return 0


def _int_list(text):
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _float_list(text):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


def cmd_sweep(args):
    cfg = _config_from_args(args)
    m_values = _int_list(args.m_values)
    drop_rates = _float_list(args.drop_rates)
    if not m_values or not drop_rates:
        raise ConfigError("sweep needs at least one M and one drop rate")
    train_kwargs = {"epochs": cfg.epochs, "batch": cfg.batch,
                    "inner_steps": cfg.inner_steps, "lr": cfg.lr,
                    "stride": cfg.stride, "patience": cfg.patience,
                    "min_rel_improve": cfg.min_rel_improve}
    build_kwargs = {"algorithm": cfg.algorithm, "backend": cfg.backend,
                    "window": cfg.window, "ctrl_hidden": cfg.ctrl_hidden,
                    "model_hidden": cfg.model_hidden,
                    "action_dim": cfg.action_dim, "fdepth": cfg.fdepth,
                    "substeps": cfg.substeps, "method": cfg.method,
                    "lam": cfg.lam}
    log.info("sweep over M=%s, drop=%s, jobs=%d", m_values, drop_rates,
             args.jobs)
    rows = trainer.sensitivity_sweep(
        m_values, drop_rates, seed=cfg.seed, n_series=cfg.n_series,
        length=cfg.length, cycles=cfg.cycles, noise=cfg.noise,
        train_kwargs=train_kwargs, build_kwargs=build_kwargs, jobs=args.jobs)
    path = _out_path(cfg, "sweep.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["m", "drop_rate", "rmse", "mape_percent", "n_points",
                    "seed"])
        for r in rows:
            w.writerow([r["m"], r["drop_rate"], repr(r["rmse"]),
                        repr(r["mape_percent"]), r["n_points"], r["seed"]])
    best = min(rows, key=lambda r: r["rmse"])
    print(f"swept {len(rows)} cells; best rmse {best['rmse']:.6g} at "
          f"M={best['m']}, drop={best['drop_rate']}; wrote {path}")
    return 0


def _load_model_spec(name):
    if name == "scalar":
        return "scalar", lintheory.scalar_model(0.0)
    if name == "double-integrator":
        return "double_integrator", lintheory.double_integrator()
    if not os.path.exists(name):
        raise ConfigError(
            f"model {name!r} is neither a builtin (scalar, "
            "double-integrator) nor an existing JSON file")
    with open(name) as f:
        try:
            spec = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{name}: invalid JSON ({e})") from None
    missing = {"a", "b", "c"} - set(spec)
    if missing:
        raise ConfigError(f"{name}: missing keys {sorted(missing)}")
    try:
        model = lintheory.StateSpaceModel(
            np.array(spec["a"], dtype=np.float64),
            np.array(spec["b"], dtype=np.float64),
            np.array(spec["c"], dtype=np.float64),
            np.array(spec["r"], dtype=np.float64) if "r" in spec else None)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from None
    base = os.path.splitext(os.path.basename(name))[0]
    return base, model


def cmd_verify_theory(args):
    cfg = _config_from_args(args)
    if args.model == "both":
        models = None
    else:
        key, model = _load_model_spec(args.model)
        models = {key: model}
    report = lintheory.verify_all(models=models)
    _write_json(_out_path(cfg, "theory.json"), report.to_dict())
    path = _out_path(cfg, "discrepancy.csv")
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "horizon", "sup_discrepancy"])
        for name, res in report.theorem2.items():
            for row in res["rows"]:
                w.writerow([name, row["horizon"],
                            repr(row["sup_discrepancy"])])
    print(f"scalar ARE: P = {report.are_scalar['p']:.12f} "
          f"(expected {report.are_scalar['expected']})")
    print(f"scalar RDE: P(1) = {report.rde_scalar['p_at_1']:.9f}, fitted "
          f"decay {report.rde_scalar['fitted_rate']:.4f} vs "
          f"2 mu_inf = {report.rde_scalar['expected_rate']:.4f}")
    for name, res in report.theorem1.items():
        rates = ", ".join(f"T={r['horizon']:g}: mu={r['rate']:.4f}"
                          for r in res["rows"])
        print(f"theorem 1 [{name}]: {rates} (mu_inf {res['mu_inf']:.4f})")
    for name, res in report.theorem2.items():
        print(f"theorem 2 [{name}]: log-discrepancy slope "
              f"{res['log_slope']:.3f}, non-increasing "
              f"{res['non_increasing']}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def cmd_grad_check(args):
    cfg = _config_from_args(args)
    names = (gradcheck.component_names() if args.component == "all"
             else [args.component])
    known = gradcheck.component_names()
    for name in names:
        if name not in known:
            raise ConfigError(
                f"unknown component {name!r}; choose from "
                f"{', '.join(['all'] + known)}")
    results, failed = {}, []
    for name in names:
        try:
            res = gradcheck.run_component(name, seed=cfg.seed)
        except GradCheckError as e:
            print(f"FAIL {name}: {e}")
            failed.append(name)
            continue
        for key, err in sorted(res.items()):
            results[f"{name}.{key}"] = err
            print(f"ok {name}.{key}: max rel err {err:.3e}")
    payload = {"seed": cfg.seed, "results": results, "failed": failed,
               "passed": not failed}
    _write_json(_out_path(cfg, "grad_check.json"), payload)
    if failed:
        print(f"FAIL ({len(failed)} component(s): {', '.join(failed)})")
        return 2
    print(f"PASS ({len(results)} checks)")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, jobs=False):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output directory (default .)")
    if jobs:
        sub.add_argument("--jobs", type=int, default=1,
                         help="parallel sweep workers (default 1)")


def build_parser():
    p = _Parser(prog="npc",
                description="neural predictive control for irregular "
                            "time series")
    sp = p.add_subparsers(dest="command", required=True, metavar="command")

    g = sp.add_parser("generate-data", help="write a builtin dataset "
                      "as CSV")
    g.add_argument("kind", choices=["toy-train", "toy-test", "sine"])
    _add_common(g)
    g.set_defaults(func=cmd_generate_data)

    t = sp.add_parser("train", help="train a model from a config")
    _add_common(t)
    t.add_argument("--data", help="builtin name or CSV path "
                   "(overrides the config's data key)")
    t.set_defaults(func=cmd_train)

    e = sp.add_parser("evaluate", help="metrics for a checkpoint "
                      "on a dataset")
    e.add_argument("checkpoint")
    e.add_argument("data", help="builtin name or CSV path")
    _add_common(e)
    e.set_defaults(func=cmd_evaluate)

    i = sp.add_parser("interpolate", help="model values at every series "
                      "time, as tidy CSV")
    i.add_argument("checkpoint")
    i.add_argument("data")
    _add_common(i)
    i.set_defaults(func=cmd_interpolate)

    x = sp.add_parser("extrapolate", help="forecast the tail of each "
                      "series")
    x.add_argument("checkpoint")
    x.add_argument("data")
    _add_common(x)
    x.set_defaults(func=cmd_extrapolate)

    s = sp.add_parser("sweep", help="RMSE table over (M, drop rate) cells")
    s.add_argument("m_values", nargs="?", default="2,3,4,5,6,7,8",
                   help="comma-separated planner horizons")
    s.add_argument("drop_rates", nargs="?", default="0.4,0.8",
                   help="comma-separated drop fractions in [0, 1)")
    _add_common(s, jobs=True)
    s.set_defaults(func=cmd_sweep)

    v = sp.add_parser("verify-theory", help="linear-quadratic stability "
                      "battery")
    v.add_argument("model", nargs="?", default="both",
                   help="scalar, double-integrator, both, or a JSON file "
                        "with a/b/c[/r] matrices")
    _add_common(v)
    v.set_defaults(func=cmd_verify_theory)

    c = sp.add_parser("grad-check", help="finite-difference gradient "
                      "suites")
    c.add_argument("component", nargs="?", default="all",
                   help="all, ops, or a registered composed model")
    _add_common(c)
    c.set_defaults(func=cmd_grad_check)
    return p


def _setup_logging():
    name = os.environ.get("NPC_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"npc: error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, CsvFormatError) as e:
        print(f"npc: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"npc: error: {e}", file=sys.stderr)
        return 1
    except (TrainingDiverged, GradCheckError, np.linalg.LinAlgError,
            ArithmeticError, AssertionError) as e:
        print(f"npc: failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"npc: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
