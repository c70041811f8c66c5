import json
import os
import subprocess
import sys

import numpy as np
import pytest

from npc import gradcheck
from npc.cli import main
from npc.datagen import TimeSeries, gen_sine_regression, save_csv

TINY = """
task = regression
epochs = 2
batch = 4
m = 2
window = 2
ctrl_hidden = 4
model_hidden = 4
action_dim = 3
fdepth = 1
substeps = 2
drop = 0.4
"""


def _write_sine_csv(path, n=4, length=16, seed=0):
    save_csv(gen_sine_regression(n_series=n, length=length, seed=seed), path)


def _write_labeled_csv(path, n=6, length=8):
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 1.0, length)
    series = [TimeSeries(t, (1.0 if i % 2 == 0 else -1.0)
                         + 0.05 * rng.normal(size=length), label=i % 2)
              for i in range(n)]
    save_csv(series, path)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny regression checkpoint shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "sine.csv"
    _write_sine_csv(data)
    cfg = root / "run.cfg"
    cfg.write_text(TINY + f"data = {data}\n")
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return {"root": root, "data": data, "cfg": cfg, "out": out,
            "ckpt": out / "checkpoint.json"}


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "npc: error:" in err


def test_missing_config_file_exit_1(capsys):
    assert main(["train", "--config", "/nonexistent/run.cfg"]) == 1


def test_unknown_config_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "learning_rate" in capsys.readouterr().err


def test_generate_data_deterministic(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_series = 3\nlength = 12\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["generate-data", "sine", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
    assert "wrote 3 series" in capsys.readouterr().out
    assert (out1 / "sine.csv").read_bytes() == (out2 / "sine.csv").read_bytes()


def test_generate_data_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate-data", "sine", "--seed", "1", "--out", str(a)]) == 0
    assert main(["generate-data", "sine", "--seed", "2", "--out", str(b)]) == 0
    assert (a / "sine.csv").read_bytes() != (b / "sine.csv").read_bytes()


def test_train_outputs(trained, capsys):
    out = trained["out"]
    assert (out / "checkpoint.json").exists()
    report = json.loads((out / "train_report.json").read_text())
    assert report["config"]["task"] == "regression"
    assert len(report["epoch_losses"]) == report["epochs_run"] == 2
    assert report["windows"] > 0


def test_train_is_deterministic(trained, tmp_path):
    out2 = tmp_path / "again"
    assert main(["train", "--config", str(trained["cfg"]),
                 "--out", str(out2)]) == 0
    assert (out2 / "checkpoint.json").read_bytes() \
        == trained["ckpt"].read_bytes()


def test_evaluate_regression(trained, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", str(trained["ckpt"]), str(trained["data"]),
                 "--config", str(trained["cfg"]), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "rmse" in stdout
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["task"] == "regression"
    assert np.isfinite(metrics["metrics"]["rmse"])
    header = (out / "points.csv").read_text().splitlines()[0]
    assert header == "series,time,channel,truth,prediction,mask"


def test_evaluate_without_drop_exit_1(trained, tmp_path, capsys):
    cfg = tmp_path / "nodrop.cfg"
    cfg.write_text(TINY.replace("drop = 0.4", "drop = 0.0")
                   + f"data = {trained['data']}\n")
    code = main(["evaluate", str(trained["ckpt"]), str(trained["data"]),
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "drop" in capsys.readouterr().err


def test_evaluate_missing_dataset_exit_1(trained, tmp_path):
    assert main(["evaluate", str(trained["ckpt"]), "nope.csv",
                 "--out", str(tmp_path)]) == 1


def test_interpolate(trained, tmp_path, capsys):
    out = tmp_path / "interp"
    code = main(["interpolate", str(trained["ckpt"]), str(trained["data"]),
                 "--config", str(trained["cfg"]), "--out", str(out)])
    assert code == 0
    lines = (out / "interpolation.csv").read_text().splitlines()
    assert lines[0] == "series,time,channel,truth,prediction,mask"
    assert len(lines) == 1 + 4 * 16  # one row per series point


def test_extrapolate(trained, tmp_path, capsys):
    out = tmp_path / "extra"
    code = main(["extrapolate", str(trained["ckpt"]), str(trained["data"]),
                 "--config", str(trained["cfg"]), "--out", str(out)])
    assert code == 0
    assert "rmse" in capsys.readouterr().out
    lines = (out / "extrapolation.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 2  # m=2 tail points per series


def _hide_tail(path, series, hide):
    """Save series with the points hide[i] places before the end hidden."""
    out = []
    for s in series:
        mask = s.mask.copy()
        mask[[s.length - 1 - j for j in hide]] = False
        out.append(TimeSeries(s.times, s.values, mask=mask))
    save_csv(out, path)


def test_extrapolate_scores_only_observed_tail_points(trained, tmp_path,
                                                      capsys):
    data = tmp_path / "tail.csv"
    _hide_tail(data, gen_sine_regression(n_series=4, length=16, seed=0),
               hide=[0])
    out = tmp_path / "extra"
    code = main(["extrapolate", str(trained["ckpt"]), str(data),
                 "--config", str(trained["cfg"]), "--out", str(out)])
    assert code == 0
    rmse = float(capsys.readouterr().out.split("rmse ")[1].split(";")[0])
    assert np.isfinite(rmse)
    rows = (out / "extrapolation.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * 2
    truth = [r.split(",")[3] for r in rows]
    assert truth[1::2] == [""] * 4      # the hidden last point of each
    assert all(truth[0::2])


def test_interpolate_leaves_truth_of_hidden_rows_empty(trained, tmp_path):
    data = tmp_path / "hidden.csv"
    _hide_tail(data, gen_sine_regression(n_series=4, length=16, seed=0),
               hide=[1])
    out = tmp_path / "interp"
    code = main(["interpolate", str(trained["ckpt"]), str(data),
                 "--config", str(trained["cfg"]), "--out", str(out)])
    assert code == 0
    rows = [r.split(",") for r in
            (out / "interpolation.csv").read_text().splitlines()[1:]]
    hidden = [r for r in rows if r[3] == ""]
    assert len(hidden) == 4
    assert all(r[5] == "0" and np.isfinite(float(r[4])) for r in hidden)


def test_extrapolate_without_observed_tail_exit_1(trained, tmp_path, capsys):
    data = tmp_path / "tail.csv"
    _hide_tail(data, gen_sine_regression(n_series=4, length=16, seed=0),
               hide=[0, 1])
    code = main(["extrapolate", str(trained["ckpt"]), str(data),
                 "--config", str(trained["cfg"]), "--out", str(tmp_path)])
    assert code == 1
    assert "nothing to score" in capsys.readouterr().err


def test_extrapolate_horizon_too_large_exit_1(trained, tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(TINY + f"data = {trained['data']}\nhorizon = 9\n")
    code = main(["extrapolate", str(trained["ckpt"]), str(trained["data"]),
                 "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    assert "horizon" in capsys.readouterr().err


def test_channel_mismatch_exit_1(trained, tmp_path, capsys):
    data = tmp_path / "wide.csv"
    t = np.linspace(0.0, 1.0, 8)
    save_csv([TimeSeries(t, np.zeros((8, 2)) + np.sin(t)[:, None])], data)
    code = main(["evaluate", str(trained["ckpt"]), str(data),
                 "--config", str(trained["cfg"]), "--out", str(tmp_path)])
    assert code == 1
    assert "npc: error:" in capsys.readouterr().err


def test_classification_flow(tmp_path, capsys):
    data = tmp_path / "labeled.csv"
    _write_labeled_csv(data)
    cfg = tmp_path / "cls.cfg"
    cfg.write_text(
        f"task = classification\ndata = {data}\nepochs = 6\nbatch = 8\n"
        "m = 2\nwindow = 2\nctrl_hidden = 4\nmodel_hidden = 4\n"
        "action_dim = 3\nfdepth = 1\nsubsteps = 2\nlr = 0.01\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["evaluate", str(out / "checkpoint.json"), str(data),
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["metrics"]["n_series"] == 6
    # interpolation is a regression-only command
    assert main(["interpolate", str(out / "checkpoint.json"), str(data),
                 "--out", str(out)]) == 1


def test_classification_needs_labels_exit_1(tmp_path, capsys):
    data = tmp_path / "plain.csv"
    _write_sine_csv(data)
    cfg = tmp_path / "cls.cfg"
    cfg.write_text(f"task = classification\ndata = {data}\nepochs = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "label" in capsys.readouterr().err


def test_sweep(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "task = regression\nepochs = 1\nbatch = 4\nwindow = 2\n"
        "ctrl_hidden = 4\nmodel_hidden = 4\naction_dim = 3\nfdepth = 1\n"
        "substeps = 2\nn_series = 2\nlength = 12\ncycles = 1.0\n")
    out = tmp_path / "sweep"
    code = main(["sweep", "2,3", "0.4", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    assert "swept 2 cells" in capsys.readouterr().out
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "m,drop_rate,rmse,mape_percent,n_points,seed"
    assert len(lines) == 3
    assert [row.split(",")[0] for row in lines[1:]] == ["2", "3"]


def test_sweep_bad_values_exit_1(tmp_path):
    assert main(["sweep", "two", "0.4", "--out", str(tmp_path)]) == 1


def test_verify_theory_scalar(tmp_path, capsys):
    out = tmp_path / "theory"
    assert main(["verify-theory", "scalar", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "scalar ARE" in stdout
    report = json.loads((out / "theory.json").read_text())
    assert report["passed"]
    assert set(report["theorem1"]) == {"scalar"}
    lines = (out / "discrepancy.csv").read_text().splitlines()
    assert lines[0] == "model,horizon,sup_discrepancy"
    assert len(lines) == 5  # 4 horizons


def test_verify_theory_custom_model(tmp_path, capsys):
    spec = tmp_path / "sys.json"
    spec.write_text(json.dumps({"a": [[0.0]], "b": [[1.0]], "c": [[1.0]]}))
    assert main(["verify-theory", str(spec), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "theory.json").read_text())
    assert set(report["theorem2"]) == {"sys"}


def test_verify_theory_bad_model_exit_1(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"a": [[0.0]]}))
    assert main(["verify-theory", str(spec), "--out", str(tmp_path)]) == 1
    assert "missing keys" in capsys.readouterr().err


def test_grad_check_ops(tmp_path, capsys):
    out = tmp_path / "gc"
    assert main(["grad-check", "ops", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "ok ops." in stdout and "PASS" in stdout
    payload = json.loads((out / "grad_check.json").read_text())
    assert payload["passed"] and not payload["failed"]
    assert all(v < 1e-4 for v in payload["results"].values())


def test_grad_check_unknown_component_exit_1(tmp_path, capsys):
    assert main(["grad-check", "warp_drive", "--out", str(tmp_path)]) == 1
    assert "warp_drive" in capsys.readouterr().err


def test_grad_check_failure_exit_2(tmp_path, capsys):
    def broken(seed):
        raise gradcheck.GradCheckError("gradient check failed for planted")

    gradcheck.register("planted", broken)
    try:
        code = main(["grad-check", "planted", "--out", str(tmp_path)])
    finally:
        del gradcheck._COMPONENTS["planted"]
    assert code == 2
    stdout = capsys.readouterr().out
    assert "FAIL planted" in stdout
    payload = json.loads((tmp_path / "grad_check.json").read_text())
    assert payload["failed"] == ["planted"]


def test_console_script_on_path(tmp_path):
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "npc.cli", "generate-data", "sine",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "sine.csv").exists()
