import pytest

from npc.config import (DATASET_PRESETS, ConfigError, RunConfig,
                        load_run_config, parse_config_file)


def test_defaults():
    cfg = RunConfig()
    assert cfg.task == "classification" and cfg.algorithm == "npc"
    assert cfg.m == 5 and cfg.window == 4
    assert cfg.lr == 1e-3 and cfg.lam == 0.1
    assert cfg.drop == 0.0 and cfg.horizon == 0


def test_merged_unknown_key_names_origin():
    with pytest.raises(ConfigError) as err:
        RunConfig().merged({"learning_rate": "0.1"}, origin="option")
    assert "option" in str(err.value) and "learning_rate" in str(err.value)


def test_type_coercions():
    cfg = RunConfig().merged({"epochs": "12", "lr": "3e-4", "jumps": "off",
                              "cde_tanh": "TRUE", "task": "regression"})
    assert cfg.epochs == 12 and cfg.lr == 3e-4
    assert cfg.jumps is False and cfg.cde_tanh is True
    assert cfg.task == "regression"
    with pytest.raises(ConfigError):
        RunConfig().merged({"epochs": "twelve"})
    with pytest.raises(ConfigError):
        RunConfig().merged({"jumps": "maybe"})
    with pytest.raises(ConfigError):
        RunConfig().merged({"lr": "fast"})


def test_merged_does_not_mutate_source():
    base = RunConfig()
    base.merged({"epochs": "9"})
    assert base.epochs == 50


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# a comment line\n"
        "task = regression\n"
        "\n"
        "lr = 0.01   # trailing comment\n"
        "epochs=7\n")
    pairs = parse_config_file(p)
    assert pairs == {"task": "regression", "lr": "0.01", "epochs": "7"}


def test_parse_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("task regression\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(p)
    assert ":1:" in str(err.value)
    p.write_text("lr = 1\nlr = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(p)
    assert "duplicate" in str(err.value) and ":2:" in str(err.value)


def test_presets():
    assert DATASET_PRESETS["pv"] == {"window": 10, "m": 4, "lr": 0.0002,
                                     "lam": 0.005}
    cfg = load_run_config(preset="toy")
    assert cfg.window == 4 and cfg.m == 5 and cfg.lam == 0.2
    with pytest.raises(ConfigError):
        load_run_config(preset="mnist")


def test_composition_order(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("lam = 0.5\nepochs = 3\n")
    cfg = load_run_config(config_path=p, preset="toy",
                          overrides={"epochs": 9})
    # preset sets lam=0.2, file overrides to 0.5; file epochs=3 loses to
    # the explicit option
    assert cfg.lam == 0.5
    assert cfg.epochs == 9
    assert cfg.window == 4  # from preset, untouched downstream
    assert cfg.lr == 0.001


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
def test_lam_must_be_finite_and_nonnegative(tmp_path, lam):
    with pytest.raises(ConfigError, match="lam"):
        RunConfig().merged({"lam": lam})
    path = tmp_path / "run.conf"
    path.write_text(f"lam = {lam}\n")
    with pytest.raises(ConfigError, match="lam"):
        load_run_config(path)
