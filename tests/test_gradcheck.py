import numpy as np
import pytest

import npc.autodiff as ad
from npc import gradcheck


def test_op_suite_passes():
    results = gradcheck.run_ops(seed=0)
    assert results
    assert max(results.values()) < 1e-4


def test_corrupted_rule_is_caught():
    with pytest.raises(gradcheck.GradCheckError) as err:
        gradcheck.run_ops(seed=0, corrupt_op="tanh")
    assert "tanh" in str(err.value)


def test_check_function_reports_max_rel_err():
    def f(x):
        return ad.sum_(ad.square(x))

    worst = gradcheck.check_function(f, np.array([1.0, -2.0, 0.5]))
    assert worst < 1e-6


def test_check_function_corrupt_raises():
    def f(x):
        return ad.sum_(ad.square(x))

    with pytest.raises(gradcheck.GradCheckError):
        gradcheck.check_function(f, np.array([1.0, 2.0]), corrupt=1.01,
                                 name="square-sum")


def test_rel_err_zero_zero():
    assert gradcheck.rel_err(0.0, 0.0) == 0.0
    assert gradcheck.rel_err(1.0, 0.0) == 1.0


def test_component_registry():
    names = gradcheck.component_names()
    assert names[0] == "ops"
    for expected in ("controller", "ode_rnn", "cde", "costs"):
        assert expected in names
    with pytest.raises(KeyError):
        gradcheck.run_component("no_such_component")


def test_registered_component_runs():
    results = gradcheck.run_component("controller", seed=0)
    assert results
    assert max(results.values()) < 1e-4


def test_floor_absorbs_central_difference_rounding():
    # d/dx of 1e3 + x^2 at x = 1e-9 is 2e-9, below the difference's
    # rounding error of about 1e3 * eps / step
    def f(x):
        return ad.add(ad.sum_(ad.square(x)), ad.constant(1e3))

    assert gradcheck.check_function(f, np.array([1e-9, 1.0])) < 1e-4
    with pytest.raises(gradcheck.GradCheckError):
        gradcheck.check_function(f, np.array([1e-9, 1.0]), corrupt=1.01)


def test_cde_suite_near_zero_coordinate_passes():
    # seed 1 holds a correct cde.regression coordinate of -1.2e-7 that a
    # fixed 1e-8 floor rejected
    results = gradcheck.run_component("cde", seed=1)
    assert max(results.values()) < gradcheck.TOL


def test_every_public_op_has_a_check():
    exempt = {"Node", "constant", "leaf", "no_grad", "grad_enabled",
              "backward"}
    ops = {name.rstrip("_") for name in ad.__all__} - exempt
    checked = {name for name, _, _ in gradcheck.op_checks()}
    assert sorted(ops - checked) == []


def test_corrupted_fused_rule_is_caught():
    with pytest.raises(gradcheck.GradCheckError) as err:
        gradcheck.run_ops(seed=0, corrupt_op="gru_step")
    assert "gru_step" in str(err.value)


@pytest.mark.parametrize("entry", ["mlp_blocks", "mlp_blocks_x1",
                                   "mlp_field", "mlp_field_u",
                                   "cde_field", "cde_field_rows", "mse",
                                   "mse_weighted"])
def test_new_fused_entries_catch_corruption(entry):
    with pytest.raises(gradcheck.GradCheckError) as err:
        gradcheck.run_ops(seed=0, corrupt_op=entry)
    assert f"for {entry}:" in str(err.value)
