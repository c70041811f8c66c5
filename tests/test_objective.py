import numpy as np
import pytest

import npc.autodiff as ad
from npc.continuous import ContinuousConfig, ContinuousModel, HiddenTrajectory
from npc.controller import ActionSequence, Controller, ControllerConfig
from npc.objective import (action_regularizer, classification_cost,
                           regression_cost, total_objective)
from npc.params import ParamStore


class _IdentityModel:
    """Readout is the state itself, so costs are hand-checkable."""

    def readout(self, store, h):
        return h


def test_classification_cost_hand_value():
    model = _IdentityModel()
    logits = ad.constant(np.array([[2.0, 0.0], [0.0, 2.0]]))
    traj = HiddenTrajectory(times=np.array([1.0]), states=[logits])
    cost = classification_cost(model, None, traj, np.array([0, 0]))
    # row 0: -log softmax(2,0)[0]; row 1: -log softmax(0,2)[0]
    p0 = np.exp(2.0) / (np.exp(2.0) + 1.0)
    p1 = 1.0 / (1.0 + np.exp(2.0))
    expect = -0.5 * (np.log(p0) + np.log(p1))
    np.testing.assert_allclose(cost.value, expect, rtol=1e-12)


def test_classification_uses_terminal_state_only():
    model = _IdentityModel()
    early = ad.constant(np.full((1, 2), 100.0))
    late = ad.constant(np.array([[3.0, 0.0]]))
    traj = HiddenTrajectory(times=np.array([0.5, 1.0]), states=[early, late])
    cost = classification_cost(model, None, traj, np.array([0]))
    expect = -np.log(np.exp(3.0) / (np.exp(3.0) + 1.0))
    np.testing.assert_allclose(cost.value, expect, rtol=1e-12)


def test_regression_cost_hand_value():
    model = _IdentityModel()
    states = [ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]])),
              ad.constant(np.array([[0.0, 0.0], [0.0, 0.0]]))]
    targets = [np.zeros((2, 2)), np.array([[2.0, 0.0], [0.0, 0.0]])]
    cost = regression_cost(model, None, states, targets)
    # term 0: mean over batch of channel-mean squares = ((1+4)/2 + (9+16)/2)/2
    # term 1: ((4+0)/2 + 0)/2
    expect = ((2.5 + 12.5) / 2.0) + (2.0 / 2.0)
    np.testing.assert_allclose(cost.value, expect, rtol=1e-12)


def test_regression_none_targets_skipped():
    model = _IdentityModel()
    states = [ad.constant(np.ones((1, 1))), ad.constant(np.full((1, 1), 3.0))]
    cost = regression_cost(model, None, states, [None, np.zeros((1, 1))])
    np.testing.assert_allclose(cost.value, 9.0, rtol=1e-12)


def test_regression_all_none_raises():
    model = _IdentityModel()
    states = [ad.constant(np.ones((1, 1)))]
    with pytest.raises(ValueError):
        regression_cost(model, None, states, [None])


def test_regression_length_mismatch_raises():
    model = _IdentityModel()
    with pytest.raises(ValueError):
        regression_cost(model, None, [ad.constant(np.ones((1, 1)))], [])


def test_regression_sample_weights():
    model = _IdentityModel()
    states = [ad.constant(np.array([[2.0], [10.0]]))]
    targets = [np.zeros((2, 1))]
    cost = regression_cost(model, None, states, targets,
                           weights=[np.array([1.0, 0.0])])
    np.testing.assert_allclose(cost.value, 4.0, rtol=1e-12)
    # a horizon whose mask is all zero is skipped, not an error
    cost2 = regression_cost(model, None, states + states,
                            [targets[0], targets[0]],
                            weights=[np.array([1.0, 0.0]),
                                     np.array([0.0, 0.0])])
    np.testing.assert_allclose(cost2.value, 4.0, rtol=1e-12)


def _controller(seed=0):
    cfg = ControllerConfig(obs_dim=2, hidden=4, action_dim=3, horizon=2,
                           readout_dim=2)
    ctrl = Controller(cfg)
    store = ParamStore()
    ctrl.init(store, np.random.default_rng(seed))
    return ctrl, store


def _seq(batch=2):
    rng = np.random.default_rng(5)
    actions = [ad.constant(rng.normal(size=(batch, 3))) for _ in range(3)]
    return ActionSequence(actions=actions, anchor=0,
                          anchor_times=np.array([0.0, 1.0, 2.0]))


def test_regularizer_trains_psi_only():
    ctrl, store = _controller()
    cfg = ContinuousConfig(obs_dim=2, action_dim=3, hidden=4, readout_dim=2)
    model = ContinuousModel(cfg)
    model.init(store, np.random.default_rng(1))
    seq = _seq()
    reg = action_regularizer(ctrl, store, seq, np.array([0, 1]),
                             "classification")
    assert reg.value.shape == ()
    ad.backward(reg)
    grads = store.gradients()
    psi = [n for n in grads if n.startswith("ctrl.readout")]
    phi = [n for n in grads if not n.startswith("ctrl.")]
    assert any(np.any(grads[n] != 0) for n in psi)
    assert all(np.all(grads[n] == 0) for n in phi)


def test_regularizer_regression_none_fallback():
    ctrl, store = _controller()
    seq = _seq()
    reg = action_regularizer(ctrl, store, seq, [None, None, None],
                             "regression")
    np.testing.assert_allclose(reg.value, 0.0)


def test_regularizer_regression_value():
    ctrl, store = _controller(seed=2)
    seq = _seq()
    target = [np.zeros((2, 2)), None, np.zeros((2, 2))]
    reg = action_regularizer(ctrl, store, seq, target, "regression")
    terms = []
    for k in (0, 2):
        out = ctrl.readout(store, seq.actions[k]).value
        terms.append(np.mean(np.mean(out ** 2, axis=1)))
    np.testing.assert_allclose(reg.value, sum(terms), rtol=1e-12)


def test_total_objective_composition():
    cost = ad.constant(2.0)
    reg = ad.constant(3.0)
    assert total_objective(cost, reg, 0.0) is cost
    np.testing.assert_allclose(total_objective(cost, reg, 0.5).value, 3.5)
