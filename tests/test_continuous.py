import numpy as np
import pytest

import npc.autodiff as ad
from npc.continuous import ContinuousConfig, ContinuousModel
from npc.controller import ActionSequence
from npc.params import ParamStore
from npc.spline import CubicPath


def _model(backend="ode_rnn", jumps=True, seed=0, action_dim=3, hidden=4):
    cfg = ContinuousConfig(obs_dim=2, action_dim=action_dim, hidden=hidden,
                           backend=backend, fdepth=1, jumps=jumps,
                           readout_dim=2)
    model = ContinuousModel(cfg)
    store = ParamStore()
    model.init(store, np.random.default_rng(seed))
    return model, store


def _seq(batch=2, m=2, action_dim=3, seed=1):
    rng = np.random.default_rng(seed)
    actions = [ad.constant(rng.normal(size=(batch, action_dim)))
               for _ in range(m + 1)]
    times = np.linspace(0.0, 0.5 * m, m + 1)
    return ActionSequence(actions=actions, anchor=0, anchor_times=times)


@pytest.mark.parametrize("backend", ["ode_rnn", "cde"])
def test_evolve_shapes_and_times(backend):
    model, store = _model(backend)
    seq = _seq()
    h0 = model.encode_initial(store, np.random.default_rng(2).normal(size=(2, 2)))
    traj = model.evolve(store, h0, seq, substeps=3)
    assert len(traj.states) == 2
    assert all(s.value.shape == (2, 4) for s in traj.states)
    np.testing.assert_array_equal(traj.times, seq.anchor_times[1:])


def test_encode_initial_bounded():
    model, store = _model()
    h = model.encode_initial(store, np.full((3, 2), 100.0))
    assert np.all(np.abs(h.value) <= 1.0)
    h2 = model.encode_initial(store, np.random.default_rng(0).normal(size=(3, 2)))
    assert np.all(np.abs(h2.value) < 1.0)


def test_jumps_change_the_flow():
    m_jump, store = _model(jumps=True, seed=3)
    m_flow = ContinuousModel(ContinuousConfig(
        obs_dim=2, action_dim=3, hidden=4, backend="ode_rnn", fdepth=1,
        jumps=False, readout_dim=2))
    seq = _seq(seed=4)
    h0 = np.zeros((2, 4))
    a = m_jump.evolve(store, h0, seq, substeps=2).states[-1].value
    b = m_flow.evolve(store, h0, seq, substeps=2).states[-1].value
    assert not np.allclose(a, b)


@pytest.mark.parametrize("backend", ["ode_rnn", "cde"])
def test_commit_step_matches_first_evolve_state(backend):
    model, store = _model(backend, seed=5)
    seq = _seq(seed=6)
    h0 = ad.constant(np.random.default_rng(7).normal(size=(2, 4)) * 0.1)
    full = model.evolve(store, h0, seq, substeps=4)
    _, committed = model.commit_step(store, h0, seq, substeps=4)
    np.testing.assert_array_equal(committed.value, full.states[0].value)


@pytest.mark.parametrize("call", ["evolve", "commit_step"])
def test_cde_one_weight_matrix_per_call(call, monkeypatch):
    calls = []
    original = CubicPath.derivative_weights

    def counting(self, ts, side="right"):
        calls.append(len(ts))
        return original(self, ts, side)

    monkeypatch.setattr(CubicPath, "derivative_weights", counting)
    model, store = _model("cde", seed=16)
    seq = _seq(seed=17)
    h0 = ad.constant(np.zeros((2, 4)))
    if call == "evolve":
        model.evolve(store, h0, seq, substeps=3)
        stages = 2 * 3 * 4
    else:
        model.commit_step(store, h0, seq, substeps=3, queries=(0.2,))
        stages = 4 * 4
    assert calls == [stages]


def test_cde_last_stage_rounding_past_the_end_knot():
    # 0.3 + (0.9 - 0.3) rounds above 0.9: the final rk4 stage must still
    # read the spline's derivative at its end
    model, store = _model("cde", seed=18)
    rng = np.random.default_rng(19)
    actions = [ad.constant(rng.normal(size=(1, 3))) for _ in range(3)]
    seq = ActionSequence(actions=actions, anchor=0,
                         anchor_times=np.array([0.0, 0.3, 0.9]))
    traj = model.evolve(store, np.zeros((1, 4)), seq, substeps=1)
    assert np.all(np.isfinite(traj.states[-1].value))


def test_commit_step_interior_queries():
    model, store = _model(seed=8)
    seq = _seq(seed=9)
    qs = (0.2, 0.3)
    out, _ = model.commit_step(store, ad.constant(np.zeros((2, 4))), seq,
                               substeps=4, queries=qs)
    assert [t for t, _ in out] == list(qs)
    assert all(s.value.shape == (2, 4) for _, s in out)


@pytest.mark.parametrize("backend", ["ode_rnn", "cde"])
@pytest.mark.parametrize("q", [0.5, 0.7])
def test_commit_step_rejects_queries_outside_interval(backend, q):
    # the first interval is (0.0, 0.5): its end and a time past it
    model, store = _model(backend, seed=8)
    with pytest.raises(ValueError) as err:
        model.commit_step(store, ad.constant(np.zeros((2, 4))), _seq(seed=9),
                          substeps=4, queries=(q,))
    assert f"interior time {q} is not strictly inside" in str(err.value)


def test_ragged_anchor_times():
    model, store = _model(seed=10)
    rng = np.random.default_rng(11)
    actions = [ad.constant(rng.normal(size=(2, 3))) for _ in range(3)]
    times = np.array([[0.0, 0.4, 1.0], [0.1, 0.6, 0.9]])
    seq = ActionSequence(actions=actions, anchor=0, anchor_times=times)
    traj = model.evolve(store, np.zeros((2, 4)), seq, substeps=3)
    assert traj.states[-1].value.shape == (2, 4)
    # row 0 must match the same series run with a shared clock
    solo_actions = [ad.constant(a.value[:1]) for a in actions]
    solo = ActionSequence(actions=solo_actions, anchor=0,
                          anchor_times=times[0])
    ref = model.evolve(store, np.zeros((1, 4)), solo, substeps=3)
    np.testing.assert_allclose(traj.states[-1].value[0], ref.states[-1].value[0],
                               atol=1e-10)


def test_ragged_cde_matches_shared_clock():
    model, store = _model("cde", seed=12)
    rng = np.random.default_rng(13)
    actions = [ad.constant(rng.normal(size=(2, 3))) for _ in range(3)]
    shared = np.array([0.0, 0.5, 1.0])
    times = np.stack([shared, shared + 0.2])
    seq = ActionSequence(actions=actions, anchor=0, anchor_times=times)
    traj = model.evolve(store, np.zeros((2, 4)), seq, substeps=3)
    solo_actions = [ad.constant(a.value[1:]) for a in actions]
    solo = ActionSequence(actions=solo_actions, anchor=0,
                          anchor_times=times[1])
    ref = model.evolve(store, np.zeros((1, 4)), solo, substeps=3)
    np.testing.assert_allclose(traj.states[-1].value[1], ref.states[-1].value[0],
                               atol=1e-10)


def test_readout_shape():
    model, store = _model()
    out = model.readout(store, ad.constant(np.zeros((5, 4))))
    assert out.value.shape == (5, 2)


def test_backend_validation():
    with pytest.raises(ValueError):
        ContinuousConfig(obs_dim=1, action_dim=1, backend="latent_sde")
    with pytest.raises(ValueError):
        ContinuousConfig(obs_dim=1, action_dim=1, fdepth=-1)


def test_cde_batched_queries_rejected():
    model, store = _model("cde", seed=14)
    rng = np.random.default_rng(15)
    actions = [ad.constant(rng.normal(size=(2, 3))) for _ in range(3)]
    times = np.array([[0.0, 0.4, 1.0], [0.1, 0.6, 0.9]])
    seq = ActionSequence(actions=actions, anchor=0, anchor_times=times)
    with pytest.raises(ValueError):
        model.commit_step(store, ad.constant(np.zeros((2, 4))), seq,
                          queries=(0.2,))
