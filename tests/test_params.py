import numpy as np
import pytest

import npc.autodiff as ad
from npc.params import Adamax, ParamStore, uniform_init


def _store():
    s = ParamStore()
    s.create("psi.w", np.array([[1.0, 2.0]]), "psi")
    s.create("phi.w", np.array([3.0]), "phi")
    return s


def test_create_and_names_by_tag():
    s = _store()
    assert s.names() == ["psi.w", "phi.w"]
    assert s.names("psi") == ["psi.w"]
    assert s.tag("phi.w") == "phi"
    assert "psi.w" in s
    assert len(s) == 2


def test_duplicate_and_bad_tag_raise():
    s = _store()
    with pytest.raises(ValueError):
        s.create("psi.w", np.zeros(1), "psi")
    with pytest.raises(ValueError):
        s.create("x", np.zeros(1), "theta")


def test_set_value_shape_checked():
    s = _store()
    with pytest.raises(ValueError):
        s.set_value("phi.w", np.zeros(2))
    s.set_value("phi.w", np.array([9.0]))
    np.testing.assert_allclose(s.value("phi.w"), [9.0])


def test_node_cached_within_tape_and_refreshed_after_update():
    s = _store()
    n1 = s.node("psi.w")
    assert s.node("psi.w") is n1
    s.set_value("psi.w", np.array([[5.0, 6.0]]))
    n2 = s.node("psi.w")
    assert n2 is not n1
    np.testing.assert_allclose(n2.value, [[5.0, 6.0]])
    s.new_tape()
    assert s.node("psi.w") is not n2


def test_gradients_zero_for_untouched():
    s = _store()
    out = ad.sum_(ad.square(s.node("psi.w")))
    ad.backward(out)
    g = s.gradients()
    np.testing.assert_allclose(g["psi.w"], [[2.0, 4.0]])
    np.testing.assert_allclose(g["phi.w"], [0.0])
    g_psi = s.gradients("psi")
    assert set(g_psi) == {"psi.w"}


def test_uniform_init_bounds():
    rng = np.random.default_rng(0)
    w = uniform_init(rng, (200, 50), fan_in=25)
    assert np.all(np.abs(w) <= 1.0 / 5.0)
    assert np.abs(w).max() > 0.15  # actually spreads over the range


def test_adamax_matches_hand_computation():
    s = ParamStore()
    s.create("psi.x", np.array([1.0]), "psi")
    opt = Adamax(s, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)

    # step 1 with gradient 2
    opt.step({"psi.x": np.array([2.0])})
    m = 0.1 * 2.0
    u = max(0.0, abs(2.0))
    x = 1.0 - (0.1 / (1 - 0.9)) * m / (u + 1e-8)
    np.testing.assert_allclose(s.value("psi.x"), [x], rtol=1e-12)

    # step 2 with gradient -1
    opt.step({"psi.x": np.array([-1.0])})
    m = 0.9 * m + 0.1 * (-1.0)
    u = max(0.999 * u, 1.0)
    x = x - (0.1 / (1 - 0.9 ** 2)) * m / (u + 1e-8)
    np.testing.assert_allclose(s.value("psi.x"), [x], rtol=1e-12)


def test_adamax_skip_prefixes_and_missing_grads():
    s = _store()
    before_phi = s.value("phi.w").copy()
    before_psi = s.value("psi.w").copy()
    opt = Adamax(s, lr=0.5)
    opt.step({"psi.w": np.ones((1, 2)), "phi.w": np.ones(1)},
             skip_prefixes=("phi.",))
    np.testing.assert_array_equal(s.value("phi.w"), before_phi)
    assert not np.allclose(s.value("psi.w"), before_psi)
    # a param absent from grads is untouched
    now = s.value("phi.w").copy()
    opt.step({"psi.w": np.ones((1, 2))})
    np.testing.assert_array_equal(s.value("phi.w"), now)


def test_adamax_rejects_nonfinite_gradient():
    s = _store()
    opt = Adamax(s)
    with pytest.raises(FloatingPointError):
        opt.step({"psi.w": np.array([[np.nan, 0.0]])})
