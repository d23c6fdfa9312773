import math

import numpy as np
import pytest

from fact2question.autodiff import (
    Tape,
    Tensor,
    add,
    backprop,
    concat,
    finite_diff_check,
    log_softmax,
    matvec,
    mul,
    one_minus,
    pick,
    scale,
    sigmoid,
    softmax,
    take_row,
    tanh_act,
)
from fact2question.errors import ContractError, DimensionError, NumericError


def test_matvec_identity():
    out = matvec(Tensor(np.eye(2)), Tensor([3.0, 4.0]))
    assert np.array_equal(out.value, [3.0, 4.0])


def test_matvec_zero_matrix():
    out = matvec(Tensor(np.zeros((2, 2))), Tensor([5.0, 7.0]))
    assert np.array_equal(out.value, [0.0, 0.0])


def test_matvec_hand_computed():
    out = matvec(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([1.0, 1.0]))
    assert np.array_equal(out.value, [3.0, 7.0])


def test_matvec_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3,\)"):
        matvec(Tensor(np.eye(2)), Tensor([1.0, 2.0, 3.0]))


def test_sigmoid_at_zero():
    assert sigmoid(Tensor([0.0])).value[0] == 0.5


def test_sigmoid_saturation_stays_positive():
    v = sigmoid(Tensor([-1000.0])).value[0]
    assert 0.0 < v <= 1e-300
    assert np.isfinite(v)
    hi = sigmoid(Tensor([1000.0])).value[0]
    assert hi < 1.0


def test_sigmoid_closed_form():
    assert sigmoid(Tensor([math.log(3.0)])).value[0] == pytest.approx(0.75, abs=1e-15)


def test_tanh_zero_and_saturation():
    assert tanh_act(Tensor([0.0])).value[0] == 0.0
    v = tanh_act(Tensor([1e6])).value[0]
    assert abs(v - 1.0) < 1e-12
    assert v < 1.0


def test_tanh_closed_form():
    assert tanh_act(Tensor([0.5 * math.log(3.0)])).value[0] == pytest.approx(0.5, abs=1e-15)


def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).value, [0.5, 0.5])


def test_softmax_large_logits_stable():
    out = softmax(Tensor([1000.0, 0.0])).value
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < out[1] < 1e-300


def test_softmax_closed_form():
    out = softmax(Tensor([math.log(1.0), math.log(3.0)])).value
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ContractError):
        softmax(Tensor(np.zeros(0)))


@pytest.mark.parametrize("seed", range(20))
def test_softmax_sums_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0, size=rng.integers(1, 12))
    p = softmax(Tensor(x)).value
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0)
    shifted = softmax(Tensor(x + 123.456)).value
    assert np.max(np.abs(p - shifted)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_activations_stay_in_open_range(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=500.0, size=32)
    s = sigmoid(Tensor(x)).value
    t = tanh_act(Tensor(x)).value
    assert np.all((s > 0.0) & (s < 1.0))
    assert np.all((t > -1.0) & (t < 1.0))


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_backprop_linear_case():
    w = Tensor([5.0], name="w")
    x = Tensor([2.0])
    with Tape() as tape:
        tape.watch({"w": w})
        loss = pick(mul(w, x), 0)
    grads = backprop(tape, loss)
    assert np.array_equal(grads["w"], [2.0])


def test_backprop_sigmoid_slope():
    c = 3.0
    x = Tensor([0.0], name="x")
    with Tape() as tape:
        tape.watch({"x": x})
        loss = pick(mul(sigmoid(x), Tensor([c])), 0)
    grads = backprop(tape, loss)
    assert grads["x"][0] == pytest.approx(0.25 * c, abs=1e-14)


def test_backprop_unused_parameter_gets_zeros():
    used = Tensor([1.0, 2.0], name="used")
    unused = Tensor(np.ones((3, 3)), name="unused")
    with Tape() as tape:
        tape.watch({"used": used, "unused": unused})
        loss = pick(mul(used, used), 1)
    grads = backprop(tape, loss)
    assert np.array_equal(grads["unused"], np.zeros((3, 3)))
    assert np.array_equal(grads["used"], [0.0, 4.0])


def test_backprop_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        tape.watch({"x": x})
        loss = mul(x, x)
    with pytest.raises(ContractError):
        backprop(tape, loss)


def test_backprop_rejects_off_tape_loss():
    x = Tensor([1.0])
    with Tape() as tape:
        tape.watch({"x": x})
    with pytest.raises(ContractError):
        backprop(tape, pick(x, 0))


def test_finite_diff_square():
    w = Tensor([3.0], name="w")
    err = finite_diff_check(lambda: pick(mul(w, w), 0), {"w": w}, eps=1e-5)
    assert err <= 1e-8


def test_finite_diff_constant_function():
    w = Tensor([3.0], name="w")
    c = Tensor([7.0])
    err = finite_diff_check(lambda: pick(mul(c, c), 0), {"w": w}, eps=1e-5)
    assert err == 0.0


def test_finite_diff_rejects_bad_eps():
    w = Tensor([3.0])
    with pytest.raises(ContractError):
        finite_diff_check(lambda: pick(w, 0), {"w": w}, eps=0.0)


def _random_composite_loss(params, x):
    """Mixes every op: two layers, attention-style scaling, log-softmax pick."""
    h = tanh_act(matvec(params["w1"], x))
    gate = sigmoid(matvec(params["w2"], h))
    mixed = add(mul(gate, h), mul(one_minus(gate), mul(h, h)))
    alpha = softmax(matvec(params["w3"], concat((mixed, h))))
    ctx = add(scale(pick(alpha, 0), mixed), scale(pick(alpha, 1), h))
    row = take_row(params["emb"], 1)
    logits = matvec(params["w4"], add(ctx, row))
    return pick(log_softmax(logits), 2)


@pytest.mark.parametrize("seed", range(5))
def test_backprop_matches_finite_differences_on_composite_graph(seed):
    rng = np.random.default_rng(seed)
    d = 4
    params = {
        "w1": Tensor(rng.normal(scale=0.5, size=(d, d)), name="w1"),
        "w2": Tensor(rng.normal(scale=0.5, size=(d, d)), name="w2"),
        "w3": Tensor(rng.normal(scale=0.5, size=(2, 2 * d)), name="w3"),
        "w4": Tensor(rng.normal(scale=0.5, size=(5, d)), name="w4"),
        "emb": Tensor(rng.normal(scale=0.5, size=(3, d)), name="emb"),
    }
    x = Tensor(rng.normal(size=d))
    err = finite_diff_check(lambda: _random_composite_loss(params, x), params,
                            eps=1e-5)
    assert err <= 1e-4


def test_tapes_nest_and_do_not_leak():
    x = Tensor([2.0], name="x")
    with Tape() as outer:
        outer.watch({"x": x})
        y = mul(x, x)
        with Tape() as inner:
            inner.watch({"x": x})
            z = pick(mul(y, x), 0)
        # y was produced on the outer tape, so the inner tape treats it
        # as a constant: dz/dx = y = 4
        assert backprop(inner, z)["x"][0] == pytest.approx(4.0)
    # the outer tape is intact and differentiates its own nodes
    with Tape() as tape:
        tape.watch({"x": x})
        loss = pick(mul(x, x), 0)
    assert backprop(tape, loss)["x"][0] == pytest.approx(4.0)
