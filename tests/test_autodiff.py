import math
import re

import numpy as np
import pytest

from fact2question.autodiff import Tape, backprop, custom_op, finite_diff_check
from fact2question.errors import ContractError, DimensionError, NumericError
from tape_oracle import (
    add,
    concat,
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


def test_matvec_identity():
    out = matvec(np.eye(2), np.array([3.0, 4.0], dtype=float))
    assert np.array_equal(out, [3.0, 4.0])


def test_matvec_zero_matrix():
    out = matvec(np.zeros((2, 2)), np.array([5.0, 7.0], dtype=float))
    assert np.array_equal(out, [0.0, 0.0])


def test_matvec_hand_computed():
    w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=float)
    out = matvec(w, np.array([1.0, 1.0], dtype=float))
    assert np.array_equal(out, [3.0, 7.0])


def test_matvec_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 2\).*\(3,\)"):
        matvec(np.eye(2), np.array([1.0, 2.0, 3.0], dtype=float))


def test_sigmoid_at_zero():
    assert sigmoid(np.array([0.0], dtype=float))[0] == 0.5


def test_sigmoid_saturation_stays_positive():
    v = sigmoid(np.array([-1000.0], dtype=float))[0]
    assert 0.0 < v <= 1e-300
    assert np.isfinite(v)
    hi = sigmoid(np.array([1000.0], dtype=float))[0]
    assert hi < 1.0


def test_sigmoid_closed_form():
    out = sigmoid(np.array([math.log(3.0)], dtype=float))
    assert out[0] == pytest.approx(0.75, abs=1e-15)


def test_tanh_zero_and_saturation():
    assert tanh_act(np.array([0.0], dtype=float))[0] == 0.0
    v = tanh_act(np.array([1e6], dtype=float))[0]
    assert abs(v - 1.0) < 1e-12
    assert v < 1.0


def test_tanh_closed_form():
    out = tanh_act(np.array([0.5 * math.log(3.0)], dtype=float))
    assert out[0] == pytest.approx(0.5, abs=1e-15)


def test_softmax_symmetry():
    assert np.allclose(softmax(np.array([0.0, 0.0], dtype=float)), [0.5, 0.5])


def test_softmax_large_logits_stable():
    out = softmax(np.array([1000.0, 0.0], dtype=float))
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < out[1] < 1e-300


def test_softmax_closed_form():
    out = softmax(np.array([math.log(1.0), math.log(3.0)], dtype=float))
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(ContractError):
        softmax(np.zeros(0))


@pytest.mark.parametrize("seed", range(20))
def test_softmax_sums_to_one_and_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0, size=rng.integers(1, 12))
    p = softmax(x)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0)
    shifted = softmax(x + 123.456)
    assert np.max(np.abs(p - shifted)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_activations_stay_in_open_range(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=500.0, size=32)
    s = sigmoid(x)
    t = tanh_act(x)
    assert np.all((s > 0.0) & (s < 1.0))
    assert np.all((t > -1.0) & (t < 1.0))


def test_custom_op_rejects_non_finite():
    with pytest.raises(NumericError, match=r"^non-finite values in tensor$"):
        custom_op(np.array([1.0, np.nan], dtype=float), (), lambda g: ())


def test_custom_op_returns_a_new_array_even_for_its_parent():
    x = np.array([1.0, 2.0], dtype=float)
    with Tape() as tape:
        out = custom_op(x, (x,), lambda g: (g,))
    assert out is not x
    assert not np.shares_memory(out, x)
    assert out.dtype == np.float64 and np.array_equal(out, x)
    assert len(tape) == 1


def test_backprop_through_add_of_a_node_with_itself():
    # both parents of the add node are x: their gradients accumulate
    x = np.array([1.0, -2.0, 0.5], dtype=float)
    g = np.array([0.25, 3.0, -1.5], dtype=float)
    with Tape() as tape:
        tape.watch({"x": x})
        doubled = add(x, x)
        loss = custom_op(np.dot(g, doubled), (doubled,), lambda up: (up * g,))
    assert np.array_equal(backprop(tape, loss)["x"], 2 * g)


def test_backprop_linear_case():
    w = np.array([5.0], dtype=float)
    x = np.array([2.0], dtype=float)
    with Tape() as tape:
        tape.watch({"w": w})
        loss = pick(mul(w, x), 0)
    grads = backprop(tape, loss)
    assert np.array_equal(grads["w"], [2.0])


def test_backprop_sigmoid_slope():
    c = 3.0
    x = np.array([0.0], dtype=float)
    with Tape() as tape:
        tape.watch({"x": x})
        loss = pick(mul(sigmoid(x), np.array([c], dtype=float)), 0)
    grads = backprop(tape, loss)
    assert grads["x"][0] == pytest.approx(0.25 * c, abs=1e-14)


def test_backprop_unused_parameter_gets_zeros():
    used = np.array([1.0, 2.0], dtype=float)
    unused = np.ones((3, 3))
    with Tape() as tape:
        tape.watch({"used": used, "unused": unused})
        loss = pick(mul(used, used), 1)
    grads = backprop(tape, loss)
    assert np.array_equal(grads["unused"], np.zeros((3, 3)))
    assert np.array_equal(grads["used"], [0.0, 4.0])


def test_backprop_rejects_non_scalar_loss():
    x = np.array([1.0, 2.0], dtype=float)
    with Tape() as tape:
        tape.watch({"x": x})
        loss = mul(x, x)
    with pytest.raises(ContractError):
        backprop(tape, loss)


def test_backprop_rejects_off_tape_loss():
    x = np.array([1.0], dtype=float)
    with Tape() as tape:
        tape.watch({"x": x})
    with pytest.raises(ContractError):
        backprop(tape, pick(x, 0))


def test_finite_diff_square():
    w = np.array([3.0], dtype=float)
    err = finite_diff_check(lambda: pick(mul(w, w), 0), {"w": w}, eps=1e-5)
    assert err <= 1e-8


def test_finite_diff_constant_function():
    w = np.array([3.0], dtype=float)
    c = np.array([7.0], dtype=float)
    err = finite_diff_check(lambda: pick(mul(c, c), 0), {"w": w}, eps=1e-5)
    assert err == 0.0


def test_finite_diff_rejects_bad_eps():
    w = np.array([3.0], dtype=float)
    for eps in (0.0, -1e-5, np.nan, np.inf):
        message = f"finite_diff_check: eps must be positive and finite, got {eps}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            finite_diff_check(lambda: pick(w, 0), {"w": w}, eps=eps)
    assert np.array_equal(w, [3.0])


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
        "w1": rng.normal(scale=0.5, size=(d, d)),
        "w2": rng.normal(scale=0.5, size=(d, d)),
        "w3": rng.normal(scale=0.5, size=(2, 2 * d)),
        "w4": rng.normal(scale=0.5, size=(5, d)),
        "emb": rng.normal(scale=0.5, size=(3, d)),
    }
    x = rng.normal(size=d)
    err = finite_diff_check(lambda: _random_composite_loss(params, x), params,
                            eps=1e-5)
    assert err <= 1e-4


def test_tapes_nest_and_do_not_leak():
    x = np.array([2.0], dtype=float)
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
