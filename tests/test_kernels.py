import numpy as np
import pytest

from fact2question import kernels
from fact2question.autodiff import Tensor
from fact2question.data import Fact, Vocabulary
from fact2question.model import QGenParams
from tape_oracle import (
    attend,
    decoder_step,
    encode_fact,
    init_state,
    output_logits,
)


def _random_transe_inputs(seed, n_ent=12, n_rel=3, n_triples=40, dim=16):
    rng = np.random.default_rng(seed)
    ent = rng.normal(scale=0.3, size=(n_ent, dim))
    rel = rng.normal(scale=0.3, size=(n_rel, dim))
    s = rng.integers(0, n_ent, n_triples).astype(np.int64)
    r = rng.integers(0, n_rel, n_triples).astype(np.int64)
    o = rng.integers(0, n_ent, n_triples).astype(np.int64)
    order = rng.permutation(n_triples).astype(np.int64)
    corrupt = rng.integers(0, 2, n_triples).astype(np.uint8)
    neg = rng.integers(0, n_ent, n_triples).astype(np.int64)
    return ent, rel, (s, r, o, order, corrupt, neg)


def test_transe_epoch_zero_lr_is_noop():
    ent, rel, args = _random_transe_inputs(7)
    ent0, rel0 = ent.copy(), rel.copy()
    kernels.transe_epoch(ent, rel, *args, 0.0, 1.0)
    assert np.array_equal(ent, ent0)
    assert np.array_equal(rel, rel0)


def test_transe_epoch_loss_is_margin_hinge():
    # single triple whose corruption picks the same entities: f_pos == f_neg,
    # so the hinge contributes exactly the margin
    ent = np.array([[1.0, 0.0], [0.0, 1.0]])
    rel = np.array([[0.5, 0.5]])
    s = np.array([0], dtype=np.int64)
    r = np.array([0], dtype=np.int64)
    o = np.array([1], dtype=np.int64)
    order = np.array([0], dtype=np.int64)
    corrupt = np.array([1], dtype=np.uint8)
    neg = np.array([1], dtype=np.int64)  # corrupted tail == true tail
    loss = kernels.transe_epoch(ent.copy(), rel.copy(), s, r, o, order,
                                corrupt, neg, 0.0, 1.0)
    assert loss == pytest.approx(1.0)


def _random_decode_inputs(seed, d=5, h=7, v=9):
    rng = np.random.default_rng(seed)
    enc_s, enc_r, enc_o = (rng.normal(size=h) for _ in range(3))
    enc_all = np.concatenate((enc_s, enc_r, enc_o))
    weights = (
        rng.normal(scale=0.4, size=(h, 4 * h)),   # att_hidden
        rng.normal(scale=0.4, size=(3, h)),       # att_score
        rng.normal(scale=0.4, size=(h, d)),       # reset_emb
        rng.normal(scale=0.4, size=(h, h)),       # reset_ctx
        rng.normal(scale=0.4, size=(h, h)),       # reset_state
        rng.normal(scale=0.4, size=(h, d)),       # update_emb
        rng.normal(scale=0.4, size=(h, h)),       # update_ctx
        rng.normal(scale=0.4, size=(h, h)),       # update_state
        rng.normal(scale=0.4, size=(h, d)),       # cand_emb
        rng.normal(scale=0.4, size=(h, h)),       # cand_ctx
        rng.normal(scale=0.4, size=(h, h)),       # cand_state
        rng.normal(scale=0.4, size=(h, h)),       # out_state
        rng.normal(scale=0.4, size=(h, d)),       # out_emb
        rng.normal(scale=0.4, size=(h, h)),       # out_ctx
        rng.normal(scale=0.4, size=(v, h)),       # out_proj
    )
    return (rng.normal(size=d), rng.normal(size=h), enc_s, enc_r, enc_o,
            enc_all) + weights


def test_decode_step_alpha_weighs_encodings():
    args = _random_decode_inputs(11)
    e_w, h_prev, enc_s, enc_r, enc_o, enc_all = args[:6]
    step = kernels.decode_step(*args)
    assert np.all((step.alpha > 0.0) & (step.alpha < 1.0))
    assert step.h.shape == h_prev.shape
    # the new state is a convex mix of old state and a bounded candidate
    assert np.max(np.abs(step.h)) <= max(np.max(np.abs(h_prev)), 1.0) + 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_decode_step_matches_tape_forward(seed):
    input_vocab = Vocabulary(["<unk>", "s0", "r0", "o0"])
    fact = Fact("s0", "r0", "o0")
    rng = np.random.default_rng(seed + 20)
    params = QGenParams.init(n_in=4, n_out=9, d_enc=5, d_dec=6, hidden=7,
                             seed=seed, input_emb=rng.normal(size=(4, 5)))
    # scale the weights up so the gates and activations leave their
    # near-linear range
    for t in params.tensors.values():
        t.value *= 10.0
    t = params.tensors
    enc = encode_fact(fact, params, input_vocab)
    h_tape = init_state(enc, params)
    h_kernel = h_tape.value
    encodings = (enc.enc_s.value, enc.enc_r.value, enc.enc_o.value,
                 enc.enc_all.value)
    weights = tuple(t[name].value for name in kernels.STEP_WEIGHTS)
    for w_prev in (1, 4, 0, 8):
        c, alpha_tape = attend(enc, h_tape, params)
        h_tape = decoder_step(w_prev, h_tape, c, params)
        logits_tape = output_logits(h_tape, w_prev, c, params)
        step = kernels.decode_step(
            t["word_emb"].value[w_prev], h_kernel, *encodings, *weights)
        h_kernel = step.h
        np.testing.assert_allclose(h_kernel, h_tape.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.logits, logits_tape.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.alpha, alpha_tape.value, rtol=0, atol=1e-12)
        # continue both recurrences from the kernel's state so every step
        # is checked on the same input
        h_tape = Tensor(h_kernel)
