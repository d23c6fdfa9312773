import numpy as np
import pytest

from fact2question import kernels
from fact2question.data import Fact, Vocabulary
from fact2question.model import QGenParams
from fact2question.transe import TransEConfig, train_transe
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


def reference_transe_epoch(ent, rel, s_idx, r_idx, o_idx, order, corrupt_tail,
                           neg_ent, lr, margin):
    """The per-triple epoch with numpy indexing and reductions on every
    triple: the oracle that kernels.transe_epoch must equal bit for bit."""
    total = 0.0
    for k in range(order.shape[0]):
        i = order[k]
        s, r, o = s_idx[i], r_idx[i], o_idx[i]
        if corrupt_tail[k]:
            ns, no = s, neg_ent[k]
        else:
            ns, no = neg_ent[k], o
        pos = ent[s] + rel[r] - ent[o]
        negv = ent[ns] + rel[r] - ent[no]
        f_pos = np.sqrt(np.sum(pos * pos))
        f_neg = np.sqrt(np.sum(negv * negv))
        viol = margin + f_pos - f_neg
        if viol > 0.0:
            total += viol
            g_pos = pos / f_pos if f_pos > 0.0 else np.zeros_like(pos)
            g_neg = negv / f_neg if f_neg > 0.0 else np.zeros_like(negv)
            ent[s] -= lr * g_pos
            ent[o] += lr * g_pos
            rel[r] -= lr * (g_pos - g_neg)
            ent[ns] += lr * g_neg
            ent[no] -= lr * g_neg
    return total


def _check_against_reference(ent, rel, args, lr, margin):
    """Run the reference on copies that keep the tables' memory order and
    the kernel in place; tables must match byte for byte, losses exactly."""
    ent_ref, rel_ref = ent.copy(order="K"), rel.copy(order="K")
    expected = reference_transe_epoch(ent_ref, rel_ref, *args, lr, margin)
    loss = kernels.transe_epoch(ent, rel, *args, lr, margin)
    assert type(loss) is float
    assert loss == expected
    assert ent.tobytes() == ent_ref.tobytes()
    assert rel.tobytes() == rel_ref.tobytes()
    return loss


@pytest.mark.parametrize("seed", range(6))
def test_transe_epoch_equals_the_reference_on_seeded_inputs(seed):
    # few entities, so corruptions often repeat a true entity; three
    # epochs in a row, so each starts from tables the previous one moved
    ent, rel, args = _random_transe_inputs(seed, n_ent=6, dim=3 + 7 * seed)
    for lr, margin in ((0.05, 1.0), (0.3, 0.5), (0.01, 2.0)):
        _check_against_reference(ent, rel, args, lr, margin)


def _one_visit_inputs(triples, tails, negs, order=None, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    ent = rng.normal(scale=0.5, size=(4, dim))
    rel = rng.normal(scale=0.5, size=(2, dim))
    s, r, o = (np.array(column, dtype=np.int64) for column in zip(*triples))
    order = np.arange(len(triples)) if order is None else np.array(order)
    return ent, rel, (s, r, o, order.astype(np.int64),
                      np.array(tails, dtype=np.uint8), np.array(negs, dtype=np.int64))


# (triples, corrupt_tail, neg_ent, order): each triple violates under a
# margin of 10, so every aliased row is updated
ALIASING_CASES = {
    "tail-corruption-ns-is-s": ([(0, 0, 1)], [1], [2], None),
    "head-neg-is-s": ([(0, 0, 1)], [0], [0], None),
    "head-neg-is-o": ([(0, 1, 1)], [0], [1], None),
    "tail-neg-is-o": ([(2, 0, 3)], [1], [3], None),
    "tail-neg-is-s": ([(2, 1, 3)], [1], [2], None),
    "self-loop-tail": ([(1, 0, 1)], [1], [3], None),
    "self-loop-head": ([(1, 1, 1)], [0], [1], None),
    "same-triple-twice": ([(0, 1, 2)], [1, 0], [3, 1], [0, 0]),
}


@pytest.mark.parametrize("case", ALIASING_CASES, ids=list(ALIASING_CASES))
def test_transe_epoch_keeps_the_sequential_updates_of_aliased_rows(case):
    triples, tails, negs, order = ALIASING_CASES[case]
    for dim in (1, 4):
        ent, rel, args = _one_visit_inputs(triples, tails, negs, order, dim=dim)
        assert _check_against_reference(ent, rel, args, 0.1, 10.0) > 0.0


def test_transe_epoch_zero_distances_take_zero_gradients():
    # ent[1] = ent[0] + rel[1] and ent[2] = ent[0] + rel[0] exactly.  Visit
    # 0 is triple 1 corrupted to (0, 1, 1): f_neg == 0.  Visit 1 is triple
    # 0 itself: f_pos == 0.  The -0.0 in ent[2] turns into +0.0 only if
    # the zero gradient is still added.
    ent = np.array([[0.0, 0.5, -0.0], [0.25, 0.75, -0.0],
                    [0.5, 0.25, -0.0], [-0.5, 1.0, 2.0]])
    rel = np.array([[0.5, -0.25, -0.0], [0.25, 0.25, -0.0]])
    assert not np.any(ent[0] + rel[1] - ent[1])
    assert not np.any(ent[0] + rel[0] - ent[2])
    args = (np.array([0, 3], dtype=np.int64), np.array([0, 1], dtype=np.int64),
            np.array([2, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64),
            np.array([0, 1], dtype=np.uint8), np.array([0, 3], dtype=np.int64))
    _check_against_reference(ent, rel, args, 0.1, 10.0)
    assert ent[2, 2] == 0.0 and not np.signbit(ent[2, 2])


@pytest.mark.parametrize("margin, lr", [(100.0, 0.1), (-100.0, 0.1), (1.0, 0.0)],
                         ids=["all-violate", "none-violate", "zero-lr"])
def test_transe_epoch_hinge_extremes_equal_the_reference(margin, lr):
    ent, rel, args = _random_transe_inputs(11)
    ent0, rel0 = ent.copy(), rel.copy()
    loss = _check_against_reference(ent, rel, args, lr, margin)
    if margin < 0.0:
        assert loss == 0.0
    if margin < 0.0 or lr == 0.0:
        assert ent.tobytes() == ent0.tobytes() and rel.tobytes() == rel0.tobytes()
    else:
        assert loss > 0.0


def test_transe_epoch_writes_back_into_fortran_ordered_tables():
    ent, rel, args = _random_transe_inputs(3, n_ent=5)
    ent, rel = np.asfortranarray(ent), np.asfortranarray(rel)
    ent0 = ent.copy()
    _check_against_reference(ent, rel, args, 0.1, 1.0)
    assert ent.flags.f_contiguous and not np.array_equal(ent, ent0)


def _kb(seed, n_triples=60, n_ent=15, n_rel=4):
    rng = np.random.default_rng(seed)
    return [Fact(f"e{rng.integers(n_ent)}", f"r{rng.integers(n_rel)}",
                 f"e{rng.integers(n_ent)}") for _ in range(n_triples)]


@pytest.mark.parametrize("dim", [1, 2, 50])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_transe_equals_a_run_on_the_reference_epoch(monkeypatch, seed, dim):
    triples = _kb(seed)
    config = TransEConfig(dim=dim, epochs=6, learning_rate=0.05, seed=seed)

    def recording(epoch, losses):
        def run(*args):
            losses.append(epoch(*args))
            return losses[-1]
        return run

    losses, reference_losses = [], []
    monkeypatch.setattr(kernels, "transe_epoch", recording(kernels.transe_epoch, losses))
    model = train_transe(triples, config)
    monkeypatch.setattr(kernels, "transe_epoch",
                        recording(reference_transe_epoch, reference_losses))
    reference = train_transe(triples, config)
    assert losses == reference_losses and len(losses) == config.epochs
    assert model.entities.tobytes() == reference.entities.tobytes()
    assert model.relationships.tobytes() == reference.relationships.tobytes()


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
        t *= 10.0
    t = params.tensors
    enc = encode_fact(fact, params, input_vocab)
    h_tape = init_state(enc, params)
    h_kernel = h_tape
    encodings = (enc.enc_s, enc.enc_r, enc.enc_o, enc.enc_all)
    weights = tuple(t[name] for name in kernels.STEP_WEIGHTS)
    for w_prev in (1, 4, 0, 8):
        c, alpha_tape = attend(enc, h_tape, params)
        h_tape = decoder_step(w_prev, h_tape, c, params)
        logits_tape = output_logits(h_tape, w_prev, c, params)
        step = kernels.decode_step(
            t["word_emb"][w_prev], h_kernel, *encodings, *weights)
        h_kernel = step.h
        np.testing.assert_allclose(h_kernel, h_tape, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.logits, logits_tape, rtol=0, atol=1e-12)
        np.testing.assert_allclose(step.alpha, alpha_tape, rtol=0, atol=1e-12)
        # continue both recurrences from the kernel's state so every step
        # is checked on the same input
        h_tape = h_kernel
