import copy
import hashlib
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fact2question import kernels
from fact2question.autodiff import Tape, backprop, finite_diff_check
from fact2question.data import BOS, Fact, Vocabulary
from fact2question.decoding import GenerationSession
from fact2question.errors import (
    ContractError,
    DimensionError,
    NumericError,
    ParseError,
    UnknownIdError,
)
from fact2question.model import (
    CHECKPOINT_MAGIC,
    INPUT_EMB_NAME,
    QGenParams,
    encode,
    load_checkpoint,
    save_checkpoint,
    sequence_log_likelihood,
)
from fact2question.training import AdamState, adam_step
from reference_decoder import REFERENCE_WEIGHTS, reference_decode_step
from tape_oracle import (
    attend,
    decoder_step,
    encode_fact,
    init_state,
    output_distribution,
    tape_sequence_log_likelihood,
)

INPUT_VOCAB = Vocabulary(["<unk>", "s0", "r0", "o0"])
OUTPUT_VOCAB = Vocabulary(["<unk>", "<bos>", "?", "w3", "w4", "w5", "w6", "w7"])
FACT = Fact("s0", "r0", "o0")
SELF_FACT = Fact("s0", "r0", "s0")


def _params(seed=0, d_enc=4, d_dec=4, hidden=6, n_out=8, zero=False,
            input_emb=None):
    rng = np.random.default_rng(seed + 100)
    if input_emb is None:
        input_emb = rng.normal(size=(len(INPUT_VOCAB), d_enc))
    params = QGenParams.init(n_in=len(INPUT_VOCAB), n_out=n_out, d_enc=d_enc,
                             d_dec=d_dec, hidden=hidden, seed=seed,
                             input_emb=input_emb)
    if zero:
        for tensor in params.tensors.values():
            tensor[:] = 0.0
    return params


def test_encode_fact_zero_projection():
    params = _params(zero=True)
    (enc_s, enc_r, enc_o, enc_all), _ = encode(FACT, params, INPUT_VOCAB)
    for part in (enc_s, enc_r, enc_o):
        assert np.array_equal(part, np.zeros(6))
    assert np.array_equal(enc_all, np.zeros(18))


def test_encode_fact_identity_projection_returns_raw_rows():
    params = _params(d_enc=4, hidden=4)
    params.tensors["atom_proj"][:] = np.eye(4)
    encodings, _ = encode(FACT, params, INPUT_VOCAB)
    for part, atom in zip(encodings, FACT.atoms()):
        assert np.array_equal(part, params.input_emb[INPUT_VOCAB.index(atom)])


def test_encode_fact_matches_matvec_oracle():
    params = _params(seed=3)
    (enc_s, enc_r, enc_o, enc_all), _ = encode(FACT, params, INPUT_VOCAB)
    proj = params.tensors["atom_proj"]
    s = INPUT_VOCAB.index("s0")
    assert np.allclose(enc_s, proj @ params.input_emb[s])
    assert np.array_equal(enc_all, np.concatenate([enc_s, enc_r, enc_o]))


def test_encode_fact_unknown_atom_names_role():
    params = _params()
    with pytest.raises(UnknownIdError, match="subject.*nope"):
        encode(Fact("nope", "r0", "o0"), params, INPUT_VOCAB)
    with pytest.raises(UnknownIdError, match="relationship"):
        encode(Fact("s0", "nope", "o0"), params, INPUT_VOCAB)
    with pytest.raises(UnknownIdError, match="object"):
        encode(Fact("s0", "r0", "nope"), params, INPUT_VOCAB)


def test_init_state_zero_cases():
    params = _params(zero=True)
    assert np.array_equal(encode(FACT, params, INPUT_VOCAB)[1], np.zeros(6))

    params2 = _params()
    params2.input_emb[:] = 0.0
    assert np.array_equal(encode(FACT, params2, INPUT_VOCAB)[1], np.zeros(6))


def test_init_state_matches_oracle():
    params = _params(seed=5)
    encodings, h0 = encode(FACT, params, INPUT_VOCAB)
    expected = np.tanh(params.tensors["init_proj"] @ encodings[3])
    assert np.allclose(h0, expected, atol=1e-15)


def test_encode_equals_tape_oracle_bitwise():
    params = _params(seed=6)
    for fact in (FACT, SELF_FACT):
        encodings, h0 = encode(fact, params, INPUT_VOCAB)
        enc = encode_fact(fact, params, INPUT_VOCAB)
        oracle = (enc.enc_s, enc.enc_r, enc.enc_o, enc.enc_all)
        for part, ref in zip(encodings, oracle):
            assert np.array_equal(part, ref)
        assert np.array_equal(h0, init_state(enc, params))


def test_attend_zero_parameters_halves_everything():
    params = _params(seed=1)
    params.tensors["att_hidden"][:] = 0.0
    params.tensors["att_score"][:] = 0.0
    enc = encode_fact(FACT, params, INPUT_VOCAB)
    h = np.zeros(6)
    c, alpha = attend(enc, h, params)
    assert np.allclose(alpha, [0.5, 0.5, 0.5])
    expected = 0.5 * (enc.enc_s + enc.enc_r + enc.enc_o)
    assert np.allclose(c, expected, atol=1e-15)


def test_attend_zero_relation_object_leaves_subject_term():
    params = _params(seed=2)
    enc = encode_fact(FACT, params, INPUT_VOCAB)
    zero = np.zeros(6)
    enc.enc_r, enc.enc_o = zero, zero
    h = np.zeros(6)
    c, alpha = attend(enc, h, params)
    assert np.allclose(c, alpha[0] * enc.enc_s, atol=1e-15)


def test_attend_matches_weighted_sum_oracle():
    params = _params(seed=4)
    enc = encode_fact(FACT, params, INPUT_VOCAB)
    h = np.random.default_rng(9).normal(size=6)
    c, alpha = attend(enc, h, params)
    z = np.concatenate([enc.enc_all, h])
    hid = np.tanh(params.tensors["att_hidden"] @ z)
    scores = params.tensors["att_score"] @ hid
    expected_alpha = 1.0 / (1.0 + np.exp(-scores))
    assert np.allclose(alpha, expected_alpha, atol=1e-14)
    expected_c = (expected_alpha[0] * enc.enc_s
                  + expected_alpha[1] * enc.enc_r
                  + expected_alpha[2] * enc.enc_o)
    assert np.allclose(c, expected_c, atol=1e-13)


@pytest.mark.parametrize("seed", range(30))
def test_attention_scalars_strictly_inside_unit_interval(seed):
    rng = np.random.default_rng(seed)
    params = _params(seed=seed)
    for tensor in params.tensors.values():
        tensor[:] = rng.normal(scale=5.0, size=tensor.shape)
    enc = encode_fact(FACT, params, INPUT_VOCAB)
    h = rng.normal(size=6)
    c, alpha = attend(enc, h, params)
    assert np.all((alpha > 0.0) & (alpha < 1.0))
    manual = alpha[0] * enc.enc_s + alpha[1] * enc.enc_r + alpha[2] * enc.enc_o
    assert np.max(np.abs(c - manual)) <= 1e-12


def test_decoder_step_all_zero_parameters():
    params = _params(zero=True)
    h_prev = np.arange(6.0)
    c = np.zeros(6)
    h = decoder_step(3, h_prev, c, params)
    # gates are 0.5, the candidate is tanh(0)=0, so h = 0.5 * h_prev
    assert np.allclose(h, 0.5 * h_prev)
    h0 = decoder_step(3, np.zeros(6), c, params)
    assert np.array_equal(h0, np.zeros(6))


def test_decoder_step_matches_scalar_oracle():
    params = _params(seed=7, d_enc=3, d_dec=3, hidden=3)
    rng = np.random.default_rng(11)
    h_prev = rng.normal(size=3)
    c = rng.normal(size=3)
    w_prev = 2
    h = decoder_step(w_prev, h_prev, c, params)

    t = params.tensors
    e_w = t["word_emb"][w_prev]

    def sig(x):
        return 1.0 / (1.0 + math.exp(-x))

    expected = np.empty(3)
    for i in range(3):
        g_r = sig(sum(t["reset_emb"][i][j] * e_w[j] for j in range(3))
                  + sum(t["reset_ctx"][i][j] * c[j] for j in range(3))
                  + sum(t["reset_state"][i][j] * h_prev[j] for j in range(3)))
        assert 0.0 < g_r < 1.0
    # full-vector oracle (hand recurrence, gates applied to the old state)
    g_r = np.array([sig((t["reset_emb"] @ e_w + t["reset_ctx"] @ c
                         + t["reset_state"] @ h_prev)[i]) for i in range(3)])
    g_u = np.array([sig((t["update_emb"] @ e_w + t["update_ctx"] @ c
                         + t["update_state"] @ h_prev)[i]) for i in range(3)])
    cand = np.tanh(t["cand_emb"] @ e_w + t["cand_ctx"] @ c
                   + t["cand_state"] @ (g_r * h_prev))
    expected = g_u * h_prev + (1.0 - g_u) * cand
    assert np.allclose(h, expected, atol=1e-14)


def test_decoder_step_bounded_by_old_state_and_one():
    rng = np.random.default_rng(0)
    for seed in range(10):
        params = _params(seed=seed)
        h_prev = rng.normal(scale=3.0, size=6)
        c = rng.normal(size=6)
        h = decoder_step(int(rng.integers(8)), h_prev, c, params)
        assert np.max(np.abs(h)) <= max(np.max(np.abs(h_prev)), 1.0)


def test_decoder_step_rejects_out_of_range_token():
    params = _params()
    with pytest.raises(Exception):
        decoder_step(99, np.zeros(6), np.zeros(6), params)


def test_output_distribution_uniform_for_zero_weights():
    params = _params(zero=True)
    probs = output_distribution(np.zeros(6), 0, np.zeros(6), params)
    assert np.allclose(probs, np.full(8, 1.0 / 8.0))


def test_output_distribution_matches_softmax_oracle_and_range():
    params = _params(seed=8)
    rng = np.random.default_rng(13)
    h = rng.normal(size=6)
    c = rng.normal(size=6)
    probs = output_distribution(h, 4, c, params)
    t = params.tensors
    pre = np.tanh(t["out_state"] @ h + t["out_emb"] @ t["word_emb"][4]
                  + t["out_ctx"] @ c)
    logits = t["out_proj"] @ pre
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    assert np.allclose(probs, expected, atol=1e-14)
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_sequence_ll_uniform_single_token():
    params = _params(zero=True, n_out=8)
    vocab4 = Vocabulary(["<unk>", "<bos>", "?", "w"])
    params4 = _params(zero=True, n_out=4)
    ll = sequence_log_likelihood(FACT, ["?"], params4, INPUT_VOCAB, vocab4)
    assert ll.item() == pytest.approx(math.log(0.25), abs=1e-12)


def test_sequence_ll_uniform_two_tokens():
    vocab4 = Vocabulary(["<unk>", "<bos>", "?", "w"])
    params4 = _params(zero=True, n_out=4)
    ll = sequence_log_likelihood(FACT, ["w", "?"], params4, INPUT_VOCAB, vocab4)
    assert ll.item() == pytest.approx(2.0 * math.log(0.25), abs=1e-12)


def test_sequence_ll_is_nonpositive_and_maps_oov_to_unk():
    params = _params(seed=6)
    ll = sequence_log_likelihood(FACT, ["martian", "w3", "?"], params,
                                 INPUT_VOCAB, OUTPUT_VOCAB)
    assert ll.item() <= 0.0
    ll_unk = sequence_log_likelihood(FACT, ["<unk>", "w3", "?"], params,
                                     INPUT_VOCAB, OUTPUT_VOCAB)
    assert ll.item() == pytest.approx(ll_unk.item(), abs=1e-12)


def test_sequence_ll_contract_errors():
    params = _params()
    with pytest.raises(ContractError):
        sequence_log_likelihood(FACT, [], params, INPUT_VOCAB, OUTPUT_VOCAB)
    with pytest.raises(ContractError):
        sequence_log_likelihood(FACT, ["w3"], params, INPUT_VOCAB, OUTPUT_VOCAB)


def test_sequence_ll_matches_chained_op_oracle():
    params = _params(seed=9)
    tokens = ["w3", "w5", "?"]
    ll = sequence_log_likelihood(FACT, tokens, params, INPUT_VOCAB, OUTPUT_VOCAB)

    enc = encode_fact(FACT, params, INPUT_VOCAB)
    h = init_state(enc, params)
    w_prev = OUTPUT_VOCAB.index(BOS)
    total = 0.0
    for token in tokens:
        target = OUTPUT_VOCAB.index(token)
        c, _ = attend(enc, h, params)
        h = decoder_step(w_prev, h, c, params)
        probs = output_distribution(h, w_prev, c, params)
        total += math.log(probs[target])
        w_prev = target
    assert ll.item() == pytest.approx(total, abs=1e-12)


def test_sequence_ll_gradients_match_finite_differences():
    # acceptance-sized check: d_enc 4, hidden 6, vocab 8, 5-token question.
    # weights at scale 0.4 keep every gradient coordinate well above the
    # finite-difference noise floor (~1e-10 for |loss| ~ 10 at eps 1e-5)
    params = _params(seed=0)
    rng = np.random.default_rng(1)
    for tensor in params.tensors.values():
        tensor[:] = rng.normal(scale=0.4, size=tensor.shape)
    tokens = ["w3", "w4", "w5", "w6", "?"]

    def loss():
        return sequence_log_likelihood(FACT, tokens, params, INPUT_VOCAB,
                                       OUTPUT_VOCAB)

    err = finite_diff_check(loss, params.tensors, eps=1e-5)
    assert err <= 1e-4


# lengths 1-6, with a repeated target word and <unk> targets
ORACLE_QUESTIONS = [
    ["?"],
    ["w3", "?"],
    ["w4", "w4", "?"],
    ["martian", "w5", "w6", "?"],
    ["w3", "w7", "w3", "w5", "?"],
    ["w6", "w6", "w6", "<unk>", "w4", "?"],
]


def _loss_and_gradients(fn, tokens, params, fact=FACT):
    with Tape() as tape:
        tape.watch(params.tensors)
        ll = fn(fact, tokens, params, INPUT_VOCAB, OUTPUT_VOCAB)
    return ll.item(), backprop(tape, ll), len(tape)


def _assert_fused_node_matches_tape_oracle(seed, weight_scale, hidden, d_dec):
    # weight_scale 10 drives the gates and activations into saturation; the
    # second fact has its subject as its object, so two projections of one
    # embedding row add into atom_proj's gradient
    params = _params(seed=seed, d_dec=d_dec, hidden=hidden)
    rng = np.random.default_rng(seed + 50)
    for tensor in params.tensors.values():
        tensor[:] = rng.normal(scale=0.4 * weight_scale, size=tensor.shape)
    for fact in (FACT, SELF_FACT):
        for tokens in ORACLE_QUESTIONS:
            loss, grads, _ = _loss_and_gradients(sequence_log_likelihood, tokens,
                                                 params, fact)
            ref_loss, ref_grads, _ = _loss_and_gradients(
                tape_sequence_log_likelihood, tokens, params, fact)
            assert abs(loss - ref_loss) <= 1e-12
            assert set(grads) == set(ref_grads)
            for name, ref in ref_grads.items():
                scale = np.max(np.abs(ref))
                assert scale > 0.0, name
                err = np.max(np.abs(grads[name] - ref)) / scale
                assert err <= 1e-10, (fact, tokens, name, err)


@pytest.mark.parametrize("weight_scale", [1.0, 10.0])
@pytest.mark.parametrize("seed", range(16))
def test_fused_node_matches_tape_oracle(seed, weight_scale):
    _assert_fused_node_matches_tape_oracle(seed, weight_scale, hidden=6, d_dec=5)


@pytest.mark.parametrize("weight_scale", [1.0, 10.0])
@pytest.mark.parametrize("seed", range(16))
@pytest.mark.parametrize("hidden", [8, 128])
def test_fused_node_matches_tape_oracle_at_wider_dims(hidden, seed, weight_scale):
    # the gate stacks' row blocks start at multiples of H: check their
    # offsets where H is a multiple of 4 and the blocks are BLAS-sized
    _assert_fused_node_matches_tape_oracle(seed, weight_scale, hidden=hidden,
                                           d_dec=64)


def test_fused_node_tape_length_does_not_grow_with_question():
    params = _params(seed=1)
    lengths = {_loss_and_gradients(sequence_log_likelihood, tokens, params)[2]
               for tokens in ORACLE_QUESTIONS}
    # one node for the whole example, fact encoding included
    assert lengths == {1}
    assert _loss_and_gradients(tape_sequence_log_likelihood,
                               ORACLE_QUESTIONS[-1], params)[2] > 1


def test_fused_node_nan_weights_raise_numeric_error():
    params = _params(seed=2)
    params.tensors["out_proj"][:] = np.nan
    with Tape() as tape:
        tape.watch(params.tensors)
        with pytest.raises(NumericError):
            sequence_log_likelihood(FACT, ["w3", "?"], params, INPUT_VOCAB,
                                    OUTPUT_VOCAB)


def test_overflowing_fact_encoding_raises_numeric_error():
    # finite weights whose atom encodings overflow: generation and training
    # must both stop rather than decode or differentiate infinities, with
    # one error that names the fact and no numpy warnings before it
    params = _params(seed=3)
    params.tensors["atom_proj"][:] = 1e308
    session = GenerationSession(params, INPUT_VOCAB, OUTPUT_VOCAB)
    names_fact = "fact encoding of " + re.escape(repr(FACT.atoms()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match=names_fact):
            session.greedy_indices(FACT)
        with pytest.raises(NumericError, match=names_fact):
            sequence_log_likelihood(FACT, ["w3", "?"], params, INPUT_VOCAB,
                                    OUTPUT_VOCAB)
    assert [str(w.message) for w in caught] == []


def test_frozen_input_table_gets_no_gradient():
    params = _params(seed=10)
    with Tape() as tape:
        tape.watch(params.tensors)
        ll = sequence_log_likelihood(FACT, ["w3", "?"], params, INPUT_VOCAB,
                                     OUTPUT_VOCAB)
    grads = backprop(tape, ll)
    assert set(grads) == set(params.tensors)
    before = params.input_emb.copy()
    assert np.array_equal(params.input_emb, before)


def test_checkpoint_round_trip(tmp_path):
    params = _params(seed=11)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, "sp", INPUT_VOCAB, OUTPUT_VOCAB)
    loaded, mode = load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB)
    assert mode == "sp"
    assert np.array_equal(loaded.input_emb, params.input_emb)
    for name, tensor in params.tensors.items():
        assert np.array_equal(loaded.tensors[name], tensor)


def test_checkpoint_rejects_vocab_mismatch(tmp_path):
    params = _params(seed=12)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, "mp", INPUT_VOCAB, OUTPUT_VOCAB)
    other = Vocabulary(["<unk>", "<bos>", "?", "different"])
    with pytest.raises(ContractError, match="vocabulary hash"):
        load_checkpoint(path, INPUT_VOCAB, other)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ParseError):
        load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB)


def test_checkpoint_rejects_overflowing_tensor_extents(tmp_path):
    # the extents multiply past 2**63; the byte count must not wrap around
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, _params(seed=13), "sp", INPUT_VOCAB, OUTPUT_VOCAB)
    header = path.read_bytes()[:len(CHECKPOINT_MAGIC) + 4 + 1 + len(b"sp") + 64]
    name = b"input_emb"
    path.write_bytes(header + struct.pack("<IH", 1, len(name)) + name
                     + struct.pack("<BII", 2, 2**32 - 1, 2**31 + 1))
    # the byte count is checked before anything is allocated for the tensor
    with pytest.raises(ParseError, match="truncated checkpoint"):
        _traced_peak(lambda: load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB),
                     limit=2**20)


def _traced_peak(fn, limit):
    """Run fn under tracemalloc and check its peak allocation is <= limit
    bytes, also when fn raises."""
    tracemalloc.start()
    try:
        return fn()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= limit


def test_checkpoint_load_reads_each_tensor_once(tmp_path):
    output_vocab = Vocabulary(["<unk>", "<bos>", "?"]
                              + [f"w{i}" for i in range(3, 3000)])
    params = QGenParams.init(n_in=len(INPUT_VOCAB), n_out=len(output_vocab),
                             d_enc=4, d_dec=64, hidden=64, seed=17)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, "sp", INPUT_VOCAB, output_vocab)
    tensor_bytes = params.input_emb.nbytes + sum(
        t.nbytes for t in params.tensors.values())
    assert tensor_bytes > 3 * 2**20
    loaded, _ = _traced_peak(
        lambda: load_checkpoint(path, INPUT_VOCAB, output_vocab),
        limit=1.25 * tensor_bytes)
    for name, tensor in params.tensors.items():
        assert np.array_equal(loaded.tensors[name], tensor)


@pytest.mark.parametrize("name, shape, message", [
    ("att_score", (4, 6), r"tensor 'att_score' has shape \(4, 6\), expected \(3, 6\)"),
    ("out_proj", (9, 6), r"tensor 'out_proj' has shape \(9, 6\), expected \(8, 6\)"),
    ("atom_proj", (6, 5), r"tensor 'atom_proj' has shape \(6, 5\), expected \(6, 4\)"),
    ("reset_emb", (6, 5), r"tensor 'reset_emb' has shape \(6, 5\), expected \(6, 4\)"),
    ("extra", (1, 1), "unknown tensor 'extra'"),
], ids=["att_score", "out_proj", "atom_proj-width", "reset_emb-width", "extra"])
def test_params_construction_checks_every_shape(name, shape, message):
    params = _params()
    params.tensors[name] = np.zeros(shape)
    with pytest.raises(DimensionError, match=message):
        QGenParams(params.input_emb, params.tensors)


def test_params_construction_rejects_missing_and_non_finite_tensors():
    params = _params()
    tensors = dict(params.tensors)
    del tensors["cand_ctx"]
    with pytest.raises(DimensionError, match="missing tensor 'cand_ctx'"):
        QGenParams(params.input_emb, tensors)
    params.input_emb[1, 0] = np.inf
    with pytest.raises(NumericError, match="tensor 'input_emb'"):
        QGenParams(params.input_emb, params.tensors)
    params = _params()
    params.tensors["out_proj"][2, 3] = np.nan
    with pytest.raises(NumericError,
                       match=r"^non-finite values in tensor 'out_proj'$"):
        QGenParams(params.input_emb, params.tensors)


def test_params_construction_stores_float64_arrays_without_copying():
    params = _params()
    tensors = {**params.tensors,
               "out_proj": params.tensors["out_proj"].astype(np.float32)}
    rebuilt = QGenParams(params.input_emb.astype(np.float32), tensors)
    assert rebuilt.input_emb.dtype == np.float64
    assert all(t.dtype == np.float64 for t in rebuilt.tensors.values())
    assert rebuilt.tensors["word_emb"] is params.tensors["word_emb"]


@pytest.mark.parametrize("dim", ["n_in", "n_out", "d_enc", "d_dec", "hidden"])
@pytest.mark.parametrize("value", [0, -1])
def test_params_init_rejects_dimensions_below_one(dim, value):
    dims = dict(n_in=4, n_out=5, d_enc=2, d_dec=2, hidden=2)
    with pytest.raises(ContractError, match=f"^{dim} must be >= 1, got {value}$"):
        QGenParams.init(**{**dims, dim: value}, seed=0)


@pytest.mark.parametrize("shape", [(9, 2), (4, 3), (4,)])
def test_params_init_checks_a_supplied_input_table(shape):
    message = f"tensor 'input_emb' has shape {shape}, expected (4, 2)"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        QGenParams.init(n_in=4, n_out=5, d_enc=2, d_dec=2, hidden=2, seed=0,
                        input_emb=np.zeros(shape))


def test_tensor_name_with_a_line_break_stays_on_one_line(tmp_path):
    params = _params()
    tensors = {**params.tensors, "out\nproj": np.zeros((1, 1))}
    with pytest.raises(DimensionError, match=r"^unknown tensor 'out\\nproj'$"):
        QGenParams(params.input_emb, tensors)
    path = _saved(tmp_path, params)
    path.write_bytes(path.read_bytes().replace(b"cand_emb", b"cand\nemb", 1))
    with pytest.raises(ParseError, match=r"checkpoint.bin: unknown tensor "
                                         r"'cand\\nemb'$"):
        load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB)


def _saved(tmp_path, params):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(path, params, "sp", INPUT_VOCAB, OUTPUT_VOCAB)
    return path


def test_checkpoint_rows_must_match_the_vocabularies(tmp_path):
    # word_emb and out_proj agree with each other, not with the 8 output tokens
    params = _params(seed=14, n_out=9)
    path = _saved(tmp_path, params)
    with pytest.raises(ParseError, match=r"checkpoint.bin: tensor 'word_emb' has "
                                         r"shape \(9, 4\), expected \(8, 4\)"):
        load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB)


@pytest.mark.parametrize("edit, message", [
    (lambda b: b.replace(b"sp", b"\xff\xfe", 1), "mode is not UTF-8"),
    (lambda b: b.replace(b"cand_emb", b"cand_\xe9mb", 1), "a tensor name is not UTF-8"),
    (lambda b: b.replace(b"cand_emb", b"cand_ctx", 1), "tensor 'cand_ctx' appears twice"),
    (lambda b: b.replace(b"input_emb\x02", b"input_emb\xed", 1),
     "tensor 'input_emb' has 237 dimensions, expected 2"),
], ids=["mode-not-utf8", "name-not-utf8", "repeated-name", "ndim-237"])
def test_checkpoint_container_faults_are_parse_errors(tmp_path, edit, message):
    path = _saved(tmp_path, _params(seed=15))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ParseError, match=f"checkpoint.bin: {message}"):
        load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB)


@pytest.mark.parametrize("name", ["input_emb", "out_proj"])
def test_checkpoint_non_finite_values_are_parse_errors(tmp_path, name):
    params = _params(seed=16)
    table = params.input_emb if name == INPUT_EMB_NAME else params.tensors[name]
    table[1, 1] = np.nan
    path = _saved(tmp_path, params)
    with pytest.raises(ParseError, match=f"checkpoint.bin: non-finite values "
                                         f"in tensor {name!r}"):
        load_checkpoint(path, INPUT_VOCAB, OUTPUT_VOCAB)


TINY_OUTPUT_VOCAB = Vocabulary(["<unk>", "<bos>", "?"])


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "checkpoint.bin"
    params = QGenParams.init(n_in=len(INPUT_VOCAB), n_out=len(TINY_OUTPUT_VOCAB),
                             d_enc=1, d_dec=1, hidden=1, seed=0)
    save_checkpoint(path, params, "sp", INPUT_VOCAB, TINY_OUTPUT_VOCAB)
    return path, path.read_bytes()


_EDIT = st.tuples(st.integers(min_value=0),
                  st.binary(min_size=1, max_size=4)
                  | st.floats().map(lambda v: struct.pack("<d", v)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cut=st.none() | st.integers(min_value=0),
       edits=st.lists(_EDIT, max_size=3))
def test_checkpoint_fuzz_loads_or_raises_a_named_error(tiny_checkpoint, cut, edits):
    # a cut or overwritten checkpoint either loads or raises ParseError naming
    # the file, or the vocabulary-hash ContractError; nothing else escapes
    path, valid = tiny_checkpoint
    corrupt = bytearray(valid)
    for offset, chunk in edits:
        offset %= len(corrupt)
        corrupt[offset:offset + len(chunk)] = chunk
    if cut is not None:
        del corrupt[cut % len(corrupt):]
    path.write_bytes(corrupt)
    try:
        load_checkpoint(path, INPUT_VOCAB, TINY_OUTPUT_VOCAB)
    except ParseError as exc:
        assert str(path) in str(exc)
    except ContractError as exc:
        assert "vocabulary hash mismatch" in str(exc)


# sha256 of the checkpoint that _params(d_dec=5) wrote when every gate
# tensor was an array of its own, before the gate stacks
PER_GATE_CHECKPOINT_SHA256 = (
    "c03bcddaba7a29ce86dd64bc97e5d7c02f33bdab3d25397a5ef1dcf0a8e68a0c")


def _assert_gates_are_stack_blocks(params):
    hidden = params.tensors["atom_proj"].shape[0]
    for stack_name, names in kernels.GATE_STACKS.items():
        stack = params.stacks[stack_name]
        for i, name in enumerate(names):
            tensor = params.tensors[name]
            assert np.shares_memory(tensor, stack), name
            assert tensor.ctypes.data == stack[i * hidden:].ctypes.data, name
            assert tensor.shape == (hidden, stack.shape[1]), name


def test_gate_tensors_stay_views_into_their_stacks(tmp_path):
    params = _params(d_dec=5)
    _assert_gates_are_stack_blocks(params)
    loaded, _ = load_checkpoint(_saved(tmp_path, params), INPUT_VOCAB, OUTPUT_VOCAB)
    _assert_gates_are_stack_blocks(loaded)
    loaded.load_values(_params(seed=1, d_dec=5).copy_values())
    _assert_gates_are_stack_blocks(loaded)
    adam_step(loaded.tensors, {name: np.ones_like(t) for name, t in
                               loaded.tensors.items()}, AdamState(0.01))
    _assert_gates_are_stack_blocks(loaded)
    _assert_gates_are_stack_blocks(copy.deepcopy(loaded))
    # blocks of one stack are reused; arrays of their own are copied in
    shared = QGenParams(loaded.input_emb, loaded.tensors)
    assert all(shared.stacks[name] is loaded.stacks[name]
               for name in kernels.GATE_STACKS)
    copied = QGenParams(loaded.input_emb, loaded.copy_values())
    _assert_gates_are_stack_blocks(copied)
    for name, stack in copied.stacks.items():
        assert not np.shares_memory(stack, loaded.stacks[name])
        assert np.array_equal(stack, loaded.stacks[name])


def test_gate_tensors_that_are_views_of_other_arrays_are_copied_into_a_stack():
    values = _params(d_dec=5).copy_values()
    shape = values["reset_emb"].shape
    values["reset_emb"] = np.broadcast_to(np.float64(0.5), shape)  # a 0-d base
    values["update_state"] = np.arange(36.0).reshape(6, 6)        # a 1-d base
    params = QGenParams(_params().input_emb, values)
    _assert_gates_are_stack_blocks(params)
    assert np.array_equal(params.tensors["reset_emb"], np.full(shape, 0.5))
    assert np.array_equal(params.tensors["update_state"], np.arange(36.0).reshape(6, 6))


def test_deepcopy_copies_each_tensor_once():
    # gate tensors are about half the bytes here, so a second copy of them shows
    params = QGenParams.init(n_in=len(INPUT_VOCAB), n_out=8, d_enc=4, d_dec=64,
                             hidden=256, seed=18)
    tensor_bytes = params.input_emb.nbytes + sum(
        t.nbytes for t in params.tensors.values())
    copied = _traced_peak(lambda: copy.deepcopy(params), limit=1.2 * tensor_bytes)
    _assert_gates_are_stack_blocks(copied)
    assert list(copied.tensors) == list(params.tensors)
    for name, tensor in params.tensors.items():
        assert np.array_equal(copied.tensors[name], tensor)
        assert not np.shares_memory(copied.tensors[name], tensor)


def test_decoding_sees_an_in_place_update_of_a_named_gate_tensor(monkeypatch):
    params = _params(d_dec=5)
    session = GenerationSession(params, INPUT_VOCAB, OUTPUT_VOCAB, max_len=2)
    params.tensors["update_state"] *= -3.0
    params.tensors["out_emb"] += 0.25
    steps = []
    decode_step = kernels.decode_step

    def recording(*args):
        steps.append(decode_step(*args))
        return steps[-1]

    monkeypatch.setattr(kernels, "decode_step", recording)
    session.greedy_indices(FACT)
    encodings, h0 = encode(FACT, params, INPUT_VOCAB)
    t = params.tensors
    expected = reference_decode_step(
        t["word_emb"][OUTPUT_VOCAB.index(BOS)], h0, *encodings,
        *(t[name] for name in REFERENCE_WEIGHTS))
    for name, got, want in zip(kernels.Step._fields, steps[0], expected):
        assert np.array_equal(got, want), name


def test_checkpoint_bytes_survive_a_reload_and_match_the_per_gate_layout(tmp_path):
    first = _saved(tmp_path, _params(d_dec=5)).read_bytes()
    assert hashlib.sha256(first).hexdigest() == PER_GATE_CHECKPOINT_SHA256
    loaded, mode = load_checkpoint(tmp_path / "checkpoint.bin", INPUT_VOCAB,
                                   OUTPUT_VOCAB)
    again = tmp_path / "again.bin"
    save_checkpoint(again, loaded, mode, INPUT_VOCAB, OUTPUT_VOCAB)
    assert again.read_bytes() == first
