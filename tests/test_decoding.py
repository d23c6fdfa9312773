import math

import numpy as np
import pytest

from fact2question import decoding, kernels
from fact2question.data import BOS, Fact, Vocabulary
from fact2question.decoding import GenerationSession, generate_corpus
from fact2question.errors import ContractError, ParseError
from fact2question.model import QGenParams
from tape_oracle import (
    attend,
    decoder_step,
    encode_fact,
    init_state,
    output_distribution,
)

INPUT_VOCAB = Vocabulary(["<unk>", "s0", "s1", "r0", "o0"])
FACT = Fact("s0", "r0", "o0")


def _session(output_tokens, seed=0, zero=False, max_len=8):
    output_vocab = Vocabulary(output_tokens)
    rng = np.random.default_rng(seed + 50)
    params = QGenParams.init(n_in=len(INPUT_VOCAB), n_out=len(output_vocab),
                             d_enc=3, d_dec=3, hidden=4, seed=seed,
                             input_emb=rng.normal(size=(len(INPUT_VOCAB), 3)))
    if zero:
        for t in params.tensors.values():
            t[:] = 0.0
    return GenerationSession(params, INPUT_VOCAB, output_vocab, max_len=max_len), \
        params, output_vocab


def test_greedy_uniform_ties_pick_lowest_index():
    session, _, vocab = _session(["<unk>", "<bos>", "?", "w"], zero=True,
                                 max_len=4)
    indices = session.greedy_indices(FACT)
    # all-zero weights give uniform logits; ties resolve to index 0 until
    # the forced terminal
    assert indices == [0, 0, 0, vocab.index("?")]


def test_greedy_max_len_one_is_bare_question_mark():
    session, _, vocab = _session(["<unk>", "<bos>", "?", "w"], max_len=1)
    assert session.greedy_indices(FACT) == [vocab.index("?")]
    assert session.to_words(session.greedy_indices(FACT), FACT) == ["?"]


def test_greedy_always_ends_with_question_mark():
    for seed in range(10):
        session, _, vocab = _session(["<unk>", "<bos>", "?", "a", "b"],
                                     seed=seed, max_len=6)
        indices = session.greedy_indices(FACT)
        assert indices[-1] == vocab.index("?")
        assert len(indices) <= 6
        assert vocab.index("?") not in indices[:-1]


def test_greedy_matches_tape_forward():
    session, params, vocab = _session(["<unk>", "<bos>", "?", "a", "b"], seed=3)
    indices = session.greedy_indices(FACT)
    # replay with the tape ops (independent of the kernel path)
    enc = encode_fact(FACT, params, INPUT_VOCAB)
    h = init_state(enc, params)
    w_prev = vocab.index(BOS)
    replay = []
    for _ in range(session.max_len - 1):
        c, _ = attend(enc, h, params)
        h = decoder_step(w_prev, h, c, params)
        probs = output_distribution(h, w_prev, c, params)
        idx = int(np.argmax(probs))
        replay.append(idx)
        if idx == vocab.index("?"):
            break
        w_prev = idx
    else:
        replay.append(vocab.index("?"))
    assert indices == replay


def test_greedy_decode_wrapper_restores_subject():
    # placeholder at index 0: uniform logits tie-break onto it, so the
    # decoded question is [<placeholder>, <placeholder>, ?] before restore
    tokens = ["<placeholder>", "<bos>", "?", "who"]
    session, _, _ = _session(tokens, zero=True, max_len=3)
    fact = Fact("s1", "r0", "o0")
    words = session.to_words(session.greedy_indices(fact), fact)
    assert words == ["s1", "s1", "?"]  # subject id humanizes to itself


def _brute_force(session, params, output_vocab, fact, input_vocab=INPUT_VOCAB):
    """Enumerate every decodable sequence and return them ranked."""
    qmark = output_vocab.index("?")
    enc = encode_fact(fact, params, input_vocab)
    results = []

    def expand(h, w_prev, prefix, logprob, steps_left):
        if steps_left == 0:
            results.append((prefix + (qmark,), logprob))  # forced, unscored
            return
        c, _ = attend(enc, h, params)
        h_new = decoder_step(w_prev, h, c, params)
        probs = output_distribution(h_new, w_prev, c, params)
        for v in range(len(output_vocab)):
            lp = logprob + math.log(probs[v])
            if v == qmark:
                results.append((prefix + (v,), lp))
            else:
                expand(h_new, v, prefix + (v,), lp, steps_left - 1)

    h0 = init_state(enc, params)
    expand(h0, output_vocab.index(BOS), (), 0.0, session.max_len - 1)
    results.sort(key=lambda item: (-item[1], item[0]))
    return results


@pytest.mark.parametrize("seed", range(5))
def test_beam_width_one_equals_greedy(seed):
    session, _, _ = _session(["<unk>", "<bos>", "?", "a", "b", "c"], seed=seed,
                             max_len=6)
    greedy = session.greedy_indices(FACT)
    beam = session.beam_indices(FACT, width=1)
    assert len(beam) == 1
    assert list(beam[0].tokens) == greedy


@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_beam_matches_brute_force(seed):
    # V=3, max_len=3: the full outcome space has 1 + 2 + 4 = 7 sequences
    session, params, vocab = _session(["<unk>", "<bos>", "?"], seed=seed,
                                      max_len=3)
    width = 3 ** 3
    beam = session.beam_indices(FACT, width=width)
    oracle = _brute_force(session, params, vocab, FACT)
    assert [b.tokens for b in beam] == [seq for seq, _ in oracle[:len(beam)]]
    for hyp, (_, score) in zip(beam, oracle):
        assert hyp.log_prob == pytest.approx(score, abs=1e-10)
        assert hyp.tokens[-1] == vocab.index("?")
        assert hyp.log_prob <= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_two_step_beam_matches_enumeration(seed):
    session, params, vocab = _session(["<unk>", "<bos>", "?", "w"], seed=seed,
                                      max_len=2)
    beam = session.beam_indices(FACT, width=2)
    oracle = _brute_force(session, params, vocab, FACT)
    assert [b.tokens for b in beam] == [seq for seq, _ in oracle[:2]]


def test_beam_breaks_a_tie_between_rows_of_different_scores_by_tokens(monkeypatch):
    # a decoder whose log-probabilities depend on the previous word only:
    # one-hot word embeddings pick a row of the table below
    tokens = ["<unk>", "<bos>", "?", "a", "b", "c"]
    table = np.full((6, 6), -50.0)
    table[1, [3, 5]] = -2.0, -1.0   # after <bos>: c (-1) then a (-2)
    table[5, [2, 4]] = -1.5, -2.0   # after c: ? (-2.5 in all), b (-3)
    table[3, 4] = -1.0              # after a: b (-3)
    params = QGenParams.init(n_in=len(INPUT_VOCAB), n_out=6, d_enc=3, d_dec=6,
                             hidden=4, seed=0)
    params.tensors["word_emb"][:] = np.eye(6)
    monkeypatch.setattr(kernels, "decode_step", lambda e_w, h, *rest: kernels.Step(
        h, table[int(np.argmax(e_w))], *(None,) * 7))
    monkeypatch.setattr(decoding, "log_softmax_values", lambda logits: logits)
    session = GenerationSession(params, INPUT_VOCAB, Vocabulary(tokens), max_len=3)
    # the row of c outscores the row of a, but for the second place
    # (width 2) its candidate (c, b) ties with (a, b), which has the
    # smaller tokens
    expected = [((5, 2), -2.5), ((3, 4, 2), -3.0)]
    assert [(h.tokens, h.log_prob) for h in session.beam_indices(FACT, 2)] == expected


def test_beam_search_wrapper_and_width_validation():
    session, _, vocab = _session(["<unk>", "<bos>", "?", "w"], seed=1, max_len=4)
    hyps = session.beam_indices(FACT, width=2)
    assert 1 <= len(hyps) <= 2
    assert all(h.tokens[-1] == vocab.index("?") for h in hyps)
    with pytest.raises(ContractError):
        session.beam_indices(FACT, width=0)


def test_generation_session_rejects_bad_max_len():
    with pytest.raises(ContractError):
        _session(["<unk>", "<bos>", "?"], max_len=0)


def test_generate_corpus_roundtrip(tmp_path):
    session, _, _ = _session(["<unk>", "<bos>", "?", "a", "b"], seed=2)
    facts = tmp_path / "facts.tsv"
    facts.write_text("s0\tr0\to0\ns1\tr0\to0\ns0\tr0\ts1\n", encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    written, skipped = generate_corpus(facts, session, out, width=2)
    assert (written, skipped) == (3, 0)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 4
        assert fields[3].endswith("?")


def test_generate_corpus_empty_input(tmp_path):
    session, _, _ = _session(["<unk>", "<bos>", "?"], seed=2)
    facts = tmp_path / "facts.tsv"
    facts.write_text("", encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    assert generate_corpus(facts, session, out, width=1) == (0, 0)
    assert out.read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("width", [0, -3])
def test_generate_corpus_rejects_bad_width_before_writing(tmp_path, width):
    # even an empty facts file, which never reaches beam_indices
    session, _, _ = _session(["<unk>", "<bos>", "?"], seed=2)
    facts = tmp_path / "facts.tsv"
    facts.write_text("", encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    with pytest.raises(ContractError, match=rf"^beam width must be >= 1, got {width}$"):
        generate_corpus(facts, session, out, width=width)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.tsv"]


def test_generate_corpus_skips_unknown_atoms(tmp_path):
    session, _, _ = _session(["<unk>", "<bos>", "?", "a"], seed=2)
    facts = tmp_path / "facts.tsv"
    facts.write_text("s0\tr0\to0\nmystery\tr0\to0\n", encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    written, skipped = generate_corpus(facts, session, out, width=1)
    assert (written, skipped) == (1, 1)


def test_generate_corpus_deterministic_and_in_input_order(tmp_path):
    session, _, _ = _session(["<unk>", "<bos>", "?", "a", "b"], seed=4)
    # every third fact has an unknown subject and is skipped
    facts = [("mystery" if i % 3 == 2 else f"s{i % 2}", "r0",
              "o0" if i % 4 < 2 else "s1") for i in range(40)]
    facts_path = tmp_path / "facts.tsv"
    facts_path.write_text("".join("\t".join(f) + "\n" for f in facts),
                          encoding="utf-8")
    out1, out2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
    assert generate_corpus(facts_path, session, out1, width=1) == (27, 13)
    generate_corpus(facts_path, session, out2, width=1)
    assert out1.read_bytes() == out2.read_bytes()
    known = [Fact(*f) for f in facts if f[0] != "mystery"]
    rows = [line.split("\t")
            for line in out1.read_text(encoding="utf-8").splitlines()]
    assert [Fact(*row[:3]) for row in rows] == known
    assert [row[3] for row in rows] == [
        " ".join(session.to_words(session.greedy_indices(f), f)) for f in known]


def test_generate_corpus_leaves_no_partial_output(tmp_path):
    session, _, _ = _session(["<unk>", "<bos>", "?", "a"], seed=2)
    facts = tmp_path / "facts.tsv"
    facts.write_text("s0\tr0\to0\ns1\tr0\to0\ns0\tr0\n", encoding="utf-8")
    out = tmp_path / "corpus.tsv"
    with pytest.raises(ParseError, match="facts.tsv:3"):
        generate_corpus(facts, session, out, width=1)
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.tsv"]
