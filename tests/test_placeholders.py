import math
import random
import re
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings, strategies as st

from fact2question import placeholders
from fact2question.data import Fact, QAPair, read_tsv, tokenize, tokenize_phrase
from fact2question.errors import ContractError, NoSubjectSpanError
from fact2question.placeholders import (
    SP_TOKEN,
    PlaceholderizedQuestion,
    build_category_map,
    category_token,
    find_subject_span,
    is_placeholder,
    placeholderize,
    placeholderize_corpus,
    restore,
    subject_text,
    subject_type_segment,
)

FOREST_TOKENS = ["which", "forest", "is", "fires", "creek", "in", "?"]
FOREST_PAIR = QAPair(Fact("fires_creek", "location/location/contained_by",
                          "nantahala_national_forest"), tuple(FOREST_TOKENS))


def test_find_subject_span_exact_match():
    assert find_subject_span(FOREST_TOKENS, "fires creek") == (3, 5, 1.0)


def test_find_subject_span_whole_body():
    tokens = ["fires", "creek", "?"]
    assert find_subject_span(tokens, "fires creek") == (0, 2, 1.0)


def test_find_subject_span_partial_overlap_matches_ratio_oracle():
    tokens = ["who", "wrote", "hamlet", "?"]
    subject = "the tragedy of hamlet"
    start, end, score = find_subject_span(tokens, subject)
    # independent oracle: the matching-blocks ratio over every span
    expected = max(
        ((SequenceMatcher(None, " ".join(tokens[i:j]), subject,
                          autojunk=False).ratio(), i, j)
         for i in range(3) for j in range(i + 1, 4)),
    )
    assert (start, end) == (expected[1], expected[2])
    assert score == pytest.approx(expected[0])
    assert score == pytest.approx(18 / 33)  # "wrote hamlet": 9 matched chars


def test_find_subject_span_tie_breaks_earliest_then_shortest():
    tokens = ["x", "y", "x", "?"]
    start, end, score = find_subject_span(tokens, "x")
    assert (start, end, score) == (0, 1, 1.0)


def test_find_subject_span_never_covers_terminal_mark():
    tokens = ["paris", "?"]
    start, end, _ = find_subject_span(tokens, "paris ?")
    assert (start, end) == (0, 1)


def test_find_subject_span_rejects_empty_inputs():
    with pytest.raises(ContractError):
        find_subject_span([], "x")
    with pytest.raises(ContractError):
        find_subject_span(["a", "?"], "   ")


def exhaustive_subject_span(question_tokens, subject_string):
    """The span search with one fresh matcher per span and no skipping: the
    oracle that find_subject_span must equal exactly."""
    target = " ".join(tokenize_phrase(subject_string))
    body_len = len(question_tokens)
    if question_tokens[-1] == "?":
        body_len -= 1
    max_span = len(target.split()) + 2
    best = (0, 1, -1.0)
    for start in range(body_len):
        for end in range(start + 1, min(body_len, start + max_span) + 1):
            span_text = " ".join(question_tokens[start:end])
            score = SequenceMatcher(None, span_text, target, autojunk=False).ratio()
            if score > best[2]:
                best = (start, end, score)
    return best


# few, overlapping words, so that ties and near-ties are common
SPAN_WORDS = ["a", "ab", "ba", "abc", "b", "the", "then", "é", "éa", "köln",
              "'s", ",", "-", "?"]


def _span_case(rng):
    subject = " ".join(rng.choice(SPAN_WORDS) for _ in range(rng.randint(1, 5)))
    tokens = [rng.choice(SPAN_WORDS) for _ in range(rng.randint(1, 9))]
    if rng.random() < 0.5:  # plant the subject, sometimes twice
        for _ in range(rng.randint(1, 2)):
            at = rng.randint(0, len(tokens))
            tokens[at:at] = subject.split()
    if rng.random() < 0.7:
        tokens.append("?")
    return tokens, subject


def _check_against_oracle(tokens, subject):
    expected = exhaustive_subject_span(tokens, subject)
    if expected[2] < 0:  # only a '?': no body tokens
        with pytest.raises(ContractError, match="no body tokens"):
            find_subject_span(tokens, subject)
    else:
        assert find_subject_span(tokens, subject) == expected


def test_find_subject_span_equals_the_exhaustive_search_on_seeded_cases():
    rng = random.Random(1603)
    for _ in range(3000):
        _check_against_oracle(*_span_case(rng))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tokens=st.lists(st.sampled_from(SPAN_WORDS), min_size=1, max_size=12),
       subject=st.lists(st.sampled_from(SPAN_WORDS), min_size=1, max_size=14))
def test_find_subject_span_equals_the_exhaustive_search(tokens, subject):
    # subjects longer than the question, punctuation and '?' inside either
    _check_against_oracle(tokens, " ".join(subject))


def test_find_subject_span_builds_one_matcher_per_call(monkeypatch):
    built = []

    class CountingMatcher(SequenceMatcher):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(placeholders, "SequenceMatcher", CountingMatcher)
    tokens = "which forest is fires creek in fires creek ?".split()
    assert find_subject_span(tokens, "fires creek") == (3, 5, 1.0)
    assert len(built) == 1


def test_subject_text_prefers_names_then_humanizes():
    fact = Fact("fires_creek", "r", "o")
    assert subject_text(fact) == "fires creek"
    assert subject_text(fact, {"fires_creek": "Fires Creek"}) == "Fires Creek"


def test_placeholderize_sp_paper_example():
    ph = placeholderize(FOREST_PAIR, mode="sp")
    assert list(ph.tokens) == ["which", "forest", "is", SP_TOKEN, "in", "?"]
    assert ph.span == (3, 5)
    assert ph.score == 1.0
    assert ph.category is None


def test_placeholderize_mp_paper_example():
    category_map = build_category_map([FOREST_PAIR])
    ph = placeholderize(FOREST_PAIR, mode="mp", category_map=category_map)
    assert list(ph.tokens) == ["which", "forest", "is", "<location placeholder>",
                               "in", "?"]
    assert ph.category == "location"


def test_placeholderize_whole_body_span():
    pair = QAPair(Fact("paris", "r/t/p", "o"), ("paris", "?"))
    ph = placeholderize(pair)
    assert list(ph.tokens) == [SP_TOKEN, "?"]


def test_placeholderize_below_threshold_raises():
    pair = QAPair(Fact("zzzz_qqqq", "r/t/p", "o"),
                  tuple(tokenize("who wrote the long book?")))
    with pytest.raises(NoSubjectSpanError):
        placeholderize(pair)


def test_placeholderize_corpus_counts_drops():
    bad = QAPair(Fact("zzzz_qqqq", "r/t/p", "o"),
                 tuple(tokenize("who wrote the long book?")))
    kept, dropped = placeholderize_corpus([FOREST_PAIR, bad], "sp")
    assert len(kept) == 1
    assert dropped == 1


def test_placeholderize_corpus_drops_pairs_with_nothing_to_match():
    # a question that is only '?', a subject id that reads as blank and a
    # blank display name: each is dropped and counted at any threshold
    no_words = QAPair(FOREST_PAIR.fact, ("?",))
    blank_id = QAPair(Fact("__", "r/t/p", "o"), tuple(FOREST_TOKENS))
    blank_name = QAPair(Fact("m.blank", "r/t/p", "o"), tuple(FOREST_TOKENS))
    names = {"m.blank": " "}
    for pair in (no_words, blank_id, blank_name):
        with pytest.raises(NoSubjectSpanError, match="^nothing to match"):
            placeholderize(pair, names=names, threshold=0.0)
    kept, dropped = placeholderize_corpus(
        [no_words, FOREST_PAIR, blank_id, blank_name], "sp", None, names, 0.0)
    assert [pair for pair, _ in kept] == [FOREST_PAIR]
    assert dropped == 3


@pytest.mark.parametrize("mode, threshold, message", [
    ("zz", math.nan, "mode must be 'sp' or 'mp', got 'zz'"),
    ("mp", 0.5, "mp mode needs a category map"),
    ("sp", math.nan, "threshold must be in [0, 1], got nan"),
])
def test_placeholderize_corpus_checks_options_on_an_empty_corpus(mode, threshold,
                                                                 message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        placeholderize_corpus([], mode, None, None, threshold)


def test_placeholderize_output_has_exactly_one_placeholder():
    ph = placeholderize(FOREST_PAIR)
    assert sum(1 for t in ph.tokens if is_placeholder(t)) == 1


@pytest.mark.parametrize("tokens", [
    ("no", "marker", "?"),
    (SP_TOKEN, "and", "<place placeholder>", "?"),
], ids=["zero", "two"])
def test_placeholderized_question_needs_exactly_one_placeholder(tokens):
    with pytest.raises(ContractError, match="exactly one placeholder token"):
        PlaceholderizedQuestion(fact=Fact("a", "r", "b"), tokens=tokens, span=(0, 1),
                                subject="a", score=1.0)


def test_restore_round_trip_paper_example():
    ph = placeholderize(FOREST_PAIR, mode="sp")
    assert restore(ph.tokens, "fires creek") == FOREST_TOKENS


def test_restore_single_token_question():
    assert restore([SP_TOKEN, "?"], "paris") == ["paris", "?"]


def test_restore_replaces_every_placeholder():
    assert restore([SP_TOKEN, "and", SP_TOKEN, "?"], "bob") == ["bob", "and", "bob", "?"]


def test_restore_without_placeholder_returns_tokens_unchanged():
    assert restore(["what", "is", "x", "?"], "bob") == ["what", "is", "x", "?"]


def test_restore_handles_mp_tokens():
    assert restore(["which", "forest", "is", "<location placeholder>", "in", "?"],
                   "fires creek") == FOREST_TOKENS


@pytest.mark.parametrize("seed", range(3))
def test_round_trip_property_for_perfect_spans(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    for _ in range(50):
        subject_tokens = [words[i] for i in
                          rng.integers(0, len(words), rng.integers(1, 4))]
        subject = "_".join(subject_tokens)
        prefix = [words[i] for i in rng.integers(0, len(words), rng.integers(1, 3))]
        tokens = tuple(prefix) + tuple(subject_tokens) + ("?",)
        pair = QAPair(Fact(subject, "d/t/p", "obj"), tokens)
        ph = placeholderize(pair)
        if ph.score == 1.0:
            assert restore(ph.tokens, subject_text(pair.fact)) == list(tokens)


def test_subject_type_segment_extraction():
    assert subject_type_segment("location/location/contained_by") == "location"
    assert subject_type_segment("people/person/nationality") == "person"
    assert subject_type_segment("r123") is None


def test_build_category_map_fallback_for_opaque_ids():
    pair = QAPair(Fact("x", "r123", "y"), ("what", "is", "x", "?"))
    cmap = build_category_map([pair])
    assert cmap.lookup("r123") == "other"
    assert cmap.lookup("never_seen") == "other"


def test_build_category_map_caps_at_sixty():
    pairs = []
    for i in range(80):
        rel = f"domain/type{i:02d}/prop"
        # earlier types more frequent
        for _ in range(80 - i):
            pairs.append(QAPair(Fact(f"s{i}", rel, "o"), ("what", "?",)))
    cmap = build_category_map(pairs)
    assert len(cmap.categories()) <= 60
    assert cmap.lookup("domain/type00/prop") == "type00"
    assert cmap.lookup("domain/type79/prop") == "other"  # merged by frequency


def test_category_map_dump_load(tmp_path):
    cmap = build_category_map([FOREST_PAIR])
    path = tmp_path / "categories.tsv"
    cmap.dump(path)
    reloaded = dict(fields for _, fields in read_tsv(path, 2))
    assert reloaded == cmap.by_relationship


def test_category_tokens_are_recognized_placeholders():
    assert is_placeholder(SP_TOKEN)
    assert is_placeholder(category_token("location"))
    assert not is_placeholder("<bos>")
    assert not is_placeholder("placeholder")
