import pytest

from fact2question.baseline import build_template_index, sample_question
from fact2question.data import Fact, QAPair, tokenize
from fact2question.errors import ContractError, UnseenRelationshipError
from fact2question.placeholders import placeholderize


def _ph(subject, relationship, question):
    pair = QAPair(Fact(subject, relationship, "obj"), tuple(tokenize(question)))
    return placeholderize(pair, mode="sp")


def test_build_index_single_pair():
    index = build_template_index([_ph("fires_creek", "contained_by",
                                      "which forest is fires creek in?")])
    assert set(index.by_relationship) == {"contained_by"}
    assert len(index.by_relationship["contained_by"]) == 1


def test_build_index_groups_by_relationship_keeping_duplicates():
    phs = [
        _ph("paris", "contained_by", "where is paris?"),
        _ph("lyon", "contained_by", "where is lyon?"),
        _ph("bob", "profession", "what does bob do?"),
        _ph("rome", "contained_by", "where is rome?"),
    ]
    index = build_template_index(phs)
    assert len(index.by_relationship["contained_by"]) == 3
    assert len(index.by_relationship["profession"]) == 1
    # "where is <placeholder> ?" appears three times: duplicates retained
    assert len(set(index.by_relationship["contained_by"])) == 1


def test_build_index_count_matches_surviving_pairs():
    questions = [(f"thing_{i}", "rel/type/prop", f"what is thing {i}?")
                 for i in range(25)]
    index = build_template_index([_ph(*q) for q in questions])
    assert len(index.by_relationship["rel/type/prop"]) == 25


def test_build_index_rejects_bad_templates():
    with pytest.raises(ContractError):
        build_template_index([
            type("Fake", (), {"fact": Fact("a", "r", "b"),
                              "tokens": ("no", "marker", "?")})()
        ])


def test_sample_single_template_is_deterministic():
    index = build_template_index([_ph("fires_creek", "contained_by",
                                      "which forest is fires creek in?")])
    fact = Fact("bayuvi_dupki", "contained_by", "europe")
    for seed in range(5):
        assert sample_question(fact, index, seed) == \
            ["which", "forest", "is", "bayuvi", "dupki", "in", "?"]


def test_sample_paper_style_template():
    index = build_template_index([
        _ph("some_city", "contained_by",
            "what state is the city of some city located in?"),
    ])
    fact = Fact("bayuvi_dupki", "contained_by", "europe")
    assert " ".join(sample_question(fact, index, 0)) == \
        "what state is the city of bayuvi dupki located in ?"


def test_sample_contains_subject_contiguously_and_template_tokens_only():
    phs = [
        _ph("paris", "contained_by", "where is paris?"),
        _ph("lyon", "contained_by", "what country is lyon located in?"),
    ]
    index = build_template_index(phs)
    template_tokens = {tok for tmpl in index.by_relationship["contained_by"]
                       for tok in tmpl}
    fact = Fact("bayuvi_dupki", "contained_by", "europe")
    subject = ["bayuvi", "dupki"]
    for seed in range(50):
        words = sample_question(fact, index, seed)
        joined = " ".join(words)
        assert " ".join(subject) in joined
        rest = [t for t in words if t not in subject]
        assert all(t in template_tokens for t in rest)


def test_sample_seed_reproducible():
    phs = [_ph("paris", "contained_by", "where is paris?"),
           _ph("lyon", "contained_by", "what country is lyon located in?")]
    index = build_template_index(phs)
    fact = Fact("rome", "contained_by", "italy")
    assert sample_question(fact, index, 123) == sample_question(fact, index, 123)


def test_sample_unseen_relationship_errors():
    index = build_template_index([_ph("paris", "contained_by", "where is paris?")])
    with pytest.raises(UnseenRelationshipError):
        sample_question(Fact("a", "never_seen", "b"), index, 0)


def test_sampling_is_uniform_over_templates():
    phs = [_ph("paris", "contained_by", "where is paris?"),
           _ph("lyon", "contained_by", "what country is lyon located in?")]
    index = build_template_index(phs)
    fact = Fact("rome", "contained_by", "italy")
    counts = {True: 0, False: 0}
    draws = 10_000
    for seed in range(draws):
        counts[sample_question(fact, index, seed)[0] == "where"] += 1
    for side in counts.values():
        assert abs(side / draws - 0.5) <= 0.02
    # chi-square sanity: 1 dof, generous cutoff
    expected = draws / 2
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 6.63  # p > 0.01


def test_names_map_overrides_subject_string():
    index = build_template_index([_ph("paris", "contained_by", "where is paris?")])
    fact = Fact("m.123", "contained_by", "europe")
    words = sample_question(fact, index, 0, names={"m.123": "Bayuvi Dupki"})
    assert words == ["where", "is", "bayuvi", "dupki", "?"]
