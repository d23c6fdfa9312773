import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fact2question import cli
from fact2question.data import (
    BOS,
    Fact,
    QAPair,
    QMARK,
    UNK,
    Vocabulary,
    build_vocabularies,
    load_names,
    load_simplequestions,
    load_triples,
    normalize_id,
    read_facts,
    read_lines,
    read_paired_questions,
    read_tsv,
    read_vectors,
    tokenize,
)
from fact2question.errors import ContractError, ParseError, UnknownIdError


def test_normalize_id_strips_prefix_and_dots_mids():
    assert normalize_id("www.freebase.com/m/abc") == "m.abc"
    assert normalize_id("www.freebase.com/location/location/contained_by") == \
        "location/location/contained_by"
    assert normalize_id("plain_id") == "plain_id"
    assert normalize_id("/m/0f8l9c") == "m.0f8l9c"


def test_tokenize_paper_example():
    assert tokenize("Which forest is Fires Creek in?") == [
        "which", "forest", "is", "fires", "creek", "in", "?"]


def test_tokenize_empty_forces_terminal():
    assert tokenize("") == ["?"]


def test_tokenize_splits_apostrophe_and_punctuation():
    assert tokenize("who's that?") == ["who", "'s", "that", "?"]
    assert tokenize("a, b. c") == ["a", ",", "b", ".", "c", "?"]


@pytest.mark.parametrize("text", [
    "Which forest is Fires Creek in?",
    "who's an american singer that plays pop music?",
    "what is abyss's power or ability?",
    "name an artwork associated with the baroque art period movement?",
    "1 + 1, er... what?",
])
def test_tokenize_idempotent_on_own_output(text):
    once = tokenize(text)
    again = tokenize(" ".join(once))
    assert once == again


def test_qapair_requires_terminal_question_mark():
    fact = Fact("a", "r", "b")
    with pytest.raises(ContractError):
        QAPair(fact, ("what", "is", "a"))
    with pytest.raises(ContractError):
        QAPair(fact, ())


def test_fact_rejects_empty_ids():
    with pytest.raises(ContractError):
        Fact("", "r", "b")


def test_load_simplequestions(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text(
        "www.freebase.com/m/abc\twww.freebase.com/location/location/contained_by"
        "\twww.freebase.com/m/xyz\tWhich forest is Fires Creek in?\n",
        encoding="utf-8",
    )
    pairs = load_simplequestions(path)
    assert len(pairs) == 1
    assert pairs[0].fact == Fact("m.abc", "location/location/contained_by", "m.xyz")
    assert list(pairs[0].question_tokens) == [
        "which", "forest", "is", "fires", "creek", "in", "?"]


def test_load_simplequestions_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert load_simplequestions(path) == []


def test_load_simplequestions_field_count_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\tb\tc\tq?\na\tb\tc\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad.txt:2"):
        load_simplequestions(path)


def test_load_simplequestions_skips_empty_questions(tmp_path, caplog):
    path = tmp_path / "train.txt"
    path.write_text("a\tr\tb\twhat is a?\nc\tr\td\t\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        pairs = load_simplequestions(path)
    assert len(pairs) == 1
    assert "skipped 1" in caplog.text


def test_load_triples_single(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tr\tb\n", encoding="utf-8")
    facts, dups = load_triples(path)
    assert facts == [Fact("a", "r", "b")]
    assert dups == 0


def test_load_triples_reports_duplicates(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tr\tb\na\tr\tb\n", encoding="utf-8")
    facts, dups = load_triples(path)
    assert len(facts) == 1
    assert dups == 1


def test_load_triples_counts_fixture(tmp_path):
    lines = [f"e{i}\tr{i % 3}\te{i + 1}" for i in range(10)]
    lines.append("e0\tr0\te1")  # duplicate of the first
    path = tmp_path / "t.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    facts, dups = load_triples(path)
    assert len(facts) == 10
    assert dups == 1


def test_load_triples_malformed_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(ParseError, match="t.tsv:1"):
        load_triples(path)


def test_load_names(tmp_path):
    path = tmp_path / "names.tsv"
    path.write_text("m.abc\tFires Creek\n", encoding="utf-8")
    assert load_names(path) == {"m.abc": "Fires Creek"}


def test_read_lines_reads_crlf_as_lf(tmp_path):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(b"a\tb\tc\n\nd\te\tf\xc3\xa9\n")
    crlf.write_bytes(b"a\tb\tc\r\n\r\nd\te\tf\xc3\xa9\r")  # a CR ends the file
    assert list(read_lines(lf)) == list(read_lines(crlf)) == [
        "a\tb\tc", "", "d\te\tf\u00e9"]
    assert list(read_tsv(crlf, 3)) == [(1, ["a", "b", "c"]), (3, ["d", "e", "f\u00e9"])]


@pytest.mark.parametrize("data, message", [
    (b"a\tb\tc\n1\t2\t3\rd\te\tf\n", "2: carriage return inside a line"),
    (b"a\tb\tc\r\r\n", "1: carriage return inside a line"),
    (b"a\tb\tc\n\nd\te\t\xff\n", "3: line is not UTF-8"),
    (b"a\tb\t\xc3\r\n", "1: line is not UTF-8"),
], ids=["lone-cr", "cr-cr-lf", "invalid-byte", "cut-sequence"])
def test_read_lines_rejects_lone_cr_and_non_utf8(tmp_path, data, message):
    path = tmp_path / "t.tsv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{path}:{message}$"):
        list(read_facts(path))


@pytest.mark.parametrize("line", [
    "www.freebase.com/\tr\to\twhat is it?",
    "s\t \to\twhat is s?",
    "s\tr\t/\twhat is s?",
], ids=["bare-prefix", "blank-relationship", "bare-slash"])
def test_empty_ids_are_parse_errors_naming_the_line(tmp_path, line):
    questions, triples = tmp_path / "q.txt", tmp_path / "t.tsv"
    questions.write_text(f"a\tr\tb\twhat is a?\n{line}\n", encoding="utf-8")
    triples.write_text("a\tr\tb\n" + line.rsplit("\t", 1)[0] + "\n",
                       encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{questions}:2: empty id$"):
        load_simplequestions(questions)
    with pytest.raises(ParseError, match=f"^{triples}:2: empty id$"):
        list(read_facts(triples))


def _config(path):
    declared = {opt.key: opt for opt in cli.SUBCOMMANDS["train-qgen"][1] + cli.COMMON}
    return cli._read_config_file(path, declared)


TEXT_READERS = {
    "load_simplequestions": load_simplequestions,
    "read_facts": lambda path: list(read_facts(path)),
    "load_names": load_names,
    "Vocabulary.load": Vocabulary.load,
    "read_vectors": read_vectors,
    "read_paired_questions": lambda path: read_paired_questions(
        path, path.with_name("other.txt")),
    "config": _config,
}

# pieces of the files above, line breaks and bytes that are not UTF-8
_PIECES = [b"\t", b"\n", b"\r", b"\r\n", b" ", b"=", b"#", b"0", b"1", b"2",
           b"-1.5", b"nan", b"1e999", b"x", b"?", b"m/ab", b"www.freebase.com/",
           b"1 2\n", b"0 99999999999999999999\n", b"\nhidden = ", b"\nlearning_rate=",
           b"\xff", b"\xc3", b"\xc3\xa9", b"\xe2\x80\xa8"]
_FUZZ_BYTES = (st.binary(max_size=64)
               | st.lists(st.sampled_from(_PIECES), max_size=40).map(b"".join))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.mark.parametrize("reader", TEXT_READERS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=_FUZZ_BYTES, other=_FUZZ_BYTES)
def test_text_reader_fuzz_returns_or_names_the_file(fuzz_dir, reader, data, other):
    # whatever the bytes, a reader returns or raises ParseError or UsageError
    # starting with the path of the file at fault; nothing else escapes
    path, other_path = fuzz_dir / "input.txt", fuzz_dir / "other.txt"
    path.write_bytes(data)
    other_path.write_bytes(other)
    try:
        TEXT_READERS[reader](path)
    except (ParseError, cli.UsageError) as exc:
        assert str(exc).startswith((f"{path}:", f"{other_path}:"))


def _pairs(*rows):
    return [QAPair(Fact(s, r, o), tuple(tokenize(q))) for s, r, o, q in rows]


def test_build_vocabularies_includes_all_tokens_at_min_count_one():
    pairs = _pairs(("x", "rel", "y", "what is x?"))
    input_vocab, output_vocab = build_vocabularies(pairs, min_count=1)
    for token in ("what", "is", "x", "?"):
        assert token in output_vocab
    for reserved in (UNK, BOS, QMARK):
        assert reserved in output_vocab
    for atom in ("x", "rel", "y"):
        assert atom in input_vocab
    assert UNK in input_vocab


def test_build_vocabularies_min_count_maps_rare_to_unk():
    pairs = _pairs(("x", "rel", "y", "what is x?"),
                   ("z", "rel", "y", "what was z?"))
    _, output_vocab = build_vocabularies(pairs, min_count=2)
    assert "was" not in output_vocab
    assert output_vocab.index_or_unk("was") == output_vocab.index(UNK)
    assert "what" in output_vocab


def test_build_vocabularies_always_keeps_placeholders():
    pairs = _pairs(("x", "rel", "y", "what is x?"))
    _, output_vocab = build_vocabularies(pairs, min_count=5,
                                         placeholder_tokens=["<placeholder>"])
    assert "<placeholder>" in output_vocab


def test_build_vocabularies_empty_corpus():
    with pytest.raises(ContractError):
        build_vocabularies([])


def test_vocabulary_round_trip_and_strictness():
    vocab = Vocabulary([UNK, BOS, QMARK, "alpha", "beta"])
    for i in range(len(vocab)):
        assert vocab.index(vocab.token(i)) == i
    with pytest.raises(UnknownIdError):
        vocab.index("missing")
    assert vocab.index_or_unk("missing") == vocab.index(UNK)


def test_vocabulary_dump_load_round_trip(tmp_path):
    pairs = _pairs(("x", "rel", "y", "what is x?"))
    _, vocab = build_vocabularies(pairs)
    path = tmp_path / "vocab.tsv"
    vocab.dump(path)
    reloaded = Vocabulary.load(path)
    assert reloaded.tokens() == vocab.tokens()
    assert reloaded.content_hash() == vocab.content_hash()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert f"{vocab.index('what')}\twhat\t1" in lines


@pytest.mark.parametrize("line, message", [
    ("1\t<bos>\tx", "index and count must be integers"),
    ("one\t<bos>\t1", "index and count must be integers"),
    ("1\t<bos>", "expected 3 tab-separated fields, got 2"),
    ("1\t<unk>\t2", "repeated token '<unk>'"),
], ids=["non-integer-count", "non-integer-index", "two-fields", "repeated-token"])
def test_vocabulary_load_bad_line_names_file_and_line(tmp_path, line, message):
    path = tmp_path / "vocab.tsv"
    path.write_text(f"0\t<unk>\t1\n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"vocab.tsv:2: {message}"):
        Vocabulary.load(path)


def test_read_paired_questions_pairs_by_line_number(tmp_path):
    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    # U+2028 and U+0085 break lines for str.splitlines, not for the reader
    cand.write_text("where\u2028is c ?\n\nwhat\x85?\n", encoding="utf-8")
    ref.write_text("where is c ?\n  \nwhat ?\n\n\n", encoding="utf-8")
    assert read_paired_questions(cand, ref) == (
        [["where", "is", "c", "?"], ["what", "?"]],
        [["where", "is", "c", "?"], ["what", "?"]])


@pytest.mark.parametrize("cand_text, ref_text, place", [
    ("where is c ?\nwhat ?\n", "where is c ?\n\nwhat ?\n", "cand.txt:2"),
    ("where is c ?\nwhat ?\n", "where is c ?\n", "cand.txt:2"),
    ("where is c ?\n\n", "where is c ?\nwhat ?\n", "ref.txt:2"),
], ids=["blank-reference", "missing-reference", "blank-candidate"])
def test_read_paired_questions_rejects_unpaired_question(tmp_path, cand_text,
                                                         ref_text, place):
    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    cand.write_text(cand_text, encoding="utf-8")
    ref.write_text(ref_text, encoding="utf-8")
    with pytest.raises(ParseError, match=f"{place}: question faces a blank line"):
        read_paired_questions(cand, ref)


def test_vocabulary_hash_ignores_counts_but_not_order():
    a = Vocabulary(["x", "y"], counts={"x": 1})
    b = Vocabulary(["x", "y"], counts={"x": 99})
    c = Vocabulary(["y", "x"])
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


@pytest.mark.skipif("SIMPLEQUESTIONS_DIR" not in __import__("os").environ,
                    reason="real SimpleQuestions dataset not present")
def test_real_simplequestions_question_count():
    import os
    root = os.environ["SIMPLEQUESTIONS_DIR"]
    total = sum(
        len(load_simplequestions(os.path.join(root, f"annotated_fb_data_{split}.txt")))
        for split in ("train", "valid", "test"))
    assert total == 108442


@pytest.mark.skipif(
    not ("SIMPLEQUESTIONS_DIR" in __import__("os").environ
         and "SIMPLEQUESTIONS_NAMES" in __import__("os").environ),
    reason="real SimpleQuestions dataset and entity-names file not present")
def test_real_simplequestions_placeholder_vocab_under_7000():
    import os

    from fact2question.data import load_names
    from fact2question.placeholders import SP_TOKEN, placeholderize_corpus

    root = os.environ["SIMPLEQUESTIONS_DIR"]
    names = load_names(os.environ["SIMPLEQUESTIONS_NAMES"])
    train = load_simplequestions(
        os.path.join(root, "annotated_fb_data_train.txt"))
    prepared, _ = placeholderize_corpus(train, "sp", names=names)
    _, output_vocab = build_vocabularies([ph for _, ph in prepared],
                                         placeholder_tokens=[SP_TOKEN])
    assert len(output_vocab) < 7000
