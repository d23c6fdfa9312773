"""The benchmark's own tests: fixtures are deterministic, tracing nests.

    python3 -m pytest perfbench -q
"""

import sys
import threading
import types
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixtures  # noqa: E402
import tracing  # noqa: E402

TINY = replace(
    fixtures.WORKLOAD_SIZES["train"], entities=60, clusters=6, kb_out_degree=3,
    kb_heldout=20, train_questions=60, valid_questions=5, heldout_questions=20,
    topic_words=30, word_vector_dim=5, decode_facts=6, beam_facts=3,
    dec_d_enc=4, dec_word_dim=4, dec_hidden=6, dec_vocab=20, embed_dim=5)


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_same_seed_gives_byte_identical_fixtures(tmp_path):
    a = fixtures.build(tmp_path / "a", 7, TINY)
    b = fixtures.build(tmp_path / "b", 7, TINY)
    c = fixtures.build(tmp_path / "c", 8, TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a.expected == b.expected
    assert _files(tmp_path / "a")["questions_train.tsv"] != \
        _files(tmp_path / "c")["questions_train.tsv"]


def test_seeded_skips_are_present(tmp_path):
    fx = fixtures.build(tmp_path, 3, TINY)
    exp = fx.expected
    assert exp["decode_unknown"] == TINY.decode_facts // TINY.unknown_every
    assert exp["beam_unknown"] == TINY.beam_facts // TINY.unknown_every
    assert exp["train_dropped"] == TINY.train_questions // TINY.no_subject_every
    assert exp["heldout_unseen"] >= 1
    heldout = Path(fx.questions_heldout).read_text().splitlines()
    references = Path(fx.references).read_text().splitlines()
    assert len(references) == len(heldout) - exp["heldout_unseen"]


def test_no_subject_questions_share_no_letter_with_names():
    for template in fixtures.NO_SUBJECT_TEMPLATES:
        assert not set(template) & set(fixtures.NAME_LETTERS)


def test_spans_nest_per_thread_and_unwrap():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = tracing.Tracer()
    tracer.patch(mod, "inner", "inner", info_fn=lambda a, r: r)
    tracer.patch(mod, "outer", "outer")
    tracer.begin("stage-a")
    assert mod.outer(1) == 4
    worker = threading.Thread(target=mod.inner, args=(5,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.uninstall()
    assert mod.inner is original
    spans = tracer.spans
    names = [s[tracing.NAME] for s in spans]
    assert names == ["outer", "inner", "inner"]
    outer, nested, threaded = spans
    assert nested[tracing.PARENT] == 0 and nested[tracing.INFO] == 2
    assert threaded[tracing.PARENT] is None
    assert threaded[tracing.THREAD] != outer[tracing.THREAD]
    assert {s[tracing.STAGE] for s in spans} == {"stage-a"}
    assert tracer.passes == {"stage-a": 1}
    assert outer[tracing.START] <= nested[tracing.START] <= nested[tracing.END] \
        <= outer[tracing.END]


def test_failed_calls_are_marked():
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    tracer = tracing.Tracer()
    tracer.patch(mod, "f", "f")
    try:
        mod.f()
    except ZeroDivisionError:
        pass
    tracer.uninstall()
    assert tracer.spans[0][tracing.INFO] == tracing.FAILED
