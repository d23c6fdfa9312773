"""Every artefact reaches its path through data.replacing_writer: a writer
that fails part-way leaves the file already at the path untouched.  Every
input file is read through data.read_lines, and the checkpoint through
model.load_checkpoint: no other code in src/ opens a file."""

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import make_toy_pairs
from fact2question import cli, data
from fact2question.cli import run
from fact2question.data import Vocabulary, question_line, write_vectors
from fact2question.metrics import ExampleScore, MetricReport
from fact2question.model import QGenParams, save_checkpoint
from fact2question.placeholders import CategoryMap
from fact2question.training import TrainResult

SRC = Path(data.__file__).parent
OLD_BYTES = b"an artefact from an earlier run\n"


def _writing_opens(tree: ast.AST, allow_replacing_writer: bool) -> list[int]:
    """Lines of open() calls whose mode may write (w, a, x or +); a mode
    that is not a string literal counts as writing."""
    allowed: set[int] = set()
    if allow_replacing_writer:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "replacing_writer":
                allowed.update(id(inner) for inner in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open") or id(node) in allowed:
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        for mode in modes:
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+")):
                lines.append(node.lineno)
    return lines


def test_only_replacing_writer_opens_files_for_writing():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line}"
                  for line in _writing_opens(tree, path.name == "data.py")]
    assert found == []


def test_guard_sees_a_writing_open():
    tree = ast.parse("def f(p):\n    open(p, 'a')\n    open(p, mode=m)\n"
                     "    open(p)\n    open(p, 'rb')\n")
    assert _writing_opens(tree, True) == [2, 3]


FILE_OPENERS = [("data.py", "read_lines"), ("data.py", "replacing_writer"),
                ("model.py", "load_checkpoint")]


def _file_opens(tree: ast.AST) -> list[tuple[str, int]]:
    """(enclosing function, line) of every call to open() or to an .open(),
    .read_text() or .read_bytes() method.  A function is named with its
    class and outer functions ("Vocabulary.load", "f.inner"); module level
    is ""."""
    found = []

    def visit(node, scope):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "open"
                or isinstance(node.func, ast.Attribute)
                and node.func.attr in ("open", "read_text", "read_bytes")):
            found.append((scope, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_only_the_three_file_openers_open_files():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, scope) for scope, _ in _file_opens(tree)]
    assert sorted(found) == FILE_OPENERS


def test_read_guard_sees_an_open_elsewhere():
    tree = ast.parse("def read_lines(p):\n    open(p, 'rb')\n"
                     "class C:\n    def load(self, p):\n        return open(p)\n"
                     "def f(p):\n    def g():\n        p.read_text()\n"
                     "    io.open(p)\n"
                     "open('x')\n")
    assert _file_opens(tree) == [("read_lines", 2), ("C.load", 5), ("f.g", 8),
                                 ("f", 9), ("", 10)]


class Exploding(str):
    """A string that raises when a writer formats, appends to or encodes it,
    so the writer fails after it has written its first rows."""

    def _explode(self, *args):
        raise RuntimeError("writer failed part-way")

    __format__ = __add__ = encode = _explode


def _checkpoint(tmp_path, monkeypatch):
    vocab = Vocabulary(["<unk>", "<bos>", "?"])
    params = QGenParams.init(n_in=3, n_out=3, d_enc=2, d_dec=2, hidden=2, seed=0)
    params.tensors[Exploding("zz_last")] = next(iter(params.tensors.values()))
    path = tmp_path / "checkpoint.bin"
    return path, lambda: save_checkpoint(path, params, "sp", vocab, vocab)


def _vocabulary(tmp_path, monkeypatch):
    vocab = Vocabulary(["<unk>", "<bos>", Exploding("word")])
    path = tmp_path / "output_vocab.tsv"
    return path, lambda: vocab.dump(path)


def _vectors(tmp_path, monkeypatch):
    path = tmp_path / "entities.txt"
    return path, lambda: write_vectors(path, ["m.a", Exploding("m.b")],
                                       np.zeros((2, 3)))


def _category_map(tmp_path, monkeypatch):
    cmap = CategoryMap({"a/place/x": "place", "b/person/y": Exploding("person")})
    path = tmp_path / "category_map.tsv"
    return path, lambda: cmap.dump(path)


def _report(tmp_path, monkeypatch):
    row = dict(candidate=["who", "?"], reference=["who", "?"],
               precisions=(1.0, 1.0, 1.0, 1.0), emb_greedy=None)
    report = MetricReport(bleu=100.0, meteor_lite=1.0, emb_greedy=None, oov_count=0,
                          examples=[ExampleScore(meteor_lite=1.0, **row),
                                    ExampleScore(meteor_lite=Exploding("1"), **row)])
    path = tmp_path / "report.tsv"
    return path, lambda: report.write_tsv(path)


def _train_log(tmp_path, monkeypatch):
    questions = tmp_path / "questions.txt"
    questions.write_text("".join(question_line(p.fact, p.question_tokens)
                                 for p in make_toy_pairs(6)), encoding="utf-8")
    ent, rel = tmp_path / "entities.txt", tmp_path / "relations.txt"
    assert run(["train-transe", "--questions", str(questions), "--dim", "4",
                "--epochs", "1", "--out-entities", str(ent),
                "--out-relations", str(rel)]) == 0

    def scripted_train(train_pairs, valid_pairs, params, *args):
        return TrainResult(params, ["1\t2.0\t0.5\t0.1", Exploding("2")], 0.5, 2)

    monkeypatch.setattr(cli, "train", scripted_train)
    out_dir = tmp_path / "model"
    out_dir.mkdir()
    argv = ["train-qgen", "--train", str(questions), "--valid", str(questions),
            "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
            "--hidden", "4", "--word-dim", "4", "--out-dir", str(out_dir)]
    return out_dir / "train_log.tsv", lambda: run(argv)


@pytest.mark.parametrize("case", [_checkpoint, _vocabulary, _vectors,
                                  _category_map, _report, _train_log],
                         ids=lambda case: case.__name__.lstrip("_"))
def test_failed_write_keeps_the_earlier_file(case, tmp_path, monkeypatch):
    path, write = case(tmp_path, monkeypatch)
    path.write_bytes(OLD_BYTES)
    with pytest.raises(RuntimeError, match="part-way"):
        write()
    assert path.read_bytes() == OLD_BYTES
    assert list(path.parent.glob(".*.tmp")) == []
