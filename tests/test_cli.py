import numpy as np
import pytest

from conftest import make_toy_pairs
from fact2question import cli, evaluation
from fact2question.baseline import sample_question
from fact2question.cli import run
from fact2question.data import Vocabulary
from fact2question.errors import ContractError, NumericError
from fact2question.model import INPUT_EMB_NAME, QGenParams, save_checkpoint


def _write_questions(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            question = " ".join(pair.question_tokens)
            fh.write(f"{pair.fact.subject}\t{pair.fact.relationship}\t"
                     f"{pair.fact.object}\t{question}\n")


def _write_facts(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(f"{pair.fact.subject}\t{pair.fact.relationship}\t"
                     f"{pair.fact.object}\n")


@pytest.fixture()
def toy_files(tmp_path):
    pairs = make_toy_pairs(14)
    train, valid = pairs[:10], pairs[10:]
    paths = {
        "train": tmp_path / "train.txt",
        "valid": tmp_path / "valid.txt",
        "facts": tmp_path / "facts.tsv",
        "dir": tmp_path,
    }
    _write_questions(paths["train"], train)
    _write_questions(paths["valid"], valid)
    _write_facts(paths["facts"], pairs)
    return paths


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_no_subcommand_exits_one(capsys):
    assert run([]) == 1


def test_unknown_flag_exits_one(capsys):
    assert run(["gradcheck", "--frob", "1"]) == 1


def test_gradcheck_passes_and_reports(capsys):
    assert run(["gradcheck", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    err = float(out.split(":")[1].split()[0])
    assert err <= 1e-4


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_gradcheck_bad_eps_exits_two(capsys, eps):
    assert run(["gradcheck", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: finite_diff_check: eps must be positive "
                            f"and finite, got {float(eps)}\n")
    assert captured.out == ""


def test_evaluate_self_comparison_reports_bleu_100(tmp_path, capsys):
    f = tmp_path / "questions.txt"
    f.write_text("which forest is fires creek in?\nwho made neo contra?\n",
                 encoding="utf-8")
    assert run(["evaluate", "--candidates", str(f), "--references", str(f)]) == 0
    out = capsys.readouterr().out
    bleu_line = [l for l in out.splitlines() if l.startswith("bleu")][0]
    assert float(bleu_line.split("\t")[1]) == pytest.approx(100.0, abs=1e-6)


def test_evaluate_missing_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert run(["evaluate", "--candidates", str(missing),
                "--references", str(missing)]) == 2


def test_evaluate_unpaired_question_exits_two(tmp_path, capsys):
    # str.splitlines would break the candidate at U+2028 and, with the blank
    # reference line dropped, pair every question with the wrong reference
    cand, ref = tmp_path / "cand.txt", tmp_path / "ref.txt"
    cand.write_text("where\u2028is c ?\nwhat ?\n", encoding="utf-8")
    ref.write_text("where is c ?\n\nwhat ?\n", encoding="utf-8")
    report = tmp_path / "report.tsv"
    assert run(["evaluate", "--candidates", str(cand), "--references", str(ref),
                "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cand}:2: question faces a blank line or no line at {ref}:2" in err
    assert not report.exists()


def test_neighbors_bad_embedding_header_exits_two(tmp_path, capsys):
    f = tmp_path / "entities.txt"
    f.write_text("100000000000 200\nx 1.0\n", encoding="utf-8")
    assert run(["neighbors", "--entity-embeddings", str(f), "--entity", "x"]) == 2
    assert "entities.txt:2" in capsys.readouterr().err


def test_missing_required_flag_exits_one(capsys):
    assert run(["evaluate", "--candidates", "only-this"]) == 1


def test_config_file_merging_and_flag_precedence(tmp_path, capsys):
    f = tmp_path / "qs.txt"
    f.write_text("who made neo contra?\n", encoding="utf-8")
    g = tmp_path / "other.txt"
    g.write_text("who published neo contra?\n", encoding="utf-8")
    config = tmp_path / "run.conf"
    config.write_text(
        f"candidates = {f}\nreferences = {f}\n# a comment\n", encoding="utf-8")
    assert run(["evaluate", "--config", str(config)]) == 0
    out1 = capsys.readouterr()
    assert "100.0000" in out1.out
    # explicit flag overrides the file value
    assert run(["evaluate", "--config", str(config), "--references", str(g)]) == 0
    out2 = capsys.readouterr()
    assert "100.0000" not in out2.out


def test_config_file_unknown_key_exits_one(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("candidates = x\nfrobnication = 9\n", encoding="utf-8")
    assert run(["evaluate", "--config", str(config)]) == 1
    assert "frobnication" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("epochs = abc", "invalid int value for epochs: 'abc'"),
    ("margin = 1.0.0", "invalid float value for margin: '1.0.0'"),
    ("seed =", "invalid int value for seed: ''"),
], ids=["int", "float", "empty"])
def test_config_file_bad_value_exits_one(tmp_path, capsys, line, message):
    config = tmp_path / "run.conf"
    config.write_text(f"dim = 4\n{line}\n", encoding="utf-8")
    assert run(["train-transe", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{config}:2: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    (b"candidates = x\rreferences = y\n", "1: carriage return inside a line"),
    (b"# caf\xe9\n", "1: line is not UTF-8"),
], ids=["lone-cr", "latin-1"])
def test_config_file_line_faults_exit_two(tmp_path, capsys, data, message):
    config = tmp_path / "run.conf"
    config.write_bytes(data)
    assert run(["evaluate", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {config}:{message}\n"


@pytest.mark.parametrize("cand, ref, place", [
    (b"where is c ?\r\nwho ?\n", b"where is c ?\nwho ?\r\n", None),
    (b"where is c ?\nwho\r?\n", b"where is c ?\nwho ?\n",
     "cand.txt:2: carriage return inside a line"),
    (b"where is c ?\nwho ?\n", b"where is c ?\n\xffwho ?\n",
     "ref.txt:2: line is not UTF-8"),
], ids=["crlf", "lone-cr", "non-utf8"])
def test_evaluate_line_rule(tmp_path, capsys, cand, ref, place):
    paths = tmp_path / "cand.txt", tmp_path / "ref.txt"
    for path, data in zip(paths, (cand, ref)):
        path.write_bytes(data)
    rc = run(["evaluate", "--candidates", str(paths[0]), "--references", str(paths[1])])
    captured = capsys.readouterr()
    if place is None:
        assert rc == 0 and "bleu\t100.0000" in captured.out
    else:
        assert rc == 2 and captured.err == f"error: {tmp_path}/{place}\n"


def test_data_faults_exit_two_naming_the_line(tmp_path, capsys):
    triples, vectors = tmp_path / "t.tsv", tmp_path / "vectors.txt"
    triples.write_text("a\tr\tb\nwww.freebase.com/\tr\tb\n", encoding="utf-8")
    assert run(["train-transe", "--triples", str(triples), "--out-entities",
                str(tmp_path / "e.txt"), "--out-relations", str(tmp_path / "r.txt")]) == 2
    assert capsys.readouterr().err == f"error: {triples}:2: empty id\n"
    # a NaN coordinate would make min(1.0, nan) score the pair 100
    questions = tmp_path / "q.txt"
    questions.write_text("foo ?\n", encoding="utf-8")
    vectors.write_text("3 2\nbar 0.5 1.0\nfoo nan 1.0\n? 1.0 0.0\n", encoding="utf-8")
    assert run(["evaluate", "--candidates", str(questions), "--references",
                str(questions), "--word-vectors", str(vectors)]) == 2
    assert capsys.readouterr().err == f"error: {vectors}:3: non-finite value\n"


def test_effective_config_is_echoed(tmp_path, capsys, caplog):
    f = tmp_path / "qs.txt"
    f.write_text("who made neo contra?\n", encoding="utf-8")
    with caplog.at_level("INFO"):
        run(["evaluate", "--candidates", str(f), "--references", str(f)])
    assert any("config candidates" in m for m in caplog.messages)
    assert any("config seed" in m for m in caplog.messages)


def test_full_pipeline_smoke(toy_files, capsys):
    d = toy_files["dir"]
    ent, rel = d / "entities.txt", d / "relations.txt"
    rc = run(["train-transe", "--questions",
              f"{toy_files['train']},{toy_files['valid']}",
              "--dim", "8", "--epochs", "5", "--seed", "1",
              "--out-entities", str(ent), "--out-relations", str(rel)])
    assert rc == 0
    assert ent.exists() and rel.exists()

    # neighbors on the trained entities
    rc = run(["neighbors", "--entity-embeddings", str(ent),
              "--entity", "thing_0", "--k", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    neighbor_rows = [l for l in lines if "\t" in l]
    assert len(neighbor_rows) == 3

    out_dir = d / "model"
    rc = run(["train-qgen", "--train", str(toy_files["train"]),
              "--valid", str(toy_files["valid"]),
              "--entity-embeddings", str(ent),
              "--relationship-embeddings", str(rel),
              "--hidden", "12", "--word-dim", "6",
              "--max-steps", "4", "--eval-every", "100",
              "--seed", "0", "--out-dir", str(out_dir)])
    assert rc == 0
    for artifact in ("checkpoint.bin", "input_vocab.tsv", "output_vocab.tsv",
                     "train_log.tsv"):
        assert (out_dir / artifact).exists()

    corpus = d / "generated.tsv"
    rc = run(["generate", "--facts", str(toy_files["facts"]),
              "--checkpoint", str(out_dir / "checkpoint.bin"),
              "--input-vocab", str(out_dir / "input_vocab.tsv"),
              "--output-vocab", str(out_dir / "output_vocab.tsv"),
              "--width", "2", "--max-len", "8", "--output", str(corpus)])
    assert rc == 0
    rows = corpus.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 14
    assert all(len(r.split("\t")) == 4 for r in rows)

    base_out = d / "baseline.tsv"
    rc = run(["baseline", "--train", str(toy_files["train"]),
              "--facts", str(toy_files["facts"]),
              "--seed", "3", "--output", str(base_out)])
    assert rc == 0
    rows = base_out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 14
    assert all(r.split("\t")[3].endswith("?") for r in rows)


def test_train_qgen_mp_mode_writes_category_map(toy_files):
    d = toy_files["dir"]
    ent, rel = d / "e.txt", d / "r.txt"
    assert run(["train-transe", "--questions",
                f"{toy_files['train']},{toy_files['valid']}",
                "--dim", "6", "--epochs", "2", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    out_dir = d / "mp_model"
    assert run(["train-qgen", "--train", str(toy_files["train"]),
                "--valid", str(toy_files["valid"]),
                "--entity-embeddings", str(ent),
                "--relationship-embeddings", str(rel),
                "--mode", "mp", "--hidden", "10", "--word-dim", "6",
                "--max-steps", "2", "--eval-every", "100",
                "--seed", "0", "--out-dir", str(out_dir)]) == 0
    category_map = (out_dir / "category_map.tsv").read_text(encoding="utf-8")
    assert "location/place/found_in\tplace" in category_map


def test_train_qgen_negative_max_steps_exits_two(toy_files, capsys):
    d = toy_files["dir"]
    ent, rel = d / "e4.txt", d / "r4.txt"
    assert run(["train-transe", "--questions", str(toy_files["train"]),
                "--dim", "6", "--epochs", "1", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    assert run(["train-qgen", "--train", str(toy_files["train"]),
                "--valid", str(toy_files["train"]),
                "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
                "--hidden", "4", "--word-dim", "4", "--max-steps", "-1",
                "--out-dir", str(d / "model4")]) == 2
    assert "max_steps" in capsys.readouterr().err
    assert not (d / "model4").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--learning-rate", "-1", "learning rate must be >= 0, got -1.0"),
    ("--learning-rate", "inf", "learning rate must be finite, got inf"),
    ("--clip-norm", "0", "clip norm must be positive, got 0.0"),
    ("--hidden", "0", "hidden must be >= 1, got 0"),
    ("--word-dim", "-1", "d_dec must be >= 1, got -1"),
    ("--threshold", "nan", "threshold must be in [0, 1], got nan"),
    ("--threshold", "1.5", "threshold must be in [0, 1], got 1.5"),
], ids=["learning-rate", "learning-rate-inf", "clip-norm", "hidden", "word-dim",
        "threshold-nan", "threshold-above-one"])
def test_train_qgen_bad_settings_exit_two(toy_files, capsys, flag, value, message):
    d = toy_files["dir"]
    ent, rel = d / "e5.txt", d / "r5.txt"
    assert run(["train-transe", "--questions", str(toy_files["train"]),
                "--dim", "4", "--epochs", "1", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    out_dir = d / "model5"
    assert run(["train-qgen", "--train", str(toy_files["train"]),
                "--valid", str(toy_files["train"]),
                "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
                "--hidden", "4", "--word-dim", "4", flag, value,
                "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--margin", "nan", "margin must be positive, got nan"),
    ("--margin", "0", "margin must be positive, got 0.0"),
    ("--learning-rate", "nan", "learning rate must be >= 0, got nan"),
], ids=["margin-nan", "margin-zero", "learning-rate-nan"])
def test_train_transe_bad_settings_exit_two(toy_files, capsys, flag, value, message):
    d = toy_files["dir"]
    ent, rel = d / "e6.txt", d / "r6.txt"
    assert run(["train-transe", "--questions", str(toy_files["train"]),
                "--dim", "4", "--epochs", "1", flag, value,
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ent.exists() and not rel.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--learning-rate", "inf", "learning rate must be finite, got inf"),
    ("--margin", "inf", "margin must be finite, got inf"),
    ("--learning-rate", "1e308",
     "TransE epoch 1 left an embedding whose squared norm is not finite "
     "(learning rate 1e+308)"),
], ids=["learning-rate-inf", "margin-inf", "learning-rate-overflow"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_transe_non_finite_settings_exit_two(toy_files, capsys, flag, value, message):
    d = toy_files["dir"]
    ent, rel = d / "e7.txt", d / "r7.txt"
    assert run(["train-transe", "--questions", str(toy_files["train"]),
                "--dim", "1", "--epochs", "2", "--seed", "0", flag, value,
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ent.exists() and not rel.exists()


@pytest.mark.filterwarnings("error")
def test_train_transe_overflow_prints_no_numpy_warning(toy_files, capsys):
    d = toy_files["dir"]
    ent, rel = d / "e8.txt", d / "r8.txt"
    assert run(["train-transe", "--questions", str(toy_files["train"]),
                "--dim", "4", "--epochs", "5", "--learning-rate", "1e300",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: TransE epoch 1 left an embedding whose squared norm is not "
                   "finite (learning rate 1e+300)\n")
    assert "RuntimeWarning" not in err
    assert not ent.exists() and not rel.exists()


def test_train_transe_allocation_failure_exits_two(toy_files, capsys):
    # petabytes, past a 47-bit address space: the allocation cannot succeed
    d = toy_files["dir"]
    ent, rel = d / "e9.txt", d / "r9.txt"
    assert run(["train-transe", "--questions", str(toy_files["train"]),
                "--dim", str(10 ** 13), "--epochs", "1",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not ent.exists() and not rel.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--hidden", str(10 ** 13), "error: Unable to allocate"),  # ~291 TiB
    ("--max-len", "0", "error: max_len must be >= 1, got 0\n"),
], ids=["hidden-allocation", "max-len-zero"])
def test_train_qgen_rejected_before_training_leaves_no_out_dir(toy_files, capsys, flag,
                                                               value, message):
    d = toy_files["dir"]
    ent, rel = d / "e10.txt", d / "r10.txt"
    assert run(["train-transe", "--questions",
                f"{toy_files['train']},{toy_files['valid']}",
                "--dim", "4", "--epochs", "1", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    capsys.readouterr()
    out_dir = d / "model10"
    assert run(["train-qgen", "--train", str(toy_files["train"]),
                "--valid", str(toy_files["valid"]),
                "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
                "--word-dim", "4", "--hidden", "4", "--max-steps", "1", flag, value,
                "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_qgen_numeric_fault_in_validation_keeps_the_best_checkpoint(toy_files,
                                                                         caplog, capsys):
    # one Adam step at learning rate 1e308 throws the weights out of range,
    # so the validation pass after it meets a non-finite fact encoding
    d = toy_files["dir"]
    ent, rel = d / "e11.txt", d / "r11.txt"
    assert run(["train-transe", "--questions",
                f"{toy_files['train']},{toy_files['valid']}",
                "--dim", "4", "--epochs", "1", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    capsys.readouterr()
    out_dir = d / "model11"
    with caplog.at_level("ERROR"):
        assert run(["train-qgen", "--train", str(toy_files["train"]),
                    "--valid", str(toy_files["valid"]),
                    "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
                    "--word-dim", "4", "--hidden", "4", "--learning-rate", "1e308",
                    "--max-steps", "1", "--out-dir", str(out_dir)]) == 0
    errors = [m for m in caplog.messages if "diverged" in m]
    assert len(errors) == 1
    assert errors[0].startswith("training diverged at step 1: ")
    assert errors[0].count("training diverged") == 1
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "checkpoint.bin", "input_vocab.tsv", "output_vocab.tsv", "train_log.tsv"]
    assert (out_dir / "train_log.tsv").read_text(encoding="utf-8") == (
        "step\ttrain-nll\tvalid-meteor-lite\twall-seconds\n")
    assert capsys.readouterr().out == (
        f"no validation pass finished; artifacts in {out_dir}\n")


def test_train_qgen_divergence_prints_the_kept_checkpoint_score(toy_files, capsys,
                                                                monkeypatch):
    # the third validation pass fails; the best of the first two is kept
    real_scorer = cli.validation_scorer

    def failing_on_third_pass(*args):
        score, passes = real_scorer(*args), []

        def scorer(params):
            passes.append(1)
            if len(passes) == 3:
                raise NumericError("non-finite values in the fact encoding")
            return score(params)
        return scorer

    monkeypatch.setattr(cli, "validation_scorer", failing_on_third_pass)
    d = toy_files["dir"]
    ent, rel = d / "e12.txt", d / "r12.txt"
    assert run(["train-transe", "--questions",
                f"{toy_files['train']},{toy_files['valid']}",
                "--dim", "4", "--epochs", "1", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    capsys.readouterr()
    out_dir = d / "model12"
    assert run(["train-qgen", "--train", str(toy_files["train"]),
                "--valid", str(toy_files["valid"]),
                "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
                "--word-dim", "4", "--hidden", "4", "--eval-every", "1",
                "--max-steps", "5", "--out-dir", str(out_dir)]) == 0
    log = (out_dir / "train_log.tsv").read_text(encoding="utf-8").splitlines()[1:]
    scores = [float(line.split("\t")[2]) for line in log]
    assert len(scores) == 2
    assert capsys.readouterr().out == (
        f"best validation meteor-lite {max(scores):.4f}; artifacts in {out_dir}\n")


def test_baseline_drops_training_lines_with_nothing_to_match(toy_files, capsys):
    # a question that is only '?', a subject id that reads as blank and a
    # blank display name are each a dropped pair, not an error
    d = toy_files["dir"]
    train = d / "odd_train.txt"
    train.write_text(toy_files["train"].read_text(encoding="utf-8")
                     + "thing_0\tfacts/thing/kind\tobj_0\t?\n"
                     + "__\tfacts/thing/kind\tobj_0\twhat is it ?\n"
                     + "m.blank\tfacts/thing/kind\tobj_0\twhat is m blank ?\n",
                     encoding="utf-8")
    names = d / "names.tsv"
    names.write_text("m.blank\t \n", encoding="utf-8")
    plain, odd = d / "plain.tsv", d / "odd.tsv"
    for path, train_path in ((plain, toy_files["train"]), (odd, train)):
        assert run(["baseline", "--train", str(train_path),
                    "--facts", str(toy_files["facts"]), "--names", str(names),
                    "--seed", "3", "--output", str(path)]) == 0
    assert "error" not in capsys.readouterr().err
    assert odd.read_bytes() == plain.read_bytes()
    assert len(odd.read_text(encoding="utf-8").splitlines()) == 14


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
def test_baseline_bad_threshold_exits_two(toy_files, capsys, value):
    out = toy_files["dir"] / "baseline.tsv"
    assert run(["baseline", "--train", str(toy_files["train"]),
                "--facts", str(toy_files["facts"]), "--threshold", value,
                "--output", str(out)]) == 2
    message = f"threshold must be in [0, 1], got {float(value)}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_baseline_checks_threshold_on_an_empty_training_file(toy_files, capsys):
    empty = toy_files["dir"] / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    out = toy_files["dir"] / "baseline.tsv"
    assert run(["baseline", "--train", str(empty), "--facts", str(toy_files["facts"]),
                "--threshold", "nan", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: threshold must be in [0, 1], got nan\n"
    assert not out.exists()


def test_train_qgen_forwards_max_len_to_validation(toy_files, monkeypatch):
    seen = []

    class RecordingSession(evaluation.GenerationSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self.max_len)

    monkeypatch.setattr(evaluation, "GenerationSession", RecordingSession)
    d = toy_files["dir"]
    ent, rel = d / "e3.txt", d / "r3.txt"
    assert run(["train-transe", "--questions",
                f"{toy_files['train']},{toy_files['valid']}",
                "--dim", "6", "--epochs", "2", "--seed", "0",
                "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
    assert run(["train-qgen", "--train", str(toy_files["train"]),
                "--valid", str(toy_files["valid"]),
                "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
                "--hidden", "10", "--word-dim", "6", "--max-steps", "2",
                "--eval-every", "1", "--max-len", "5", "--seed", "0",
                "--out-dir", str(d / "model3")]) == 0
    assert seen and set(seen) == {5}


def test_baseline_leaves_no_partial_output(toy_files, monkeypatch, capsys):
    calls = []

    def failing_sample(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ContractError("sampling failed")
        return sample_question(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_question", failing_sample)
    d = toy_files["dir"]
    before = sorted(p.name for p in d.iterdir())
    rc = run(["baseline", "--train", str(toy_files["train"]),
              "--facts", str(toy_files["facts"]),
              "--output", str(d / "baseline.tsv")])
    assert rc == 2
    assert "sampling failed" in capsys.readouterr().err
    assert len(calls) == 3
    assert sorted(p.name for p in d.iterdir()) == before


def test_generate_rejects_mismatched_vocab(toy_files, tmp_path, capsys):
    d = toy_files["dir"]
    ent, rel = d / "e2.txt", d / "r2.txt"
    run(["train-transe", "--questions",
         f"{toy_files['train']},{toy_files['valid']}",
         "--dim", "6", "--epochs", "2", "--seed", "0",
         "--out-entities", str(ent), "--out-relations", str(rel)])
    out_dir = d / "model2"
    run(["train-qgen", "--train", str(toy_files["train"]),
         "--valid", str(toy_files["valid"]),
         "--entity-embeddings", str(ent), "--relationship-embeddings", str(rel),
         "--hidden", "10", "--word-dim", "6", "--max-steps", "2",
         "--eval-every", "100", "--seed", "0", "--out-dir", str(out_dir)])
    wrong_vocab = tmp_path / "wrong.tsv"
    wrong_vocab.write_text("0\t<unk>\t0\n1\t<bos>\t0\n2\t?\t0\n",
                           encoding="utf-8")
    rc = run(["generate", "--facts", str(toy_files["facts"]),
              "--checkpoint", str(out_dir / "checkpoint.bin"),
              "--input-vocab", str(out_dir / "input_vocab.tsv"),
              "--output-vocab", str(wrong_vocab),
              "--output", str(tmp_path / "x.tsv")])
    assert rc == 2
    assert "hash" in capsys.readouterr().err


def test_cli_outputs_are_deterministic(toy_files):
    d = toy_files["dir"]
    outputs = []
    for tag in ("a", "b"):
        ent, rel = d / f"ent_{tag}.txt", d / f"rel_{tag}.txt"
        base = d / f"base_{tag}.tsv"
        assert run(["train-transe", "--questions",
                    f"{toy_files['train']},{toy_files['valid']}",
                    "--dim", "8", "--epochs", "4", "--seed", "9",
                    "--out-entities", str(ent), "--out-relations", str(rel)]) == 0
        assert run(["baseline", "--train", str(toy_files["train"]),
                    "--facts", str(toy_files["facts"]),
                    "--seed", "11", "--output", str(base)]) == 0
        outputs.append((ent.read_bytes(), rel.read_bytes(), base.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name, shape", [
    ("out_proj", (9, 5)),
    ("input_emb", (3, 3)),
    ("att_score", (4, 5)),
    ("out_proj", (7, 5)),
    ("extra_weights", (2, 2)),
], ids=["out_proj-extra-row", "input_emb-3-rows", "att_score-4-rows",
        "out_proj-row-short", "unknown-tensor"])
def test_generate_rejects_misshaped_checkpoint(tmp_path, capsys, name, shape):
    input_vocab = Vocabulary(["<unk>", "s0", "r0", "o0"])
    output_vocab = Vocabulary(["<unk>", "<bos>", "?", "w3", "w4", "w5", "w6", "w7"])
    params = QGenParams.init(n_in=4, n_out=8, d_enc=3, d_dec=3, hidden=5, seed=0)
    if name == INPUT_EMB_NAME:
        params.input_emb = np.zeros(shape)
    else:
        params.tensors[name] = np.zeros(shape)
    paths = {key: tmp_path / f"{key}.tsv" for key in ("in", "out", "facts")}
    checkpoint = tmp_path / "checkpoint.bin"
    input_vocab.dump(paths["in"])
    output_vocab.dump(paths["out"])
    save_checkpoint(checkpoint, params, "sp", input_vocab, output_vocab)
    paths["facts"].write_text("s0\tr0\to0\n", encoding="utf-8")
    corpus = tmp_path / "corpus.tsv"
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = run(["generate", "--facts", str(paths["facts"]),
              "--checkpoint", str(checkpoint), "--input-vocab", str(paths["in"]),
              "--output-vocab", str(paths["out"]), "--output", str(corpus)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {checkpoint}: " in err and f"tensor {name!r}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("width", ["0", "-3"])
@pytest.mark.parametrize("facts", ["", "s0\tr0\to0\n"], ids=["empty", "one-fact"])
def test_generate_bad_width_exits_two_without_output(tmp_path, capsys, width, facts):
    input_vocab = Vocabulary(["<unk>", "s0", "r0", "o0"])
    output_vocab = Vocabulary(["<unk>", "<bos>", "?", "w3"])
    params = QGenParams.init(n_in=4, n_out=4, d_enc=3, d_dec=3, hidden=5, seed=0)
    paths = {key: tmp_path / f"{key}.tsv" for key in ("in", "out", "facts")}
    checkpoint = tmp_path / "checkpoint.bin"
    input_vocab.dump(paths["in"])
    output_vocab.dump(paths["out"])
    save_checkpoint(checkpoint, params, "sp", input_vocab, output_vocab)
    paths["facts"].write_text(facts, encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    rc = run(["generate", "--facts", str(paths["facts"]),
              "--checkpoint", str(checkpoint), "--input-vocab", str(paths["in"]),
              "--output-vocab", str(paths["out"]), "--width", width,
              "--output", str(tmp_path / "corpus.tsv")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: beam width must be >= 1, got {width}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
