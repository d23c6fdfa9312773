"""Seeded synthetic fixtures for the benchmark.

Everything the program reads in a benchmark run is built here from one
seed: the same seed and sizes give byte-identical files.  Building is not
timed.  build() also returns the counts that the output checks expect
(unknown-atom facts, placeholder drops, unseen relationships), derived
from how the files were drawn, never from running the program.

Entity names use only the letters of NAME_LETTERS, and the questions that
deliberately omit their subject use only words free of those letters.
A span of such a question can then match the subject in spaces alone, so
its span score stays below the 0.5 threshold and the pair is dropped.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from fact2question.data import Vocabulary
from fact2question.model import QGenParams, save_checkpoint

NAME_LETTERS = "kvzxjquy"
# Training and validation questions favour one phrasing per relationship,
# so a briefly trained decoder settles on it and validation scores vary
# little from seed to seed.  Held-out references use every phrasing
# evenly, so baseline candidates mostly differ from their references and
# METEOR-lite's alignment search has exact and stem matches to sort out.
DOMINANT_SHARE = 0.9
# Subjects repeat with frequency ~ 1 / rank**ZIPF_EXPONENT.  A steeper law
# would let a handful of subjects, each with one relationship, decide the
# relationship mix of a seed, and with it the cost of every later stage.
ZIPF_EXPONENT = 0.7
_NAME_SYLLABLES = [c + v for c in "kvzxjq" for v in "uy"]
_BANK_SYLLABLES = [c + v for c in "bcdfghlmnprst" for v in "aeio"]

# relationship path -> paraphrases; {s} is the subject, {t} a topic word.
# Paraphrases of one relationship share words and Porter stems, so a
# template candidate and its reference align beyond the final '?'.
TEMPLATES = {
    "film/film/directed_by": [
        "who directed {s} ?",
        "who was the director of the {t} film {s} ?",
        "{s} was directed by which {t} director ?",
        "name the person directing {s} .",
    ],
    "people/person/place_of_birth": [
        "where was {s} born ?",
        "what is the birth place of {s} ?",
        "which {t} city saw the birth of {s} ?",
        "{s} was born in what place ?",
    ],
    "music/album/artist": [
        "who recorded the album {s} ?",
        "which artist released {s} ?",
        "the {t} album {s} was recorded by whom ?",
    ],
    "book/written_work/author": [
        "who wrote {s} ?",
        "who is the author of the {t} book {s} ?",
        "{s} was written by which writer ?",
        "name the writer who writes {s} .",
    ],
    "location/location/contained_by": [
        "where is {s} located ?",
        "what region contains {s} ?",
        "{s} is contained in which {t} location ?",
    ],
    "people/person/nationality": [
        "what is the nationality of {s} ?",
        "which country is {s} a citizen of ?",
        "{s} holds what {t} nationality ?",
    ],
    "film/actor/film": [
        "what film did {s} act in ?",
        "name a {t} movie that {s} acted in .",
        "which films feature the actor {s} ?",
    ],
    "organization/organization/founders": [
        "who founded {s} ?",
        "who are the founders of the {t} organization {s} ?",
        "{s} was founded by whom ?",
    ],
    "sports/sports_team/sport": [
        "what sport does {s} play ?",
        "which {t} sport is played by the team {s} ?",
        "{s} plays what sport ?",
    ],
    "music/artist/genre": [
        "what genre of music does {s} play ?",
        "which {t} genres is {s} known for ?",
        "{s} performs what kind of music ?",
    ],
    "book/book/genre": [
        "what genre is the book {s} ?",
        "{s} belongs to which {t} literary genre ?",
    ],
    "location/country/capital": [
        "what is the capital of {s} ?",
        "which city is the capital of the {t} country {s} ?",
    ],
}
# held out of the training questions, so the template baseline has never
# seen it: its held-out facts are the seeded unseen-relationship skips
UNSEEN_RELATIONSHIP = "tv/tv_program/country_of_origin"
UNSEEN_TEMPLATES = ["what country is the show {s} from ?"]
# no letter of NAME_LETTERS: these questions never contain their subject
NO_SUBJECT_TEMPLATES = [
    "who made it ?",
    "where did it begin ?",
    "what is the other one called ?",
    "when did the first one end ?",
]


@dataclass(frozen=True)
class Sizes:
    """How much of each input a workload builds."""

    entities: int            # KB entities
    clusters: int            # KB entity clusters
    kb_out_degree: int       # KB triples per entity
    kb_heldout: int          # held-out KB triples (link prediction)
    train_questions: int
    valid_questions: int
    heldout_questions: int   # baseline facts and evaluation references
    no_subject_every: int    # every n-th training question omits its subject
    topic_words: int         # size of the filler-word bank
    word_vector_dim: int
    word_vector_coverage: float  # share of question words with a vector
    decode_facts: int        # facts per decode pass (greedy)
    beam_facts: int          # facts per beam pass
    unknown_every: int       # every n-th decode fact has an unknown object
    dec_d_enc: int
    dec_word_dim: int
    dec_hidden: int
    dec_vocab: int           # output vocabulary size of the decode checkpoint
    embed_dim: int           # pretrained atom embeddings for qgen training


@dataclass(frozen=True)
class Fixture:
    """Paths of the built files plus the counts the checks expect."""

    root: str
    sizes: dict
    kb_train: str
    kb_heldout: str
    questions_train: str
    questions_valid: str
    questions_heldout: str
    heldout_facts: str
    references: str
    entity_embeddings: str
    relationship_embeddings: str
    word_vectors: str
    decode_facts: str
    beam_facts: str
    checkpoint: str
    input_vocab: str
    output_vocab: str
    expected: dict

    def path(self, name: str) -> Path:
        return Path(self.root) / name

    def dump(self) -> None:
        with open(self.path("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, root) -> "Fixture":
        with open(Path(root) / "manifest.json", encoding="utf-8") as fh:
            return cls(**json.load(fh))


def _name(rng, syllables, words) -> list[str]:
    return ["".join(rng.choice(syllables, size=int(rng.integers(2, 4))))
            for _ in range(words)]


def _unique_names(rng, syllables, count, max_words) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        name = "_".join(_name(rng, syllables, int(rng.integers(1, max_words + 1))))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _zipf_weights(n: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_table(path: Path, ids, table: np.ndarray) -> None:
    _write_lines(path, [f"{len(ids)} {table.shape[1]}"] + [
        i + " " + " ".join(f"{v:.6f}" for v in row) for i, row in zip(ids, table)
    ])


def _paraphrase(rng, options: list[str], dominant: bool) -> str:
    """With dominant, the first paraphrase with probability DOMINANT_SHARE
    and another one otherwise; without, any paraphrase uniformly."""
    if not dominant:
        return options[int(rng.integers(len(options)))]
    if len(options) == 1 or rng.random() < DOMINANT_SHARE:
        return options[0]
    return options[1 + int(rng.integers(len(options) - 1))]


def _question(rng, template: str, subject: str, bank: list[str]) -> str:
    return template.format(s=subject.replace("_", " "),
                           t=bank[int(rng.integers(len(bank)))])


def build(root, seed: int, sizes: Sizes) -> Fixture:
    """Write every input file under root and describe them."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    entities = _unique_names(rng, _NAME_SYLLABLES, sizes.entities, 3)
    bank = _unique_names(rng, _BANK_SYLLABLES, sizes.topic_words, 1)
    relationships = sorted(TEMPLATES)

    # clustered KB: every triple leads from a cluster c to cluster c + 1
    # (cyclically) by the relationship of c, one offset per relationship,
    # so a translation model can learn where each object cluster lies
    cluster = np.arange(sizes.entities) % sizes.clusters
    members = [np.flatnonzero(cluster == c) for c in range(sizes.clusters)]
    kb: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    for e in range(sizes.entities):
        c = int(cluster[e])
        k = c % len(relationships)
        target = members[(c + 1) % sizes.clusters]
        for o in rng.choice(target, size=sizes.kb_out_degree, replace=False):
            triple = (entities[e], relationships[k], entities[int(o)])
            if triple not in seen:
                seen.add(triple)
                kb.append(triple)
    order = rng.permutation(len(kb))
    heldout, kb_train = [], []
    train_atoms: dict[str, int] = {}
    for i in order:
        for atom in kb[i]:
            train_atoms[atom] = train_atoms.get(atom, 0) + 1
    for i in order:
        s, r, o = kb[i]
        # hold out a triple only while every atom stays in training
        if (len(heldout) < sizes.kb_heldout
                and min(train_atoms[s], train_atoms[r], train_atoms[o]) > 1):
            heldout.append(kb[i])
            for atom in kb[i]:
                train_atoms[atom] -= 1
        else:
            kb_train.append(kb[i])
    if len(heldout) != sizes.kb_heldout:
        raise ValueError("KB too small for the requested held-out triples")
    _write_lines(root / "kb_train.tsv", ["\t".join(t) for t in kb_train])
    _write_lines(root / "kb_heldout.tsv", ["\t".join(t) for t in heldout])

    # SimpleQuestions-like corpus; subjects repeat with Zipf frequency
    subject_p = _zipf_weights(sizes.entities)
    by_subject: dict[str, list[tuple[str, str, str]]] = {}
    for t in kb:
        by_subject.setdefault(t[0], []).append(t)

    def draw_fact():
        while True:
            s = entities[int(rng.choice(sizes.entities, p=subject_p))]
            if s in by_subject:
                facts = by_subject[s]
                return facts[int(rng.integers(len(facts)))]

    def split(facts, no_subject_every=0, dominant=True):
        lines, dropped, relationships_seen = [], 0, set()
        for i, (s, r, o) in enumerate(facts):
            if no_subject_every and i % no_subject_every == no_subject_every - 1:
                template = NO_SUBJECT_TEMPLATES[int(rng.integers(
                    len(NO_SUBJECT_TEMPLATES)))]
                dropped += 1
            else:
                template = _paraphrase(rng, TEMPLATES[r], dominant)
                relationships_seen.add(r)
            lines.append(f"{s}\t{r}\t{o}\t{_question(rng, template, s, bank)}")
        return lines, dropped, relationships_seen

    train_facts = [draw_fact() for _ in range(sizes.train_questions)]
    valid_facts = [draw_fact() for _ in range(sizes.valid_questions)]
    train_lines, train_dropped, templated = split(train_facts,
                                                  sizes.no_subject_every)
    valid_lines, _, _ = split(valid_facts)
    # held-out facts are distinct and unseen in training, one question
    # each, so the baseline's facts and the references align line by line
    used = set(train_facts) | set(valid_facts)
    unused = [t for t in kb if t not in used]
    picks = rng.choice(len(unused), size=sizes.heldout_questions, replace=False)
    heldout_lines, _, _ = split([unused[int(k)] for k in picks], dominant=False)
    # every 16th held-out fact moves to the unseen relationship
    for i in range(15, len(heldout_lines), 16):
        s, _, o, _ = heldout_lines[i].split("\t")
        heldout_lines[i] = (f"{s}\t{UNSEEN_RELATIONSHIP}\t{o}\t"
                            + _question(rng, UNSEEN_TEMPLATES[0], s, bank))
    # the baseline knows a relationship only through a templated question
    unseen = sum(1 for line in heldout_lines
                 if line.split("\t")[1] not in templated)
    _write_lines(root / "questions_train.tsv", train_lines)
    _write_lines(root / "questions_valid.tsv", valid_lines)
    _write_lines(root / "questions_heldout.tsv", heldout_lines)
    _write_lines(root / "heldout_facts.tsv",
                 [line.rsplit("\t", 1)[0] for line in heldout_lines])
    # the baseline answers the held-out facts of seen relationships, in order
    _write_lines(root / "references.txt",
                 [line.rsplit("\t", 1)[1] for line in heldout_lines
                  if line.split("\t")[1] in templated])

    # pretrained atom embeddings for decoder training
    atoms_e = sorted(entities)
    atoms_r = sorted(relationships + [UNSEEN_RELATIONSHIP])
    scale = 1.0 / np.sqrt(sizes.embed_dim)
    _write_table(root / "entity_embeddings.txt", atoms_e,
                 rng.normal(scale=scale, size=(len(atoms_e), sizes.embed_dim)))
    _write_table(root / "relationship_embeddings.txt", atoms_r,
                 rng.normal(scale=scale, size=(len(atoms_r), sizes.embed_dim)))

    # word vectors cover a fixed share of the question words
    words = sorted({w for line in train_lines + valid_lines + heldout_lines
                    for w in line.rsplit("\t", 1)[1].lower().split()})
    covered = [w for w in words if rng.random() < sizes.word_vector_coverage]
    _write_table(root / "word_vectors.txt", covered,
                 rng.normal(size=(len(covered), sizes.word_vector_dim)))

    # decode checkpoint: seeded random init, so every beam runs to the cap
    input_vocab = Vocabulary(["<unk>"] + atoms_e + atoms_r)
    reserved = ["<unk>", "<bos>", "?", "<placeholder>"]
    output_vocab = Vocabulary(reserved + [
        f"w{i:05d}" for i in range(sizes.dec_vocab - len(reserved))])
    params = QGenParams.init(
        n_in=len(input_vocab), n_out=len(output_vocab), d_enc=sizes.dec_d_enc,
        d_dec=sizes.dec_word_dim, hidden=sizes.dec_hidden, seed=seed,
        input_emb=rng.normal(size=(len(input_vocab), sizes.dec_d_enc)))
    input_vocab.dump(root / "input_vocab.tsv")
    output_vocab.dump(root / "output_vocab.tsv")
    save_checkpoint(root / "checkpoint.bin", params, "sp", input_vocab, output_vocab)

    def decode_lines(count):
        lines, unknown = [], 0
        for i in range(count):
            s = entities[int(rng.choice(sizes.entities, p=subject_p))]
            r = relationships[int(rng.integers(len(relationships)))]
            o = entities[int(rng.integers(sizes.entities))]
            if i % sizes.unknown_every == sizes.unknown_every - 1:
                o = f"unknown_{i}"
                unknown += 1
            lines.append(f"{s}\t{r}\t{o}")
        return lines, unknown

    decode, decode_unknown = decode_lines(sizes.decode_facts)
    beam, beam_unknown = decode_lines(sizes.beam_facts)
    _write_lines(root / "decode_facts.tsv", decode)
    _write_lines(root / "beam_facts.tsv", beam)

    expected = {
        "decode_unknown": decode_unknown,
        "beam_unknown": beam_unknown,
        "train_dropped": train_dropped,
        "heldout_unseen": unseen,
    }
    fixture = Fixture(
        root=str(root), sizes=asdict(sizes),
        kb_train=str(root / "kb_train.tsv"),
        kb_heldout=str(root / "kb_heldout.tsv"),
        questions_train=str(root / "questions_train.tsv"),
        questions_valid=str(root / "questions_valid.tsv"),
        questions_heldout=str(root / "questions_heldout.tsv"),
        heldout_facts=str(root / "heldout_facts.tsv"),
        references=str(root / "references.txt"),
        entity_embeddings=str(root / "entity_embeddings.txt"),
        relationship_embeddings=str(root / "relationship_embeddings.txt"),
        word_vectors=str(root / "word_vectors.txt"),
        decode_facts=str(root / "decode_facts.tsv"),
        beam_facts=str(root / "beam_facts.tsv"),
        checkpoint=str(root / "checkpoint.bin"),
        input_vocab=str(root / "input_vocab.tsv"),
        output_vocab=str(root / "output_vocab.tsv"),
        expected=expected,
    )
    return fixture


# shared by every workload: the inputs behind the quality metrics
_COMMON = Sizes(
    entities=400, clusters=40, kb_out_degree=4, kb_heldout=400,
    train_questions=600, valid_questions=40, heldout_questions=160,
    no_subject_every=10, topic_words=600, word_vector_dim=50,
    word_vector_coverage=0.9, decode_facts=24, beam_facts=3, unknown_every=3,
    dec_d_enc=64, dec_word_dim=64, dec_hidden=128, dec_vocab=1500, embed_dim=50,
)
WORKLOAD_SIZES = {
    # decoding at paper dims: d_enc 200, word dim 200, H 600, V 7000
    "generate": replace(_COMMON, dec_d_enc=200, dec_word_dim=200,
                        dec_hidden=600, dec_vocab=7000, decode_facts=6),
    "train": _COMMON,
    # three times the held-out facts and reference questions
    "score": replace(_COMMON, heldout_questions=480),
}


if __name__ == "__main__":
    # python3 fixtures.py ROOT SEED WORKLOAD  (src/ on PYTHONPATH)
    out_root, seed_arg, workload_arg = sys.argv[1:4]
    build(out_root, int(seed_arg), WORKLOAD_SIZES[workload_arg]).dump()
