import numpy as np
import pytest

from fact2question import transe
from fact2question.data import Fact
from fact2question.errors import ContractError, NumericError, ParseError, UnknownIdError
from fact2question.transe import (
    TransEConfig,
    TransEModel,
    train_transe,
)


def _model(entities, relationships):
    ent_ids = sorted(entities)
    rel_ids = sorted(relationships)
    return TransEModel(
        ent_ids, rel_ids,
        np.array([entities[e] for e in ent_ids], dtype=float),
        np.array([relationships[r] for r in rel_ids], dtype=float),
    )


def test_energy_exact_translation_is_zero():
    model = _model({"s": [1.0, 0.0], "o": [1.0, 1.0]}, {"r": [0.0, 1.0]})
    assert model.energy(Fact("s", "r", "o")) == 0.0


def test_energy_all_zero_vectors():
    model = _model({"s": [0.0, 0.0], "o": [0.0, 0.0]}, {"r": [0.0, 0.0]})
    assert model.energy(Fact("s", "r", "o")) == 0.0


def test_energy_unit_residual():
    model = _model({"s": [1.0, 0.0], "o": [1.0, 0.0]}, {"r": [0.0, 1.0]})
    assert model.energy(Fact("s", "r", "o")) == 1.0


def test_energy_unknown_id_names_it():
    model = _model({"s": [0.0], "o": [0.0]}, {"r": [0.0]})
    with pytest.raises(UnknownIdError, match="ghost"):
        model.energy(Fact("ghost", "r", "o"))


@pytest.mark.parametrize("seed", range(5))
def test_energy_translation_symmetry(seed):
    rng = np.random.default_rng(seed)
    s, r, o, c = rng.normal(size=(4, 8))
    base = _model({"s": s, "o": o}, {"r": r})
    shifted = _model({"s": s + c, "o": o + c}, {"r": r})
    fact = Fact("s", "r", "o")
    assert shifted.energy(fact) == pytest.approx(base.energy(fact), abs=1e-12)


def test_config_validation():
    with pytest.raises(ContractError):
        TransEConfig(dim=0)
    with pytest.raises(ContractError):
        TransEConfig(margin=0.0)
    TransEConfig(learning_rate=0.0)  # zero step size is allowed


@pytest.mark.parametrize("setting, message", [
    (dict(learning_rate=float("inf")), "learning rate must be finite, got inf"),
    (dict(margin=float("inf")), "margin must be finite, got inf"),
], ids=["learning-rate-inf", "margin-inf"])
def test_config_rejects_infinite_rate_and_margin(setting, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        TransEConfig(**setting)


@pytest.mark.parametrize("n_triples, seed, epoch", [(40, 0, 1), (8, 1, 1)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_overflowing_rate_names_the_epoch(n_triples, seed, epoch):
    # at dim 1 each gradient is +-1, so rel[r] moves by lr * 2 = inf once
    # a violating triple's true and corrupted residuals differ in sign; a
    # row that stays finite has a squared norm past the float range
    triples = [Fact(f"e{i}", "r", f"e{i + 1}") for i in range(n_triples)]
    config = TransEConfig(dim=1, epochs=3, learning_rate=1.7e308, seed=seed)
    with pytest.raises(NumericError, match=f"^TransE epoch {epoch} left an embedding "
                                           "whose squared norm is not finite"):
        train_transe(triples, config)


@pytest.mark.parametrize("dim, n_triples, learning_rate, seed, epoch", [
    (4, 40, 1e300, 0, 1),   # finite rows that the projection used to zero
    (1, 8, 1e154, 0, 2),
    (1, 8, 1e154, 2, 3),
])
@pytest.mark.filterwarnings("error")
def test_train_squared_norm_overflow_names_the_epoch_without_warnings(
        dim, n_triples, learning_rate, seed, epoch):
    triples = [Fact(f"e{i}", "r", f"e{i + 1}") for i in range(n_triples)]
    config = TransEConfig(dim=dim, epochs=5, learning_rate=learning_rate, seed=seed)
    with pytest.raises(NumericError, match=f"^TransE epoch {epoch} left an embedding "
                                           "whose squared norm is not finite"):
        train_transe(triples, config)


def test_train_projects_once_after_init_and_once_per_epoch(monkeypatch):
    # perfbench delimits TransE epochs by these calls
    calls = []
    project = transe._project_to_unit_ball

    def counting_project(rows):
        calls.append(rows.shape)
        project(rows)

    monkeypatch.setattr(transe, "_project_to_unit_ball", counting_project)
    triples = [Fact(f"e{i}", "r", f"e{i + 1}") for i in range(5)]
    train_transe(triples, TransEConfig(dim=3, epochs=4, seed=0))
    assert calls == [(6, 3)] * 5


def test_train_empty_triples_rejected():
    with pytest.raises(ContractError):
        train_transe([], TransEConfig(dim=4, epochs=1))


def test_train_zero_lr_keeps_initialization():
    triples = [Fact("a", "r", "b")]
    init = train_transe(triples, TransEConfig(dim=8, epochs=0, seed=3))
    after = train_transe(triples, TransEConfig(dim=8, epochs=1, learning_rate=0.0,
                                               seed=3))
    assert np.array_equal(init.entities, after.entities)
    assert np.array_equal(init.relationships, after.relationships)


def test_train_deterministic_for_fixed_seed():
    triples = [Fact(f"e{i}", f"r{i % 2}", f"e{i + 1}") for i in range(10)]
    config = TransEConfig(dim=8, epochs=5, seed=42)
    a = train_transe(triples, config)
    b = train_transe(triples, config)
    assert np.array_equal(a.entities, b.entities)
    assert np.array_equal(a.relationships, b.relationships)


def _cluster_triples(n_items=18):
    """Two type-clusters linked by type/instance-style triples."""
    triples = []
    for i in range(n_items):
        cluster = "type_a" if i < n_items // 2 else "type_b"
        triples.append(Fact(f"item_{i:02d}", "type/instance", cluster))
    return triples


def _cluster_of(entity):
    if entity in ("type_a", "type_b"):
        return entity
    return "type_a" if int(entity.split("_")[1]) < 9 else "type_b"


def test_entity_norms_stay_in_unit_ball():
    model = train_transe(_cluster_triples(), TransEConfig(dim=16, epochs=10, seed=0))
    norms = np.linalg.norm(model.entities, axis=1)
    assert np.max(norms) <= 1.0 + 1e-9


def test_toy_graph_separates_energies_and_clusters():
    triples = _cluster_triples()
    # dim and epoch budget fixed; the step size is tuned for the tiny graph
    model = train_transe(triples, TransEConfig(dim=16, epochs=200, seed=0,
                                               learning_rate=0.05))

    rng = np.random.default_rng(0)
    corrupted = []
    for fact in triples:
        other = model.entity_ids[int(rng.integers(len(model.entity_ids)))]
        corrupted.append(Fact(fact.subject, fact.relationship, other))
    true_mean = np.mean([model.energy(f) for f in triples])
    corrupt_mean = np.mean([model.energy(f) for f in corrupted])
    assert true_mean < corrupt_mean

    for entity in model.entity_ids:
        neighbor, _ = model.nearest_neighbors(entity, k=1)[0]
        assert _cluster_of(neighbor) == _cluster_of(entity)


def test_nearest_neighbors_ordering_and_ties():
    model = _model(
        {"origin": [0.0, 0.0], "near": [1.0, 0.0], "far": [2.0, 0.0],
         "tie_a": [0.0, 1.0], "tie_z": [0.0, -1.0]},
        {"r": [0.0, 0.0]},
    )
    ranked = model.nearest_neighbors("origin", k=4)
    assert [e for e, _ in ranked] == ["near", "tie_a", "tie_z", "far"]
    assert ranked[0][1] == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 20])
def test_nearest_neighbors_partial_sort_matches_full_sort(k):
    # ids out of row order, so a tie breaks by id and not by row; four
    # entities tie at distance 1 and two at distance 2 from "m"
    points = {"m": [0.0, 0.0], "q": [1.0, 0.0], "b": [0.0, 1.0],
              "z": [-1.0, 0.0], "c": [0.0, -1.0], "a": [2.0, 0.0],
              "y": [0.0, 2.0], "n": [3.0, 0.0]}
    ids = list(points)
    model = TransEModel(ids, ["r"], np.array([points[e] for e in ids]),
                        np.zeros((1, 2)))
    for entity in ids:
        i = ids.index(entity)
        dist = np.sqrt(np.sum((model.entities - model.entities[i]) ** 2, axis=1))
        full = sorted((float(dist[j]), ids[j]) for j in range(len(ids)) if j != i)
        assert model.nearest_neighbors(entity, k) == [(e, d) for d, e in full[:k]]
    assert [e for e, _ in model.nearest_neighbors("m", k)] == \
        ["b", "c", "q", "z", "a", "y", "n"][:k]


def test_nearest_neighbors_two_entity_model():
    model = _model({"a": [0.0], "b": [3.0]}, {"r": [0.0]})
    assert model.nearest_neighbors("a", k=1)[0][0] == "b"


def test_nearest_neighbors_validates_inputs():
    model = _model({"a": [0.0], "b": [3.0]}, {"r": [0.0]})
    with pytest.raises(UnknownIdError):
        model.nearest_neighbors("ghost", k=1)
    with pytest.raises(ContractError):
        model.nearest_neighbors("a", k=0)


def test_embedding_files_round_trip(tmp_path):
    model = train_transe(_cluster_triples(6), TransEConfig(dim=5, epochs=3, seed=1))
    ent_path, rel_path = tmp_path / "ent.txt", tmp_path / "rel.txt"
    model.save(ent_path, rel_path)
    header = ent_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == f"{len(model.entity_ids)} 5"
    reloaded = TransEModel.load(ent_path, rel_path)
    assert reloaded.entity_ids == model.entity_ids
    assert np.array_equal(reloaded.entities, model.entities)  # full round-trip floats
    assert np.array_equal(reloaded.relationships, model.relationships)


def test_embedding_file_header_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\nx 1.0 2.0 3.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        TransEModel.load(path, path)


@pytest.mark.parametrize("text, where", [
    ("100000000000 200\nx 1.0\n", "bad.txt:2"),  # the header count allocates nothing
    ("2 1\nx 1.0\nx 2.0\n", "bad.txt:3: duplicate id 'x'"),
    ("2 1\nx 1.0\ny nan\n", "bad.txt:3: non-finite value"),
    ("1 2\nx -Infinity 1e999\n", "bad.txt:2: non-finite value"),
    ("0 99999999999999999999\n", "bad.txt:1: dim 99999999999999999999 is too large"),
], ids=["huge-header", "duplicate-id", "nan", "inf", "unshapeable-dim"])
def test_embedding_file_bad_rows_name_the_line(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=where):
        TransEModel.load(path, path)
