"""Translation-based knowledge-graph embeddings with margin-ranking SGD.

A triple (s, r, o) is scored by the Euclidean norm of e_s + e_r - e_o;
training pushes true triples below corrupted ones by a margin.  Entity
rows are projected into the unit ball at initialization and after every
epoch.  The per-epoch SGD loop is the tape-free numpy kernel
kernels.transe_epoch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .data import Fact, read_vectors, write_vectors
from .errors import ContractError, UnknownIdError

log = logging.getLogger(__name__)


@dataclass
class TransEConfig:
    dim: int = 200
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ContractError(f"dim must be >= 1, got {self.dim}")
        if not self.margin > 0:
            raise ContractError(f"margin must be positive, got {self.margin}")
        if not self.learning_rate >= 0:
            raise ContractError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")


def _project_to_unit_ball(rows: np.ndarray) -> None:
    norms = np.sqrt(np.sum(rows * rows, axis=1))
    mask = norms > 1.0
    if np.any(mask):
        rows[mask] /= norms[mask, None]


class TransEModel:
    """Entity and relationship embedding tables plus the energy function."""

    def __init__(self, entity_ids: Sequence[str], relationship_ids: Sequence[str],
                 entities: np.ndarray, relationships: np.ndarray):
        if entities.shape[0] != len(entity_ids) or relationships.shape[0] != len(relationship_ids):
            raise ContractError("embedding tables do not match id lists")
        if entities.shape[1] != relationships.shape[1]:
            raise ContractError("entity and relationship dimensionality differ")
        self.entity_ids = list(entity_ids)
        self.relationship_ids = list(relationship_ids)
        self.entities = np.ascontiguousarray(entities, dtype=np.float64)
        self.relationships = np.ascontiguousarray(relationships, dtype=np.float64)
        self._ent_index = {e: i for i, e in enumerate(self.entity_ids)}
        self._rel_index = {r: i for i, r in enumerate(self.relationship_ids)}

    @property
    def dim(self) -> int:
        return self.entities.shape[1]

    def has_entity(self, entity: str) -> bool:
        return entity in self._ent_index

    def has_relationship(self, relationship: str) -> bool:
        return relationship in self._rel_index

    def entity_index(self, entity: str) -> int:
        try:
            return self._ent_index[entity]
        except KeyError:
            raise UnknownIdError(f"unknown entity: {entity!r}") from None

    def relationship_index(self, relationship: str) -> int:
        try:
            return self._rel_index[relationship]
        except KeyError:
            raise UnknownIdError(f"unknown relationship: {relationship!r}") from None

    def entity_vector(self, entity: str) -> np.ndarray:
        return self.entities[self.entity_index(entity)]

    def relationship_vector(self, relationship: str) -> np.ndarray:
        return self.relationships[self.relationship_index(relationship)]

    def energy(self, fact: Fact) -> float:
        """Euclidean norm of e_s + e_r - e_o; low means plausible."""
        u = (self.entity_vector(fact.subject)
             + self.relationship_vector(fact.relationship)
             - self.entity_vector(fact.object))
        return float(np.sqrt(np.sum(u * u)))

    def nearest_neighbors(self, entity: str, k: int) -> list[tuple[str, float]]:
        """k nearest entities by Euclidean distance, self excluded.

        Ties break by id order.
        """
        if k < 1:
            raise ContractError(f"k must be >= 1, got {k}")
        i = self.entity_index(entity)
        diff = self.entities - self.entities[i]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        others = np.flatnonzero(np.arange(len(dist)) != i)
        if k < len(others):
            # keep every tie at the k-th distance, so ties still break by id
            cut = np.partition(dist[others], k - 1)[k - 1]
            others = others[dist[others] <= cut]
        ranked = sorted((float(dist[j]), self.entity_ids[j]) for j in others)
        return [(eid, d) for d, eid in ranked[:k]]

    def save(self, entity_path, relationship_path) -> None:
        write_vectors(entity_path, self.entity_ids, self.entities)
        write_vectors(relationship_path, self.relationship_ids, self.relationships)

    @classmethod
    def load(cls, entity_path, relationship_path) -> "TransEModel":
        ent_ids, ent = read_vectors(entity_path)
        rel_ids, rel = read_vectors(relationship_path)
        return cls(ent_ids, rel_ids, ent, rel)


def train_transe(triples: Iterable[Fact], config: TransEConfig) -> TransEModel:
    """Train embeddings from scratch; deterministic for a fixed seed."""
    triples = list(triples)
    if not triples:
        raise ContractError("train_transe: empty triple set")

    entity_ids = sorted({a for t in triples for a in (t.subject, t.object)})
    relationship_ids = sorted({t.relationship for t in triples})
    ent_index = {e: i for i, e in enumerate(entity_ids)}
    rel_index = {r: i for i, r in enumerate(relationship_ids)}

    s_idx = np.array([ent_index[t.subject] for t in triples], dtype=np.int64)
    r_idx = np.array([rel_index[t.relationship] for t in triples], dtype=np.int64)
    o_idx = np.array([ent_index[t.object] for t in triples], dtype=np.int64)

    rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(config.dim)
    entities = rng.uniform(-bound, bound, size=(len(entity_ids), config.dim))
    relationships = rng.uniform(-bound, bound, size=(len(relationship_ids), config.dim))
    _project_to_unit_ball(entities)

    n = len(triples)
    for epoch in range(config.epochs):
        order = rng.permutation(n).astype(np.int64)
        corrupt_tail = rng.integers(0, 2, size=n).astype(np.uint8)
        neg_ent = rng.integers(0, len(entity_ids), size=n).astype(np.int64)
        loss = kernels.transe_epoch(entities, relationships, s_idx, r_idx, o_idx,
                                    order, corrupt_tail, neg_ent,
                                    config.learning_rate, config.margin)
        _project_to_unit_ball(entities)
        log.debug("epoch %d: hinge loss %.4f", epoch + 1, loss)

    return TransEModel(entity_ids, relationship_ids, entities, relationships)
