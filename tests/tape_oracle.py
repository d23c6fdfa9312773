"""The gradient oracle: the decoder written with primitive tape ops.

Every op takes and returns float64 arrays and records one node through
autodiff.custom_op, with a backward derived independently of the
hand-written one in model.sequence_log_likelihood.
tape_sequence_log_likelihood chains them into the same loss, about 48
nodes per token plus 6 for the fact encoding; the tests check the
program's loss, gradients and decoder step against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from fact2question.autodiff import (
    ONE_BELOW,
    TINY,
    custom_op,
    log_softmax_values,
    sigmoid_values,
    tanh_values,
)
from fact2question.data import BOS
from fact2question.errors import ContractError, DimensionError
from fact2question.model import atom_indices


def softmax_values(x):
    """Stable softmax on a raw 1-d array; outputs stay inside (0, 1)."""
    e = np.exp(x - np.max(x))
    out = e / np.sum(e)
    return np.minimum(np.maximum(out, TINY), ONE_BELOW)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matvec(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w (m, n) @ x (n,) -> (m,)."""
    if w.ndim != 2 or x.ndim != 1 or w.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec: incompatible shapes {w.shape} and {x.shape}")
    return custom_op(w @ x, (w, x), lambda g: (np.outer(g, x), w.T @ g))


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum; shapes must match exactly (no broadcasting)."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    return custom_op(a + b, (a, b), lambda g: (g, g))


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise (Hadamard) product; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    return custom_op(a * b, (a, b), lambda g: (g * b, g * a))


def scale(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scalar node s times tensor v."""
    if s.ndim != 0:
        raise DimensionError(f"scale: scalar expected, got shape {s.shape}")
    return custom_op(s * v, (s, v),
                     lambda g: (np.asarray(np.sum(g * v)), s * g))


def one_minus(x: np.ndarray) -> np.ndarray:
    """1 - x elementwise (the update-gate complement)."""
    return custom_op(1.0 - x, (x,), lambda g: (-g,))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic; outputs strictly inside (0, 1), never NaN."""
    out = sigmoid_values(x)
    return custom_op(out, (x,), lambda g: (g * out * (1.0 - out),))


def tanh_act(x: np.ndarray) -> np.ndarray:
    """Elementwise tanh; outputs strictly inside (-1, 1)."""
    out = tanh_values(x)
    return custom_op(out, (x,), lambda g: (g * (1.0 - out * out),))


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over a 1-d tensor, computed with max-subtraction."""
    if x.ndim != 1 or x.shape[0] < 1:
        raise ContractError(f"softmax: non-empty vector expected, got shape {x.shape}")
    p = softmax_values(x)
    return custom_op(p, (x,), lambda g: (p * (g - np.dot(g, p)),))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over a 1-d tensor; the stable path for log-likelihoods."""
    if x.ndim != 1 or x.shape[0] < 1:
        raise ContractError(f"log_softmax: non-empty vector expected, got shape {x.shape}")
    out = log_softmax_values(x)
    return custom_op(out, (x,), lambda g: (g - np.exp(out) * np.sum(g),))


def concat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate 1-d tensors."""
    parts = tuple(parts)
    if not parts or any(p.ndim != 1 for p in parts):
        raise DimensionError("concat: one or more 1-d tensors expected")
    offsets = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return custom_op(np.concatenate(parts), parts, backward)


def pick(x: np.ndarray, i: int) -> np.ndarray:
    """Select one element of a 1-d tensor as a 0-d scalar node."""
    if x.ndim != 1:
        raise DimensionError(f"pick: vector expected, got shape {x.shape}")
    if not 0 <= i < x.shape[0]:
        raise DimensionError(f"pick: index {i} out of range for shape {x.shape}")

    def backward(g):
        gx = np.zeros_like(x)
        gx[i] = g
        return (gx,)

    return custom_op(x[i], (x,), backward)


def take_row(m: np.ndarray, i: int) -> np.ndarray:
    """Select row i of a 2-d tensor (embedding lookup); grads scatter back."""
    if m.ndim != 2:
        raise DimensionError(f"take_row: matrix expected, got shape {m.shape}")
    if not 0 <= i < m.shape[0]:
        raise DimensionError(f"take_row: row {i} out of range for shape {m.shape}")

    def backward(g):
        gm = np.zeros_like(m)
        gm[i] = g
        return (gm,)

    return custom_op(m[i], (m,), backward)


# ---------------------------------------------------------------------------
# the decoder
# ---------------------------------------------------------------------------


@dataclass
class FactEncoding:
    """Projected encodings of the three atoms plus their concatenation."""

    enc_s: np.ndarray
    enc_r: np.ndarray
    enc_o: np.ndarray
    enc_all: np.ndarray


def encode_fact(fact, params, input_vocab) -> FactEncoding:
    """Project each atom's frozen embedding row to the decoder width."""
    proj = params.tensors["atom_proj"]
    encs = []
    for idx in atom_indices(fact, input_vocab):
        frozen = params.input_emb[idx]  # never watched: no grad to the table
        encs.append(matvec(proj, frozen))
    return FactEncoding(encs[0], encs[1], encs[2], concat(encs))


def init_state(enc: FactEncoding, params) -> np.ndarray:
    """h_0 from a one-layer tanh network over the fact encoding."""
    return tanh_act(matvec(params.tensors["init_proj"], enc.enc_all))


def attend(enc: FactEncoding, h_prev: np.ndarray,
           params) -> tuple[np.ndarray, np.ndarray]:
    """Context vector and the three attention scalars.

    The scalars come from a one-layer tanh network over [encoding; state]
    followed by a sigmoid, so each lies in (0, 1) independently; they are
    deliberately not normalized to sum to 1.
    """
    z = concat((enc.enc_all, h_prev))
    hidden = tanh_act(matvec(params.tensors["att_hidden"], z))
    alpha = sigmoid(matvec(params.tensors["att_score"], hidden))
    c = add(
        add(scale(pick(alpha, 0), enc.enc_s), scale(pick(alpha, 1), enc.enc_r)),
        scale(pick(alpha, 2), enc.enc_o),
    )
    return c, alpha


def decoder_step(w_prev: int, h_prev: np.ndarray, c: np.ndarray,
                 params) -> np.ndarray:
    """One gated recurrent update.

    The update gate multiplies the old state and its complement the
    candidate: h = g_u * h_prev + (1 - g_u) * cand.
    """
    t = params.tensors
    e_w = take_row(t["word_emb"], w_prev)
    g_r = sigmoid(add(add(matvec(t["reset_emb"], e_w), matvec(t["reset_ctx"], c)),
                      matvec(t["reset_state"], h_prev)))
    g_u = sigmoid(add(add(matvec(t["update_emb"], e_w), matvec(t["update_ctx"], c)),
                      matvec(t["update_state"], h_prev)))
    cand = tanh_act(add(add(matvec(t["cand_emb"], e_w), matvec(t["cand_ctx"], c)),
                        matvec(t["cand_state"], mul(g_r, h_prev))))
    return add(mul(g_u, h_prev), mul(one_minus(g_u), cand))


def output_logits(h: np.ndarray, w_prev: int, c: np.ndarray,
                  params) -> np.ndarray:
    t = params.tensors
    e_w = take_row(t["word_emb"], w_prev)
    pre = tanh_act(add(add(matvec(t["out_state"], h), matvec(t["out_emb"], e_w)),
                       matvec(t["out_ctx"], c)))
    return matvec(t["out_proj"], pre)


def output_distribution(h: np.ndarray, w_prev: int, c: np.ndarray,
                        params) -> np.ndarray:
    """Next-token probabilities; sums to 1, no component exactly 0 or 1."""
    return softmax(output_logits(h, w_prev, c, params))


def tape_sequence_log_likelihood(fact, question_tokens, params, input_vocab,
                                 output_vocab):
    """model.sequence_log_likelihood written with primitive tape ops."""
    targets = [output_vocab.index_or_unk(tok) for tok in question_tokens]

    enc = encode_fact(fact, params, input_vocab)
    h = init_state(enc, params)
    w_prev = output_vocab.index(BOS)
    total = None
    for target in targets:
        c, _ = attend(enc, h, params)
        h = decoder_step(w_prev, h, c, params)
        logp = pick(log_softmax(output_logits(h, w_prev, c, params)), target)
        total = logp if total is None else add(total, logp)
        w_prev = target
    return total
