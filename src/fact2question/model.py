"""The conditional question model: encoder, attention, GRU decoder, output.

A fact's three atoms are embedded with frozen translation-embedding rows
and projected to the decoder width.  Each decoding step computes three
sigmoid attention scalars over the atom encodings, a gated recurrent
update, and a softmax over the output vocabulary.  All trainable
parameters live in QGenParams.tensors; the input embedding table is
frozen and excluded from gradients.

Checkpoint container (binary, little-endian), documented here because
generate/evaluate runs reload it:

    magic   8 bytes  b"QGENCKPT"
    version u32      currently 1
    mode    u8 len + utf-8 ("sp" or "mp")
    input vocabulary sha256, 32 raw bytes
    output vocabulary sha256, 32 raw bytes
    n_tensors u32, then per tensor:
        name  u16 len + utf-8
        ndim  u8, extents u32 * ndim
        data  float64 * prod(extents), row-major

The frozen input table is stored under the name "input_emb"; every other
tensor is trainable.  Loading verifies the vocabulary hashes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    log_softmax,
    matvec,
    mul,
    one_minus,
    pick,
    scale,
    sigmoid,
    softmax,
    take_row,
    tanh_act,
)
from .data import BOS, QMARK, Fact, Vocabulary, replacing_writer
from .errors import ContractError, ParseError, UnknownIdError

CHECKPOINT_MAGIC = b"QGENCKPT"
CHECKPOINT_VERSION = 1
INPUT_EMB_NAME = "input_emb"

_TRAINABLE_SHAPES = {
    # name -> shape as a function of (d_enc, d_dec, hidden, n_in, n_out)
    "atom_proj": lambda d_enc, d_dec, h, k, v: (h, d_enc),
    "init_proj": lambda d_enc, d_dec, h, k, v: (h, 3 * h),
    "att_hidden": lambda d_enc, d_dec, h, k, v: (h, 4 * h),
    "att_score": lambda d_enc, d_dec, h, k, v: (3, h),
    "word_emb": lambda d_enc, d_dec, h, k, v: (v, d_dec),
    "reset_emb": lambda d_enc, d_dec, h, k, v: (h, d_dec),
    "reset_ctx": lambda d_enc, d_dec, h, k, v: (h, h),
    "reset_state": lambda d_enc, d_dec, h, k, v: (h, h),
    "update_emb": lambda d_enc, d_dec, h, k, v: (h, d_dec),
    "update_ctx": lambda d_enc, d_dec, h, k, v: (h, h),
    "update_state": lambda d_enc, d_dec, h, k, v: (h, h),
    "cand_emb": lambda d_enc, d_dec, h, k, v: (h, d_dec),
    "cand_ctx": lambda d_enc, d_dec, h, k, v: (h, h),
    "cand_state": lambda d_enc, d_dec, h, k, v: (h, h),
    "out_state": lambda d_enc, d_dec, h, k, v: (h, h),
    "out_emb": lambda d_enc, d_dec, h, k, v: (h, d_dec),
    "out_ctx": lambda d_enc, d_dec, h, k, v: (h, h),
    "out_proj": lambda d_enc, d_dec, h, k, v: (v, h),
}

INIT_SCALE = 0.08


@dataclass
class QGenParams:
    """All model weights plus the frozen input embedding table."""

    input_emb: np.ndarray           # (n_in, d_enc), frozen
    tensors: dict[str, Tensor]      # trainable, keyed by _TRAINABLE_SHAPES
    d_enc: int
    d_dec: int
    hidden: int

    @classmethod
    def init(cls, n_in: int, n_out: int, d_enc: int, d_dec: int, hidden: int,
             seed: int, input_emb: np.ndarray | None = None) -> "QGenParams":
        """Fresh parameters, uniform(-0.08, 0.08); frozen table defaults to
        zeros when no pretrained rows are supplied."""
        rng = np.random.default_rng(seed)
        if input_emb is None:
            input_emb = np.zeros((n_in, d_enc))
        if input_emb.shape != (n_in, d_enc):
            raise ContractError(
                f"input embedding table shape {input_emb.shape} != {(n_in, d_enc)}"
            )
        tensors = {
            name: Tensor(rng.uniform(-INIT_SCALE, INIT_SCALE,
                                     size=shape_fn(d_enc, d_dec, hidden, n_in, n_out)),
                         name=name)
            for name, shape_fn in _TRAINABLE_SHAPES.items()
        }
        return cls(input_emb=np.asarray(input_emb, dtype=np.float64),
                   tensors=tensors, d_enc=d_enc, d_dec=d_dec, hidden=hidden)

    def trainable(self) -> dict[str, Tensor]:
        return dict(self.tensors)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.value.copy() for name, t in self.tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, t in self.tensors.items():
            np.copyto(t.value, values[name])


@dataclass
class FactEncoding:
    """Projected encodings of the three atoms plus their concatenation."""

    enc_s: Tensor
    enc_r: Tensor
    enc_o: Tensor
    enc_all: Tensor


def atom_indices(fact: Fact, input_vocab: Vocabulary) -> tuple[int, int, int]:
    """Strict vocabulary lookup for the three atoms, naming the role on failure."""
    out = []
    for role, atom in zip(("subject", "relationship", "object"), fact.atoms()):
        try:
            out.append(input_vocab.index(atom))
        except UnknownIdError:
            raise UnknownIdError(f"unknown {role} id: {atom!r}") from None
    return tuple(out)


def encode_fact(fact: Fact, params: QGenParams,
                input_vocab: Vocabulary) -> FactEncoding:
    """Project each atom's frozen embedding row to the decoder width."""
    proj = params.tensors["atom_proj"]
    encs = []
    for idx in atom_indices(fact, input_vocab):
        frozen = Tensor(params.input_emb[idx])  # constant: no grad to the table
        encs.append(matvec(proj, frozen))
    return FactEncoding(encs[0], encs[1], encs[2], concat(encs))


def init_state(enc: FactEncoding, params: QGenParams) -> Tensor:
    """h_0 from a one-layer tanh network over the fact encoding."""
    return tanh_act(matvec(params.tensors["init_proj"], enc.enc_all))


def attend(enc: FactEncoding, h_prev: Tensor,
           params: QGenParams) -> tuple[Tensor, Tensor]:
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


def decoder_step(w_prev: int, h_prev: Tensor, c: Tensor,
                 params: QGenParams) -> Tensor:
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


def output_logits(h: Tensor, w_prev: int, c: Tensor, params: QGenParams) -> Tensor:
    t = params.tensors
    e_w = take_row(t["word_emb"], w_prev)
    pre = tanh_act(add(add(matvec(t["out_state"], h), matvec(t["out_emb"], e_w)),
                       matvec(t["out_ctx"], c)))
    return matvec(t["out_proj"], pre)


def output_distribution(h: Tensor, w_prev: int, c: Tensor,
                        params: QGenParams) -> Tensor:
    """Next-token probabilities; sums to 1, no component exactly 0 or 1."""
    return softmax(output_logits(h, w_prev, c, params))


def sequence_log_likelihood(fact: Fact, question_tokens, params: QGenParams,
                            input_vocab: Vocabulary,
                            output_vocab: Vocabulary) -> Tensor:
    """Sum of per-token log probabilities as a 0-d tensor (always <= 0).

    Out-of-vocabulary tokens map to <unk>.  The first decoder input is
    <bos>; the question must end with '?'.
    """
    tokens = list(question_tokens)
    if not tokens:
        raise ContractError("sequence_log_likelihood: empty question")
    if tokens[-1] != QMARK:
        raise ContractError("sequence_log_likelihood: question must end with '?'")
    targets = [output_vocab.index_or_unk(tok) for tok in tokens]

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


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: QGenParams, mode: str,
                    input_vocab: Vocabulary, output_vocab: Vocabulary) -> None:
    with replacing_writer(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        mode_b = mode.encode("utf-8")
        fh.write(struct.pack("<B", len(mode_b)))
        fh.write(mode_b)
        fh.write(bytes.fromhex(input_vocab.content_hash()))
        fh.write(bytes.fromhex(output_vocab.content_hash()))
        named = [(INPUT_EMB_NAME, params.input_emb)]
        named += sorted((name, t.value) for name, t in params.tensors.items())
        fh.write(struct.pack("<I", len(named)))
        for name, arr in named:
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, input_vocab: Vocabulary,
                    output_vocab: Vocabulary) -> tuple[QGenParams, str]:
    """Reload a checkpoint, verifying it was trained with these vocabularies."""
    with open(path, "rb") as fh:
        data = fh.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise ParseError(f"{path}: truncated checkpoint")
        chunk = data[off:off + n]
        off += n
        return chunk

    if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    (mode_len,) = struct.unpack("<B", take(1))
    mode = take(mode_len).decode("utf-8")
    in_hash = take(32).hex()
    out_hash = take(32).hex()
    if in_hash != input_vocab.content_hash():
        raise ContractError(f"{path}: input vocabulary hash mismatch")
    if out_hash != output_vocab.content_hash():
        raise ContractError(f"{path}: output vocabulary hash mismatch")

    (n_tensors,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        raw = take(8 * math.prod(shape))
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if off != len(data):
        raise ParseError(f"{path}: trailing bytes after checkpoint payload")

    if INPUT_EMB_NAME not in arrays:
        raise ParseError(f"{path}: missing {INPUT_EMB_NAME} tensor")
    input_emb = arrays.pop(INPUT_EMB_NAME)
    missing = set(_TRAINABLE_SHAPES) - set(arrays)
    if missing:
        raise ParseError(f"{path}: missing tensors: {sorted(missing)}")
    d_enc = input_emb.shape[1]
    hidden, d_dec = arrays["reset_emb"].shape
    params = QGenParams(
        input_emb=input_emb,
        tensors={name: Tensor(arr, name=name) for name, arr in arrays.items()},
        d_enc=d_enc, d_dec=d_dec, hidden=hidden,
    )
    return params, mode
