"""The conditional question model: encoder, attention, GRU decoder, output.

A fact's three atoms are embedded with frozen translation-embedding rows
and projected to the decoder width.  Each decoding step computes three
sigmoid attention scalars over the atom encodings, a gated recurrent
update, and a softmax over the output vocabulary.  All trainable
parameters live in QGenParams.tensors as float64 arrays; the input
embedding table is frozen and excluded from gradients.  The gate tensors
are row-block views into QGenParams.stacks, which decode_step reads; the
stacks live in memory only, and the checkpoint format is unchanged.

encode is the one fact encoder: generation and training both call it.
The training loss, sequence_log_likelihood, records a whole example as
one tape node: the forward runs encode and then kernels.decode_step, the
same step that generation uses, and the backward is hand-written
backpropagation through time (the output layer over all tokens at once,
the recurrence one token at a time, then the encoder) that reads the
gate weights through the same stacks as decode_step.  The tests check
that node against a gradient oracle built from primitive tape ops.

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
tensor is trainable.  Every tensor is a finite matrix, and the names and
shapes are exactly param_shapes' for n_in, d_enc read from input_emb,
n_out, d_dec from word_emb and hidden from atom_proj.  Loading verifies
the vocabulary hashes and that n_in and n_out are the vocabulary sizes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .autodiff import custom_op, log_softmax_values, tanh_values
from .data import BOS, QMARK, Fact, Vocabulary, replacing_writer
from .errors import (ContractError, DimensionError, NumericError, ParseError,
                     UnknownIdError)

CHECKPOINT_MAGIC = b"QGENCKPT"
CHECKPOINT_VERSION = 1
INPUT_EMB_NAME = "input_emb"

INIT_SCALE = 0.08


def param_shapes(n_in: int, n_out: int, d_enc: int, d_dec: int,
                 hidden: int) -> dict[str, tuple[int, int]]:
    """Every decoder tensor's shape: the frozen input table, then the
    trainable tensors in the order init draws them (one GRU gate a line)."""
    h = hidden
    return {
        INPUT_EMB_NAME: (n_in, d_enc),
        "atom_proj": (h, d_enc), "init_proj": (h, 3 * h),
        "att_hidden": (h, 4 * h), "att_score": (3, h),
        "word_emb": (n_out, d_dec),
        "reset_emb": (h, d_dec), "reset_ctx": (h, h), "reset_state": (h, h),
        "update_emb": (h, d_dec), "update_ctx": (h, h), "update_state": (h, h),
        "cand_emb": (h, d_dec), "cand_ctx": (h, h), "cand_state": (h, h),
        "out_state": (h, h), "out_emb": (h, d_dec), "out_ctx": (h, h),
        "out_proj": (n_out, h),
    }


@dataclass
class QGenParams:
    """All model weights plus the frozen input embedding table.  Construction
    stores every tensor as a float64 array (a float64 array is not copied),
    and checks every name and shape against param_shapes (DimensionError)
    for the dims of input_emb, word_emb and atom_proj, and that every tensor
    is finite (NumericError).  Gate tensors that are not yet the row blocks
    of one stack (kernels.GATE_STACKS) are copied into a new one."""

    input_emb: np.ndarray           # (n_in, d_enc), frozen
    tensors: dict[str, np.ndarray]  # trainable, keyed by param_shapes
    stacks: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.input_emb = np.asarray(self.input_emb, dtype=np.float64)
        self.tensors = {name: np.asarray(t, dtype=np.float64)
                        for name, t in self.tensors.items()}
        shapes = {INPUT_EMB_NAME: self.input_emb.shape}
        shapes.update((name, t.shape) for name, t in self.tensors.items())
        for name in sorted(shapes.keys() ^ param_shapes(0, 0, 0, 0, 0).keys()):
            raise DimensionError(
                f"{'unknown' if name in shapes else 'missing'} tensor {name!r}")
        (n_in, d_enc), (n_out, d_dec), (hidden, _) = (
            shapes[name] for name in (INPUT_EMB_NAME, "word_emb", "atom_proj"))
        for name, shape in param_shapes(n_in, n_out, d_enc, d_dec, hidden).items():
            if shapes[name] != shape:
                raise DimensionError(f"tensor {name!r} has shape {shapes[name]}, "
                                     f"expected {shape}")
        for name, t in [(INPUT_EMB_NAME, self.input_emb), *self.tensors.items()]:
            if not np.isfinite(t).all():
                raise NumericError(f"non-finite values in tensor {name!r}")
        self.stacks = {stack: _stacked(self.tensors, names)
                       for stack, names in kernels.GATE_STACKS.items()}

    def __deepcopy__(self, memo):  # copies each stack once, not view by view
        blocks = {}
        for stack, names in kernels.GATE_STACKS.items():
            blocks.update(_blocks(self.stacks[stack].copy(), names))
        return QGenParams(self.input_emb.copy(), {
            name: blocks[name] if name in blocks else t.copy()
            for name, t in self.tensors.items()})

    @classmethod
    def init(cls, n_in: int, n_out: int, d_enc: int, d_dec: int, hidden: int,
             seed: int, input_emb: np.ndarray | None = None) -> "QGenParams":
        """Fresh parameters, uniform(-0.08, 0.08); frozen table defaults to
        zeros when no pretrained rows are supplied.  Every dimension must be
        >= 1 (ContractError), and a supplied table must be (n_in, d_enc)
        (DimensionError)."""
        dims = dict(n_in=n_in, n_out=n_out, d_enc=d_enc, d_dec=d_dec, hidden=hidden)
        for dim_name, value in dims.items():
            if value < 1:
                raise ContractError(f"{dim_name} must be >= 1, got {value}")
        rng = np.random.default_rng(seed)
        shapes = param_shapes(n_in, n_out, d_enc, d_dec, hidden)
        if input_emb is None:
            input_emb = np.zeros(shapes[INPUT_EMB_NAME])
        elif np.shape(input_emb) != shapes[INPUT_EMB_NAME]:
            raise DimensionError(f"tensor {INPUT_EMB_NAME!r} has shape "
                                 f"{np.shape(input_emb)}, expected "
                                 f"{shapes[INPUT_EMB_NAME]}")
        tensors = {
            name: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
            for name, shape in shapes.items() if name != INPUT_EMB_NAME
        }
        return cls(input_emb=input_emb, tensors=tensors)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: t.copy() for name, t in self.tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, t in self.tensors.items():
            np.copyto(t, values[name])

    def step_weights(self) -> tuple[np.ndarray, ...]:
        return tuple({**self.tensors, **self.stacks}[n] for n in kernels.STEP_WEIGHTS)


def _stacked(tensors: dict[str, np.ndarray], names) -> np.ndarray:
    """The stack of tensors[names]: the array whose row blocks, in order,
    they already are, else their copy, whose blocks then replace them."""
    base = tensors[names[0]].base
    if (isinstance(base, np.ndarray) and base.ndim == 2
            and len(base) % len(names) == 0 and all(
                tensors[name].__array_interface__ == block.__array_interface__
                for name, block in _blocks(base, names).items())):
        return base
    stack = np.concatenate([tensors[name] for name in names])
    tensors.update(_blocks(stack, names))
    return stack


def _blocks(stack: np.ndarray, names) -> dict[str, np.ndarray]:
    rows = len(stack) // len(names)
    return {name: stack[i * rows:(i + 1) * rows] for i, name in enumerate(names)}


def atom_indices(fact: Fact, input_vocab: Vocabulary) -> tuple[int, int, int]:
    """Strict vocabulary lookup for the three atoms, naming the role on failure."""
    out = []
    for role, atom in zip(("subject", "relationship", "object"), fact.atoms()):
        try:
            out.append(input_vocab.index(atom))
        except UnknownIdError:
            raise UnknownIdError(f"unknown {role} id: {atom!r}") from None
    return tuple(out)


def encode(fact: Fact, params: QGenParams, input_vocab: Vocabulary):
    """((enc_s, enc_r, enc_o, enc_all), h_0): each atom's frozen embedding
    row projected to the decoder width, their concatenation, and the
    initial state tanh(init_proj @ enc_all).  An encoding or h_0's
    pre-activation that overflows raises NumericError naming the fact."""
    t = params.tensors
    with np.errstate(over="ignore", invalid="ignore"):
        encs = [t["atom_proj"] @ params.input_emb[idx]
                for idx in atom_indices(fact, input_vocab)]
        enc_all = np.concatenate(encs)
        pre = t["init_proj"] @ enc_all
    if not (np.isfinite(enc_all).all() and np.isfinite(pre).all()):
        raise NumericError(f"non-finite values in the fact encoding of {fact.atoms()!r}")
    return (*encs, enc_all), tanh_values(pre)


def sequence_log_likelihood(fact: Fact, question_tokens, params: QGenParams,
                            input_vocab: Vocabulary,
                            output_vocab: Vocabulary) -> np.ndarray:
    """Sum of per-token log probabilities as a 0-d array (always <= 0).

    Out-of-vocabulary tokens map to <unk>.  The first decoder input is
    <bos>; the question must end with '?'.  On an open tape the whole
    example is one node whose parents are the params.tensors, in order.
    """
    tokens = list(question_tokens)
    if not tokens:
        raise ContractError("sequence_log_likelihood: empty question")
    if tokens[-1] != QMARK:
        raise ContractError("sequence_log_likelihood: question must end with '?'")
    targets = [output_vocab.index_or_unk(tok) for tok in tokens]
    inputs = [output_vocab.index(BOS)] + targets[:-1]
    t = params.tensors
    word_emb = t["word_emb"]
    if max(max(targets), inputs[0]) >= word_emb.shape[0]:
        raise DimensionError(
            f"sequence_log_likelihood: output vocabulary of {len(output_vocab)} "
            f"tokens exceeds the {word_emb.shape[0]} rows of word_emb")

    encodings, h0 = encode(fact, params, input_vocab)
    atom_rows = params.input_emb[list(atom_indices(fact, input_vocab))]
    step_weights = params.step_weights()
    h = h0
    steps = []
    log_probs = []
    total = None
    for w_prev, target in zip(inputs, targets):
        step = kernels.decode_step(word_emb[w_prev], h, *encodings,
                                   *step_weights)
        logp = log_softmax_values(step.logits)
        total = logp[target] if total is None else total + logp[target]
        steps.append(step)
        log_probs.append(logp)
        h = step.h

    def backward(g):
        return _backprop_through_time(g, steps, log_probs, inputs, targets, h0,
                                      encodings, atom_rows, word_emb, t,
                                      params.stacks)

    return custom_op(total, tuple(t.values()), backward)


def _backprop_through_time(g, steps, log_probs, inputs, targets, h0,
                           encodings, atom_rows, word_emb, w, stacks):
    """Gradients of g * (summed target log-probs) for sequence_log_likelihood's
    node parents, the named tensors w, in w's order.
    atom_rows are the atoms' frozen embedding rows.  Rows of the (T, .) arrays
    are tokens; a gradient with respect to a weight is the G^T X product
    of the gradients at its output and its inputs over all T rows.  Like
    decode_step, it reads the gate weights only through the stacks:
    d_gates holds each token's reset, update, candidate and output
    pre-activation gradients side by side, in the stacks' row-block order."""
    n = len(targets)
    hidden = h0.shape[0]
    h_prev = np.stack([h0] + [s.h for s in steps[:-1]])
    h_new = np.stack([s.h for s in steps])
    emb = word_emb[inputs]
    att, alpha, ctx, g_r, g_u, cand, pre = (
        np.stack(col) for col in zip(*(
            (s.att, s.alpha, s.c, s.g_r, s.g_u, s.cand, s.pre) for s in steps)))

    # output layer and log-softmax, all tokens at once
    d_logits = -np.exp(np.stack(log_probs))
    d_logits[np.arange(n), targets] += 1.0
    d_logits *= g
    d_gates = np.empty((n, 4 * hidden))
    d_r, d_u, d_n, d_pre = np.hsplit(d_gates, 4)
    d_pre[:] = (d_logits @ w["out_proj"]) * (1.0 - pre * pre)
    d_h_out = d_pre @ w["out_state"]

    # the recurrence, newest token first, on H-vectors
    enc3 = np.stack(encodings[:3])
    att_state = w["att_hidden"][:, 3 * hidden:]
    d_c = np.empty_like(ctx)
    d_att = np.empty_like(att)
    d_alpha = np.empty_like(alpha)
    dh = np.zeros(hidden)
    for k in range(n - 1, -1, -1):
        dh = dh + d_h_out[k]
        u, r, hp = g_u[k], g_r[k], h_prev[k]
        d_n[k] = dn = dh * (1.0 - u) * (1.0 - cand[k] * cand[k])
        # dh*h - dh*cand, not dh*(h - cand): the tape ops round it this
        # way, and the two differ beyond 1e-10 where the gate saturates
        d_u[k] = (dh * hp - dh * cand[k]) * u * (1.0 - u)
        d_rh = dn @ w["cand_state"]
        d_r[k] = d_rh * hp * r * (1.0 - r)
        d_c[k] = dc = d_gates[k] @ stacks["ctx_gates"]
        d_alpha[k] = da = (enc3 @ dc) * alpha[k] * (1.0 - alpha[k])
        d_att[k] = dz = (da @ w["att_score"]) * (1.0 - att[k] * att[k])
        dh = (dh * u + d_rh * r + d_gates[k, :2 * hidden] @ stacks["state_gates"]
              + dz @ att_state)

    grads = {
        "att_hidden": d_att.T @ np.hstack((np.tile(encodings[3], (n, 1)), h_prev)),
        "att_score": d_alpha.T @ att,
        "cand_state": d_n.T @ (g_r * h_prev),
        "out_state": d_pre.T @ h_new,
        "out_proj": d_logits.T @ pre,
    }
    for stack, x in (("emb_gates", emb), ("ctx_gates", ctx), ("state_gates", h_prev)):
        d_stack = d_gates[:, :len(stacks[stack])].T @ x
        grads.update(_blocks(d_stack, kernels.GATE_STACKS[stack]))
    d_word_emb = np.zeros(word_emb.shape)
    np.add.at(d_word_emb, inputs, d_gates @ stacks["emb_gates"])
    d_enc = alpha.T @ d_c
    d_enc_all = d_att.sum(axis=0) @ w["att_hidden"][:, :3 * hidden]

    # the fact encoding: h_0's tanh layer, the concatenation, then the
    # three atom projections of one weight
    d_pre0 = dh * (1.0 - h0 * h0)
    g_all = d_enc_all + w["init_proj"].T @ d_pre0
    g_enc = d_enc + g_all.reshape(3, hidden)
    grads.update(atom_proj=g_enc.T @ atom_rows,
                 init_proj=np.outer(d_pre0, encodings[3]), word_emb=d_word_emb)
    return tuple(grads[name] for name in w)


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
        named += sorted(params.tensors.items())
        fh.write(struct.pack("<I", len(named)))
        for name, arr in named:
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path, input_vocab: Vocabulary,
                    output_vocab: Vocabulary) -> tuple[QGenParams, str]:
    """Reload a checkpoint, verifying it was trained with these vocabularies.

    Each tensor is read once, straight into its array (a gate tensor into
    its stack's row block), after its byte count is checked against what
    is left of the file.  A vocabulary hash mismatch raises ContractError;
    any other fault of the file raises ParseError naming it.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def reserve(n):
            nonlocal left
            if n > left:
                raise ParseError(f"{path}: truncated checkpoint")
            left -= n

        def take(n):
            reserve(n)
            return fh.read(n)

        def text(n, what):
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: {what} is not UTF-8") from None

        if take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", take(4))
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        (mode_len,) = struct.unpack("<B", take(1))
        mode = text(mode_len, "mode")
        in_hash = take(32).hex()
        out_hash = take(32).hex()
        if in_hash != input_vocab.content_hash():
            raise ContractError(f"{path}: input vocabulary hash mismatch")
        if out_hash != output_vocab.content_hash():
            raise ContractError(f"{path}: output vocabulary hash mismatch")

        (n_tensors,) = struct.unpack("<I", take(4))
        arrays: dict[str, np.ndarray] = {}
        # each gate tensor's stack, its row block there and the stack's size
        blocks = {name: (stack, i, len(names)) for stack, names
                  in kernels.GATE_STACKS.items() for i, name in enumerate(names)}
        stacks: dict[str, np.ndarray] = {}
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", take(2))
            name = text(name_len, "a tensor name")
            if name in arrays:
                raise ParseError(f"{path}: tensor {name!r} appears twice")
            (ndim,) = struct.unpack("<B", take(1))
            if ndim != 2:
                raise ParseError(f"{path}: tensor {name!r} has {ndim} dimensions, "
                                 f"expected 2")
            rows, width = shape = struct.unpack("<2I", take(8))
            reserve(8 * rows * width)
            stack, i, k = blocks.get(name, (name, 0, 1))  # else a stack of one
            if stack not in stacks:  # made at the first of its tensors
                stacks[stack] = np.empty((k * rows, width), dtype="<f8")
            arr = arrays[name] = stacks[stack][i * rows:(i + 1) * rows]
            if arr.shape != shape:  # a gate tensor its stack does not fit
                arr = arrays[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(arr) != arr.nbytes:  # the file shrank since fstat
                raise ParseError(f"{path}: truncated checkpoint")
        if left:
            raise ParseError(f"{path}: trailing bytes after checkpoint payload")

    if INPUT_EMB_NAME not in arrays:
        raise ParseError(f"{path}: missing tensor {INPUT_EMB_NAME!r}")
    try:
        params = QGenParams(arrays[INPUT_EMB_NAME], {
            name: arr for name, arr in arrays.items() if name != INPUT_EMB_NAME})
    except (DimensionError, NumericError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    # out_proj has as many rows as word_emb: QGenParams checked that
    for name, vocab in ((INPUT_EMB_NAME, input_vocab), ("word_emb", output_vocab)):
        rows, width = arrays[name].shape
        if rows != len(vocab):
            raise ParseError(f"{path}: tensor {name!r} has shape {(rows, width)}, "
                             f"expected {(len(vocab), width)} for the vocabulary")
    return params, mode
