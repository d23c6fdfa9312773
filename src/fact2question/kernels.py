"""Hot numeric kernels in numpy.

Two inner loops dominate runtime: the per-triple SGD epoch of embedding
training and the per-token decoder step.  Both run on raw arrays.
transe_epoch walks the tables as lists of row views, so a row is a list
lookup and its update an in-place ufunc; its arithmetic is per-triple
SGD's, operation for operation, and the tests check it bit for bit
against a loop that indexes the arrays.
decode_step is the one decoder forward: generation reads its new state
and logits, and training (model.sequence_log_likelihood) also keeps the
activations it returns for the hand-written backward pass.  It makes 8
matrix-vector products, not 15: the gate weights that read one input are
stacked (GATE_STACKS) and their row slices add up in the per-gate order.
The backward pass (model._backprop_through_time) reads the same stacks.
The tests check it against primitive tape ops, and bit for bit against
the per-gate step (OpenBLAS keeps those bits when H is a multiple of 4).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .autodiff import sigmoid_values, tanh_values

# The kernels have a single implementation; these constants describe it
# to callers that record the run environment.
BACKEND = "numpy"
HAS_NUMBA = False

# decode_step's weight arguments, in order, by parameter name
STEP_WEIGHTS = ("att_hidden", "att_score", "emb_gates", "ctx_gates",
                "state_gates", "cand_state", "out_state", "out_proj")

# the *_gates stacks: the named gate tensors as consecutive row blocks
GATE_STACKS = {"emb_gates": ("reset_emb", "update_emb", "cand_emb", "out_emb"),
               "ctx_gates": ("reset_ctx", "update_ctx", "cand_ctx", "out_ctx"),
               "state_gates": ("reset_state", "update_state")}


def transe_epoch(ent, rel, s_idx, r_idx, o_idx, order, corrupt_tail, neg_ent,
                 lr, margin):
    """One SGD epoch of margin-ranking training, in place on ent/rel.

    ent (E, d), rel (R, d) float64; s_idx/r_idx/o_idx (n,) triple columns;
    order (n,) visit order; corrupt_tail (n,) 0/1 side flags and neg_ent
    (n,) corrupting entities, both by visit position.  Each violating
    triple updates ent[s], ent[o], rel[r], ent[ns], ent[no] in that order
    before the next is scored.  Returns the summed hinge loss as a float.
    """
    ent, rel = list(ent), list(rel)
    s_idx, r_idx, o_idx = s_idx.tolist(), r_idx.tolist(), o_idx.tolist()
    total = 0.0
    for i, tail, neg in zip(order.tolist(), corrupt_tail.tolist(), neg_ent.tolist()):
        s, r, o = s_idx[i], r_idx[i], o_idx[i]
        ns, no = (s, neg) if tail else (neg, o)
        pos = ent[s] + rel[r] - ent[o]
        negv = ent[ns] + rel[r] - ent[no]
        f_pos = math.sqrt(np.add.reduce(pos * pos))
        f_neg = math.sqrt(np.add.reduce(negv * negv))
        viol = margin + f_pos - f_neg
        if viol > 0.0:
            total += viol
            g_pos = pos / f_pos if f_pos > 0.0 else np.zeros_like(pos)
            g_neg = negv / f_neg if f_neg > 0.0 else np.zeros_like(negv)
            step_pos, step_neg = lr * g_pos, lr * g_neg
            ent[s] -= step_pos
            ent[o] += step_pos
            rel[r] -= lr * (g_pos - g_neg)
            ent[ns] += step_neg
            ent[no] -= step_neg
    return float(total)


class Step(NamedTuple):
    """One decoder step: its outputs, then the activations a backward
    pass reads."""

    h: np.ndarray       # (H,) new state
    logits: np.ndarray  # (V,)
    alpha: np.ndarray   # (3,) attention scalars
    att: np.ndarray     # (H,) attention hidden layer
    c: np.ndarray       # (H,) context
    g_r: np.ndarray     # (H,) reset gate
    g_u: np.ndarray     # (H,) update gate
    cand: np.ndarray    # (H,) candidate state
    pre: np.ndarray     # (H,) output hidden layer, the input of out_proj


def decode_step(e_w, h_prev, enc_s, enc_r, enc_o, enc_all,
                att_hidden, att_score, emb_gates, ctx_gates, state_gates,
                cand_state, out_state, out_proj) -> Step:
    """One decoder step: attention, GRU update, output logits.

    e_w (D,) previous-word embedding; h_prev (H,); enc_* (H,) atom
    encodings with enc_all (3H,) their concatenation; the weights follow
    STEP_WEIGHTS, the *_gates stacks (4H, D), (4H, H) and (2H, H).
    """
    h = h_prev.shape[0]
    z = np.concatenate((enc_all, h_prev))
    a = tanh_values(np.dot(att_hidden, z))
    alpha = sigmoid_values(np.dot(att_score, a))
    c = alpha[0] * enc_s + alpha[1] * enc_r + alpha[2] * enc_o
    from_emb = np.dot(emb_gates, e_w)
    from_ctx = np.dot(ctx_gates, c)
    gates = sigmoid_values(from_emb[:2 * h] + from_ctx[:2 * h]
                           + np.dot(state_gates, h_prev))
    g_r, g_u = gates[:h], gates[h:]
    cand = tanh_values(from_emb[2 * h:3 * h] + from_ctx[2 * h:3 * h]
                       + np.dot(cand_state, g_r * h_prev))
    h_new = g_u * h_prev + (1.0 - g_u) * cand
    pre = tanh_values(np.dot(out_state, h_new) + from_emb[3 * h:] + from_ctx[3 * h:])
    logits = np.dot(out_proj, pre)
    return Step(h_new, logits, alpha, a, c, g_r, g_u, cand, pre)
