"""Hot numeric kernels in numpy.

Two inner loops dominate runtime: the per-triple SGD epoch of embedding
training and the per-token decoder step.  Both run on raw arrays.
decode_step is the one decoder forward: generation reads its new state
and logits, and training (model.sequence_log_likelihood) also keeps the
activations it returns for the hand-written backward pass.  The tests
check it against a decoder step built from primitive tape ops.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import sigmoid_values, tanh_values

# The kernels have a single implementation; these constants describe it
# to callers that record the run environment.
BACKEND = "numpy"
HAS_NUMBA = False

# decode_step's weight arguments, in order, by parameter name
STEP_WEIGHTS = (
    "att_hidden", "att_score",
    "reset_emb", "reset_ctx", "reset_state",
    "update_emb", "update_ctx", "update_state",
    "cand_emb", "cand_ctx", "cand_state",
    "out_state", "out_emb", "out_ctx", "out_proj",
)


def transe_epoch(ent, rel, s_idx, r_idx, o_idx, order, corrupt_tail, neg_ent,
                 lr, margin):
    """One SGD epoch of margin-ranking training, in place on ent/rel.

    ent (E, d), rel (R, d); s_idx/r_idx/o_idx (n,) triple columns;
    order (n,) visit order; corrupt_tail (n,) 0/1 side flags and
    neg_ent (n,) corrupting entities, both indexed by visit position.
    Returns the summed hinge loss.
    """
    total = 0.0
    for k in range(order.shape[0]):
        i = order[k]
        s, r, o = s_idx[i], r_idx[i], o_idx[i]
        if corrupt_tail[k]:
            ns, no = s, neg_ent[k]
        else:
            ns, no = neg_ent[k], o
        pos = ent[s] + rel[r] - ent[o]
        negv = ent[ns] + rel[r] - ent[no]
        f_pos = np.sqrt(np.sum(pos * pos))
        f_neg = np.sqrt(np.sum(negv * negv))
        viol = margin + f_pos - f_neg
        if viol > 0.0:
            total += viol
            g_pos = pos / f_pos if f_pos > 0.0 else np.zeros_like(pos)
            g_neg = negv / f_neg if f_neg > 0.0 else np.zeros_like(negv)
            ent[s] -= lr * g_pos
            ent[o] += lr * g_pos
            rel[r] -= lr * (g_pos - g_neg)
            ent[ns] += lr * g_neg
            ent[no] -= lr * g_neg
    return total


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
                att_hidden, att_score,
                reset_emb, reset_ctx, reset_state,
                update_emb, update_ctx, update_state,
                cand_emb, cand_ctx, cand_state,
                out_state, out_emb, out_ctx, out_proj) -> Step:
    """One decoder step: attention, GRU update, output logits.

    e_w (D,) previous-word embedding; h_prev (H,); enc_* (H,) atom
    encodings with enc_all (3H,) their concatenation; the weights follow
    STEP_WEIGHTS.
    """
    z = np.concatenate((enc_all, h_prev))
    a = tanh_values(np.dot(att_hidden, z))
    alpha = sigmoid_values(np.dot(att_score, a))
    c = alpha[0] * enc_s + alpha[1] * enc_r + alpha[2] * enc_o
    g_r = sigmoid_values(np.dot(reset_emb, e_w) + np.dot(reset_ctx, c)
                         + np.dot(reset_state, h_prev))
    g_u = sigmoid_values(np.dot(update_emb, e_w) + np.dot(update_ctx, c)
                         + np.dot(update_state, h_prev))
    cand = tanh_values(np.dot(cand_emb, e_w) + np.dot(cand_ctx, c)
                       + np.dot(cand_state, g_r * h_prev))
    h_new = g_u * h_prev + (1.0 - g_u) * cand
    pre = tanh_values(np.dot(out_state, h_new) + np.dot(out_emb, e_w)
                      + np.dot(out_ctx, c))
    logits = np.dot(out_proj, pre)
    return Step(h_new, logits, alpha, a, c, g_r, g_u, cand, pre)
