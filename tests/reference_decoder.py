"""The per-gate decoder step: the oracle for kernels.decode_step.

reference_decode_step makes one matrix-vector product per weight, 15 a
step, where kernels.decode_step reads the gate weights through the three
stacks of kernels.GATE_STACKS and makes 8.  The tests check that the two
steps agree bit for bit; stacked_weights builds decode_step's weight
arguments from the per-gate weights.
"""

from __future__ import annotations

import numpy as np

from fact2question import kernels
from fact2question.autodiff import sigmoid_values, tanh_values

# reference_decode_step's weight arguments, in order, by parameter name
REFERENCE_WEIGHTS = (
    "att_hidden", "att_score",
    "reset_emb", "reset_ctx", "reset_state",
    "update_emb", "update_ctx", "update_state",
    "cand_emb", "cand_ctx", "cand_state",
    "out_state", "out_emb", "out_ctx", "out_proj",
)


def reference_decode_step(e_w, h_prev, enc_s, enc_r, enc_o, enc_all,
                          att_hidden, att_score,
                          reset_emb, reset_ctx, reset_state,
                          update_emb, update_ctx, update_state,
                          cand_emb, cand_ctx, cand_state,
                          out_state, out_emb, out_ctx, out_proj) -> kernels.Step:
    """One decoder step with a product per weight; the arguments are
    kernels.decode_step's, with the weights following REFERENCE_WEIGHTS."""
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
    return kernels.Step(h_new, logits, alpha, a, c, g_r, g_u, cand, pre)


def stacked_weights(weights: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """kernels.decode_step's weight arguments, in STEP_WEIGHTS order, from
    the per-gate weights by name."""
    named = dict(weights)
    for stack, names in kernels.GATE_STACKS.items():
        named[stack] = np.concatenate([weights[name] for name in names])
    return tuple(named[name] for name in kernels.STEP_WEIGHTS)
