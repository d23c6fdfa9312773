"""Dense fp64 tensors with tape-based reverse-mode differentiation, and the
clamped activations that the numpy kernels share.

A Tape records nodes during a forward pass (define-by-run); backprop()
replays the record in reverse creation order.  custom_op is the one way to
record a node: its caller computes the value and writes the backward.  The
decoder loss (model.sequence_log_likelihood) is one such node per example.
Without an open tape, custom_op just wraps its value.  finite_diff_check
compares backprop's gradients with central finite differences.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, NumericError

# Open-interval bounds for the saturating activations.  Extreme inputs
# would otherwise round to exactly 0 or +-1, which breaks downstream
# log-probability code; clamping keeps every output strictly inside the
# mathematical range at a cost below any test tolerance.
TINY = 5e-324
ONE_BELOW = float(np.nextafter(1.0, 0.0))
NEG_ONE_ABOVE = float(np.nextafter(-1.0, 0.0))


def sigmoid_values(x):
    """Stable elementwise logistic on a raw array, clamped into (0, 1)."""
    out = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))
    return np.minimum(np.maximum(out, TINY), ONE_BELOW)


def tanh_values(x):
    """Elementwise tanh on a raw array, clamped into (-1, 1)."""
    return np.minimum(np.maximum(np.tanh(x), NEG_ONE_ABOVE), ONE_BELOW)


def log_softmax_values(x):
    """Stable log-softmax on a raw 1-d array."""
    s = x - np.max(x)
    return s - np.log(np.sum(np.exp(s)))


class Tensor:
    """A float64 ndarray plus an optional name.

    Leaves (parameters, constants) are built directly; node outputs are
    built by custom_op.  Values are treated as immutable once a node has
    consumed them; leaf values may be updated between tapes (that is how
    the optimizer works).
    """

    __slots__ = ("value", "name")

    def __init__(self, value, name: str | None = None):
        arr = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError(
                f"non-finite values in tensor{' ' + repr(name) if name else ''}")
        self.value = arr
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.value.shape})"


class Tape:
    """Ordered record of the nodes built during a forward pass.

    Open tapes form one stack for the process; the innermost records.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._outputs: set[int] = set()
        self._params: dict[str, Tensor] = {}

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self, "tapes closed out of order"
        return False

    def watch(self, params: Mapping[str, Tensor]) -> None:
        """Register named parameters that backprop() reports gradients for."""
        for name, tensor in params.items():
            self._params[name] = tensor

    def _record(self, out, parents, backward):
        self._entries.append((out, parents, backward))
        self._outputs.add(id(out))

    def __len__(self):
        return len(self._entries)


_TAPES: list[Tape] = []


def custom_op(value, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """A node whose forward ran outside the tape, recorded on the innermost
    open tape.

    value is its result; backward(g) must return one gradient per parent,
    in order, each shaped like that parent (or None for no gradient).
    """
    out = Tensor(value)
    if _TAPES:
        _TAPES[-1]._record(out, tuple(parents), backward)
    return out


def backprop(tape: Tape, loss: Tensor) -> dict[str, np.ndarray]:
    """d(loss)/d(param) for every watched parameter; unused params get zeros."""
    if loss.value.ndim != 0:
        raise ContractError(f"backprop: scalar loss expected, got shape {loss.shape}")
    if id(loss) not in tape._outputs:
        raise ContractError("backprop: loss is not a node on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for out, parents, backward in reversed(tape._entries):
        g = grads.get(id(out))
        if g is None:
            continue
        for parent, pg in zip(parents, backward(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return {
        name: grads[id(p)] if id(p) in grads else np.zeros_like(p.value)
        for name, p in tape._params.items()
    }


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    eps: float = 1e-5,
) -> float:
    """Max relative error between backprop and central finite differences.

    f must rebuild the scalar loss from the current parameter values on
    every call and must be deterministic.  Relative error per coordinate
    is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ContractError("finite_diff_check: eps must be positive")
    with Tape() as tape:
        tape.watch(params)
        loss = f()
    analytic = backprop(tape, loss)

    worst = 0.0
    for name, p in params.items():
        flat = p.value.reshape(-1)
        ga = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f().item()
            flat[i] = orig - eps
            lo = f().item()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(
                    f"finite_diff_check: non-finite loss perturbing {name}[{i}]"
                )
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(ga[i] - numeric) / max(1e-8, abs(ga[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
