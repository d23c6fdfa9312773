"""Dense fp64 tensors with tape-based reverse-mode differentiation.

A Tape records primitive ops during a forward pass (define-by-run);
backprop() replays the record in reverse topological order, which for a
define-by-run tape is simply reverse creation order.  Central finite
differences (finite_diff_check) are the correctness oracle for every op.

Ops run fine without an open tape: they just compute values eagerly.
custom_op records a node whose forward and backward are written by its
caller; the decoder loss (model.sequence_log_likelihood) is one.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

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


def softmax_values(x):
    """Stable softmax on a raw 1-d array; outputs stay inside (0, 1)."""
    e = np.exp(x - np.max(x))
    out = e / np.sum(e)
    return np.minimum(np.maximum(out, TINY), ONE_BELOW)


def log_softmax_values(x):
    """Stable log-softmax on a raw 1-d array."""
    s = x - np.max(x)
    return s - np.log(np.sum(np.exp(s)))


class Tensor:
    """A float64 ndarray plus an optional name.

    Leaves (parameters, constants) are built directly; op outputs are
    built by the functions below.  Values are treated as immutable once
    an op has consumed them; leaf values may be updated between tapes
    (that is how the optimizer works).
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
    """Ordered record of the primitive ops applied during a forward pass.

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


def _active() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def _record(out: Tensor, parents: tuple[Tensor, ...], backward: Callable) -> None:
    tape = _active()
    if tape is not None:
        tape._record(out, parents, backward)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """w (m, n) @ x (n,) -> (m,)."""
    if w.value.ndim != 2 or x.value.ndim != 1 or w.shape[1] != x.shape[0]:
        raise DimensionError(f"matvec: incompatible shapes {w.shape} and {x.shape}")
    out = Tensor(w.value @ x.value)

    def backward(g):
        return np.outer(g, x.value), w.value.T @ g

    _record(out, (w, x), backward)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly (no broadcasting)."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.value + b.value)
    _record(out, (a, b), lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product; shapes must match exactly."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    out = Tensor(a.value * b.value)
    _record(out, (a, b), lambda g: (g * b.value, g * a.value))
    return out


def scale(s: Tensor, v: Tensor) -> Tensor:
    """Scalar node s times tensor v."""
    if s.value.ndim != 0:
        raise DimensionError(f"scale: scalar expected, got shape {s.shape}")
    out = Tensor(s.value * v.value)
    _record(out, (s, v), lambda g: (np.asarray(np.sum(g * v.value)), s.value * g))
    return out


def one_minus(x: Tensor) -> Tensor:
    """1 - x elementwise (the update-gate complement)."""
    out = Tensor(1.0 - x.value)
    _record(out, (x,), lambda g: (-g,))
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic; outputs strictly inside (0, 1), never NaN."""
    out = Tensor(sigmoid_values(x.value))
    _record(out, (x,), lambda g: (g * out.value * (1.0 - out.value),))
    return out


def tanh_act(x: Tensor) -> Tensor:
    """Elementwise tanh; outputs strictly inside (-1, 1)."""
    out = Tensor(tanh_values(x.value))
    _record(out, (x,), lambda g: (g * (1.0 - out.value * out.value),))
    return out


def softmax(x: Tensor) -> Tensor:
    """Softmax over a 1-d tensor, computed with max-subtraction."""
    if x.value.ndim != 1 or x.shape[0] < 1:
        raise ContractError(f"softmax: non-empty vector expected, got shape {x.shape}")
    out = Tensor(softmax_values(x.value))

    def backward(g):
        p = out.value
        return (p * (g - np.dot(g, p)),)

    _record(out, (x,), backward)
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Log-softmax over a 1-d tensor; the stable path for log-likelihoods."""
    if x.value.ndim != 1 or x.shape[0] < 1:
        raise ContractError(f"log_softmax: non-empty vector expected, got shape {x.shape}")
    out = Tensor(log_softmax_values(x.value))

    def backward(g):
        return (g - np.exp(out.value) * np.sum(g),)

    _record(out, (x,), backward)
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 1-d tensors."""
    parts = tuple(parts)
    if not parts or any(p.value.ndim != 1 for p in parts):
        raise DimensionError("concat: one or more 1-d tensors expected")
    out = Tensor(np.concatenate([p.value for p in parts]))
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(sizes)))

    _record(out, parts, backward)
    return out


def pick(x: Tensor, i: int) -> Tensor:
    """Select one element of a 1-d tensor as a 0-d scalar node."""
    if x.value.ndim != 1:
        raise DimensionError(f"pick: vector expected, got shape {x.shape}")
    if not 0 <= i < x.shape[0]:
        raise DimensionError(f"pick: index {i} out of range for shape {x.shape}")
    out = Tensor(x.value[i])

    def backward(g):
        gx = np.zeros_like(x.value)
        gx[i] = g
        return (gx,)

    _record(out, (x,), backward)
    return out


def take_row(m: Tensor, i: int) -> Tensor:
    """Select row i of a 2-d tensor (embedding lookup); grads scatter back."""
    if m.value.ndim != 2:
        raise DimensionError(f"take_row: matrix expected, got shape {m.shape}")
    if not 0 <= i < m.shape[0]:
        raise DimensionError(f"take_row: row {i} out of range for shape {m.shape}")
    out = Tensor(m.value[i].copy())

    def backward(g):
        gm = np.zeros_like(m.value)
        gm[i] = g
        return (gm,)

    _record(out, (m,), backward)
    return out


def custom_op(value, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """A node whose forward ran outside the tape (a fused op).

    value is its result; backward(g) must return one gradient per parent,
    in order, each shaped like that parent (or None for no gradient).
    """
    out = Tensor(value)
    _record(out, tuple(parents), backward)
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
