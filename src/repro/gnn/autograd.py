"""A small reverse-mode autodiff engine over NumPy arrays.

The engine supports exactly the operations the GCN and AGNN models need:
dense matmul, sparse-dense matmul (SpMM through a pluggable backend),
element-wise arithmetic, ReLU, dropout, bias addition, log-softmax and the
negative-log-likelihood loss, plus the per-edge softmax AGNN's attention
needs.  Gradients are accumulated by topologically sorting the recorded
graph, the same strategy PyTorch uses.

The goal is faithfulness and testability (gradients are verified against
finite differences in the test suite), not completeness.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (evaluation mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """An array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[], None] | None = None
        self._parents: tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------ properties
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # -------------------------------------------------------------- backward
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self) = 1)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float32)

        # Topological order of the recorded graph.
        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward()

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            # Sum out broadcast dimensions (bias additions).
            extra = grad.ndim - self.data.ndim
            if extra > 0:
                grad = grad.sum(axis=tuple(range(extra)))
            for axis, size in enumerate(self.data.shape):
                if size == 1 and grad.shape[axis] != 1:
                    grad = grad.sum(axis=axis, keepdims=True)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------ operators
    def __add__(self, other) -> "Tensor":
        return add(self, _as_tensor(other))

    def __radd__(self, other) -> "Tensor":
        return add(_as_tensor(other), self)

    def __sub__(self, other) -> "Tensor":
        return add(self, mul(_as_tensor(other), _as_tensor(-1.0)))

    def __mul__(self, other) -> "Tensor":
        return mul(self, _as_tensor(other))

    def __rmul__(self, other) -> "Tensor":
        return mul(_as_tensor(other), self)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, _as_tensor(other))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Parameter(Tensor):
    """A trainable tensor (always requires gradients)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Iterable[Tensor], backward: Callable[[], None] | None) -> Tensor:
    parents = tuple(parents)
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) addition."""
    out_data = a.data + b.data
    out = _make(out_data, (a, b), None)

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(out.grad)
        if b.requires_grad:
            b._accumulate(out.grad)

    out._backward = backward if out.requires_grad else None
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise (broadcasting) multiplication."""
    out = _make(a.data * b.data, (a, b), None)

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(out.grad * b.data)
        if b.requires_grad:
            b._accumulate(out.grad * a.data)

    out._backward = backward if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Dense matrix multiplication."""
    out = _make(a.data @ b.data, (a, b), None)

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(out.grad @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ out.grad)

    out._backward = backward if out.requires_grad else None
    return out


def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = a.data > 0
    out = _make(a.data * mask, (a,), None)

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(out.grad * mask)

    out._backward = backward if out.requires_grad else None
    return out


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout with keep-probability ``1 - p``."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    if not training or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p).astype(np.float32) / (1.0 - p)
    out = _make(a.data * mask, (a,), None)

    def backward() -> None:
        if a.requires_grad:
            a._accumulate(out.grad * mask)

    out._backward = backward if out.requires_grad else None
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    out = _make(out_data, (a,), None)

    def backward() -> None:
        if a.requires_grad:
            softmax = np.exp(out_data)
            grad = out.grad - softmax * out.grad.sum(axis=axis, keepdims=True)
            a._accumulate(grad)

    out._backward = backward if out.requires_grad else None
    return out


def nll_loss(log_probs: Tensor, labels: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log likelihood over (optionally masked) rows."""
    labels = np.asarray(labels, dtype=np.int64)
    n = log_probs.data.shape[0]
    if mask is None:
        mask = np.ones(n, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise ValueError("nll_loss requires at least one selected row")
    picked = log_probs.data[idx, labels[idx]]
    out = _make(np.array(-picked.mean(), dtype=np.float32), (log_probs,), None)

    def backward() -> None:
        if log_probs.requires_grad:
            grad = np.zeros_like(log_probs.data)
            grad[idx, labels[idx]] = -1.0 / idx.size
            log_probs._accumulate(grad * out.grad)

    out._backward = backward if out.requires_grad else None
    return out


def row_l2_normalize(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize each row to unit L2 norm (used by AGNN's cosine attention)."""
    norms = np.sqrt((a.data ** 2).sum(axis=1, keepdims=True)) + eps
    out_data = a.data / norms
    out = _make(out_data, (a,), None)

    def backward() -> None:
        if a.requires_grad:
            g = out.grad
            dot = (g * out_data).sum(axis=1, keepdims=True)
            a._accumulate((g - out_data * dot) / norms)

    out._backward = backward if out.requires_grad else None
    return out


def spmm(backend, values: Tensor | None, dense: Tensor) -> Tensor:
    """Sparse × dense product through a :class:`~repro.gnn.backends.SparseBackend`.

    ``values`` optionally replaces the sparse matrix's stored values (used by
    AGNN, whose attention coefficients are recomputed every layer); passing
    ``None`` uses the backend's fixed adjacency values.  Gradients flow into
    both ``dense`` and, when given, ``values``: the backward pass is an SpMM
    on the transposed pattern plus, for ``values``, an SDDMM — the engine's
    two cores again.
    """
    vals_data = None if values is None else values.data
    out_data = backend.spmm_forward(vals_data, dense.data)
    parents = (dense,) if values is None else (values, dense)
    out = _make(out_data, parents, None)

    def backward() -> None:
        grad_values, grad_dense = backend.spmm_backward(vals_data, dense.data, out.grad)
        if values is not None and values.requires_grad and grad_values is not None:
            values._accumulate(grad_values)
        if dense.requires_grad:
            dense._accumulate(grad_dense)

    out._backward = backward if out.requires_grad else None
    return out


def sddmm(backend, a: Tensor, b: Tensor) -> Tensor:
    """Sampled dense × dense product (per-edge dot products) via a backend.

    Returns a 1-D tensor with one value per stored nonzero of the backend's
    adjacency, in its CSR entry order.  The backward pass is two SpMMs of
    the edge gradients (one on the transposed pattern).
    """
    out_data = backend.sddmm_forward(a.data, b.data)
    out = _make(out_data, (a, b), None)

    def backward() -> None:
        grad_a, grad_b = backend.sddmm_backward(a.data, b.data, out.grad)
        if a.requires_grad:
            a._accumulate(grad_a)
        if b.requires_grad:
            b._accumulate(grad_b)

    out._backward = backward if out.requires_grad else None
    return out


def edge_softmax(backend, logits: Tensor) -> Tensor:
    """Row-wise softmax over per-edge values (AGNN's attention normalisation).

    The node saves its output: the softmax gradient is computed from the
    softmax itself, never from the logits.
    """
    out_data = backend.edge_softmax_forward(logits.data)
    out = _make(out_data, (logits,), None)

    def backward() -> None:
        if logits.requires_grad:
            logits._accumulate(backend.edge_softmax_backward(out_data, out.grad))

    out._backward = backward if out.requires_grad else None
    return out
