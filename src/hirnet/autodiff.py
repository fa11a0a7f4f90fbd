"""Reverse-mode automatic differentiation over dense float64 matrices, or
stacks of matrices with one matrix per run.

A tensor is a matrix ``(rows, cols)`` or a stack ``(runs, rows, cols)``;
any other shape, a scalar or a vector included, is a :class:`ShapeError`.
Every op acts on the last two axes, so each run of a stack computes exactly
what it would alone. Operands have one shape, except that a bias row
broadcasts over the rows of its matrix (on the right of ``+`` only). The
op set is exactly what the acceptance gradient check builds its MLP from:
matrix product, elementwise add (with that bias row), relu and row-stable
log-softmax. Everything else goes through :func:`emit`, each op one node
with an analytic backward: the network as two (``models.network``), each
loss and their weighted sum as one.

A ``Graph`` is a tape rebuilt for every forward pass: two lists, each
node's parents (one slot per input, ``None`` for a constant) and its
backward function. Tensors created through :meth:`Graph.param` are
differentiable leaves; plain ``Tensor`` values act as constants. A backward
returns one gradient per input, and the tape drops those of constant
inputs. A loss holds one scalar per run, shape ``(1, 1)`` or ``(runs, 1, 1)``;
:meth:`Graph.backward` seeds each with one, so every run gets the gradient
of its own loss, and returns a list by node id, ``None`` where a node got
none: nothing is zero-filled. It may run once per tape; a second call is a
:class:`ContractError` so silent gradient accumulation cannot happen, and
it releases the tape's closures, so a step's tape is freed as soon as its
tensors are. The backward writes no array, and no backward function may
write its upstream. Row reductions over the classes are :func:`fold_last`
column folds: numpy's bits, without its per-row loops.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError


def _as_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if not 2 <= a.ndim <= 3:
        raise ShapeError(f"tensors are matrices or stacks of them, got ndim={a.ndim}")
    return a


class Tensor:
    """A float64 matrix or stack of matrices, optionally recorded on a graph."""

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, values, graph: "Graph | None" = None, node_id: int | None = None):
        self.data = values if isinstance(values, np.ndarray) else _as_array(values)
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f", node_id={self.node_id}" if self.node_id is not None else ""
        return f"Tensor(shape={self.shape}{tag})"

    def __add__(self, other):
        return _add(self, as_tensor(other))


def tensor(values) -> Tensor:
    """Wrap values as a constant (graph-free) tensor."""
    return Tensor(_as_array(values))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else tensor(value)


class Graph:
    """Append-only tape of operations; parents always precede children.
    Node i's parents are ``_parents[i]`` (``None`` for a constant input),
    its backward ``_backs[i]``."""

    def __init__(self):
        self._parents: list[list[int | None]] = []
        self._backs: list[Callable | None] = []
        self._param_ids: list[int] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._parents)

    @property
    def param_ids(self) -> list[int]:
        """Node ids of differentiable leaves, in creation order."""
        return list(self._param_ids)

    def param(self, values) -> Tensor:
        """Register a differentiable leaf holding ``values``."""
        values = _as_array(values)
        self._param_ids.append(len(self._parents))
        self._parents.append([])
        self._backs.append(None)
        return Tensor(values, self, self._param_ids[-1])

    def backward(self, loss: Tensor) -> list[np.ndarray | None]:
        """Propagate d(loss)/d(node) through the tape, reverse order.

        ``loss`` holds one scalar per run, and each is seeded with one.
        Returns the gradients as a list indexed by node_id, ``None`` where a
        node received none: a leaf the loss never used is not zero-filled.
        Gradients may share memory or be read-only views: treat them as read-only.
        Runs at most once per graph, and drops the tape's closures when done.
        """
        if loss.graph is not self or loss.node_id is None:
            raise ContractError("loss tensor was not produced on this graph")
        if loss.data.shape[-2:] != (1, 1):
            raise ContractError(f"backward needs one scalar per run, got shape {loss.data.shape}")
        if self._consumed:
            raise ContractError("backward already ran on this graph; rebuild the graph")
        self._consumed = True
        # Closures hold tensors, which hold this graph: the tape lets go of
        # them here, so the step's tape need not wait for the cyclic collector.
        parents, backs, self._backs = self._parents, self._backs, []

        grads: list[np.ndarray | None] = [None] * len(parents)
        grads[loss.node_id] = np.ones(loss.data.shape)
        for node_id in range(loss.node_id, -1, -1):
            upstream, back = grads[node_id], backs[node_id]
            if upstream is None or back is None:
                continue
            for parent_id, contribution in zip(parents[node_id], back(upstream)):
                if parent_id is not None:
                    prior = grads[parent_id]
                    grads[parent_id] = contribution if prior is None else prior + contribution
        return grads


def emit(kind: str, inputs: Sequence[Tensor], value: np.ndarray,
         backward_fn: Callable | None) -> Tensor:
    """Record one op: its ``value`` and ``backward_fn(upstream)``, which
    returns one gradient per input, in input order and of that input's
    shape, and never writes ``upstream``; a constant input's gradient may be
    ``None``, and the tape drops it. With no attached input the result is a
    constant and ``backward_fn`` never runs. ``kind`` only names the op for
    readers of the call.
    """
    graph, parents = None, []
    for t in inputs:
        if t.graph is not None and t.graph is not graph:
            if graph is not None:
                raise ContractError("operands belong to different graphs")
            graph = t.graph
        parents.append(t.node_id)
    if graph is None:
        return Tensor(value)
    graph._parents.append(parents)
    graph._backs.append(backward_fn)
    return Tensor(value, graph, len(graph._parents) - 1)


def _add(a: Tensor, b: Tensor) -> Tensor:
    bias = a.shape != b.shape  # a row-broadcast bias
    if bias and b.shape != a.shape[:-2] + (1, a.shape[-1]):
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")
    return emit("add", (a, b), a.data + b.data,
                lambda up: (up, up.sum(axis=-2, keepdims=True) if bias else up))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, or run by run of two equal-length
    stacks; inner dimensions must agree."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes do not match: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def back(up):
        return up @ b_data.swapaxes(-1, -2), a_data.swapaxes(-1, -2) @ up

    return emit("matmul", (a, b), a_data @ b_data, back)


def relu_values(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x) with +0.0 for x <= 0 and NaN: bitwise
    ``np.where(x > 0, x, 0.0)``. ``fmax`` alone keeps -0.0 on some layouts
    and sizes; adding +0.0 turns -0.0 into +0.0 and leaves the rest."""
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); gradient is masked where x <= 0."""
    x = as_tensor(x)
    value = relu_values(x.data)

    def back(up):
        return (up * (value > 0),)

    return emit("relu", (x,), value, back)


def log_softmax(logits: Tensor) -> Tensor:
    """Row-wise log-softmax (over the last axis), max-subtracted so any
    finite input is safe.

    Rows of exp(output) sum to 1. The subtracted max cancels algebraically,
    so the map stays smooth and finite-difference checkable everywhere.
    """
    logits = as_tensor(logits)
    if logits.shape[-1] < 2:
        raise ShapeError("log_softmax needs at least 2 columns")
    value = logits.data - fold_last(np.maximum, logits.data)
    value -= np.log(fold_last(np.add, np.exp(value)))
    probs = np.exp(value)

    def back(up):
        return (up - probs * fold_last(np.add, up),)

    return emit("log_softmax", (logits,), value, back)


def fold_last(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1, keepdims=True)``, bitwise, for ``np.add`` or ``np.maximum``:
    one op per column, not numpy's loop per row. The sum adds the columns in
    order to ``column 0 + 0.0`` (which turns -0.0 into +0.0), as the reduce
    does below 8 columns; from 8 on it sums pairwise, so the reduce runs."""
    if x.shape[-1] >= 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., :1] + 0.0 if ufunc is np.add else x[..., :1].copy()
    for k in range(1, x.shape[-1]):
        ufunc(out, x[..., k:k + 1], out=out)
    return out


def grad_check(f, params: Sequence[np.ndarray], step: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f(graph, tensors) -> scalar Tensor`` must be deterministic in the
    parameter values; a parameter it does not use has zero analytic gradient.
    Returns the max over all coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    """
    arrays = [np.asarray(p, dtype=np.float64) for p in params]

    g = Graph()
    leaves = [g.param(a) for a in arrays]
    loss = f(g, leaves)
    grads = g.backward(loss)
    analytic = [np.zeros_like(a) if (gr := grads[leaf.node_id]) is None else gr
                for a, leaf in zip(arrays, leaves)]

    def value_at(candidate: list[np.ndarray]) -> float:
        g2 = Graph()
        return f(g2, [g2.param(a) for a in candidate]).item()

    worst = 0.0
    for k, a in enumerate(arrays):
        flat = a.reshape(-1)
        for i in range(flat.size):
            bumped = [arr.copy() for arr in arrays]
            bumped[k].reshape(-1)[i] = flat[i] + step
            hi = value_at(bumped)
            bumped[k].reshape(-1)[i] = flat[i] - step
            lo = value_at(bumped)
            numeric = (hi - lo) / (2.0 * step)
            exact = analytic[k].reshape(-1)[i]
            err = abs(exact - numeric) / max(1e-8, abs(exact) + abs(numeric))
            worst = max(worst, err)
    return worst
