"""Reverse-mode automatic differentiation over dense float64 matrices, or
stacks of matrices with one matrix per run.

A tensor is a matrix ``(rows, cols)`` or a stack ``(runs, rows, cols)``.
Every op acts on the last two axes, so each run of a stack computes exactly
what it would alone. Operands have one shape, except that a bias row
broadcasts over the rows of its matrix. The op set is
deliberately small: matrix product, elementwise add, sub, mul and scale,
relu, row-stable log-softmax and a sum to one scalar per matrix. That is
enough to express an MLP classifier, and to check the training path against
it with finite differences. Training records larger ops through
:func:`emit`, each one node with an analytic backward: the network as two
(``models.network``) and each loss as one; the small ops serve the
acceptance gradient check and the tests.

A ``Graph`` is a tape rebuilt for every forward pass. Tensors created
through :meth:`Graph.param` are differentiable leaves; plain ``Tensor``
values act as constants. A loss holds one scalar per run, shape ``(1, 1)``
or ``(runs, 1, 1)``; ``backward`` seeds each with one, so every run gets
the gradient of its own loss. ``backward`` may run once per tape; a second
call is a :class:`ContractError` so silent gradient accumulation cannot
happen, and it releases the tape's closures, so a step's tape is freed as
soon as its tensors are.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

__all__ = [
    "Graph",
    "Tensor",
    "tensor",
    "as_tensor",
    "matmul",
    "relu",
    "relu_values",
    "log_softmax",
    "sum_all",
    "emit",
    "backward",
    "grad_check",
]


def _as_array(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim > 3:
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
        return _add(self, _coerce(other))

    def __sub__(self, other):
        return _sub(self, _coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return _scale(self, float(other))
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return _scale(self, -1.0)


def tensor(values) -> Tensor:
    """Wrap values as a constant (graph-free) tensor."""
    return Tensor(_as_array(values))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else tensor(value)


_coerce = as_tensor


class _Node:
    __slots__ = ("kind", "parents", "backward_fn")

    def __init__(self, kind: str, parents: tuple[int, ...], backward_fn):
        self.kind = kind
        self.parents = parents
        self.backward_fn = backward_fn


class Graph:
    """Append-only tape of operations; parents always precede children."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._param_ids: list[int] = []
        self._param_shapes: dict[int, tuple[int, ...]] = {}
        self._consumed = False

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def param_ids(self) -> list[int]:
        """Node ids of differentiable leaves, in creation order."""
        return list(self._param_ids)

    def param(self, values) -> Tensor:
        """Register a differentiable leaf holding ``values``."""
        node_id = self._record("param", (), None)
        self._param_ids.append(node_id)
        t = Tensor(_as_array(values), self, node_id)
        self._param_shapes[node_id] = t.data.shape
        return t

    def _record(self, kind: str, parents: tuple[int, ...], backward_fn) -> int:
        self._nodes.append(_Node(kind, parents, backward_fn))
        return len(self._nodes) - 1

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Propagate d(loss)/d(node) through the tape, reverse order.

        ``loss`` holds one scalar per run, and each is seeded with one.
        Returns gradients keyed by node_id for every node that received one;
        every parameter leaf is present (zeros if the loss never used it).
        Runs at most once per graph, and drops the tape's closures when done.
        """
        if loss.graph is not self or loss.node_id is None:
            raise ContractError("loss tensor was not produced on this graph")
        if loss.data.shape[-2:] != (1, 1):
            raise ContractError(f"backward needs one scalar per run, got shape {loss.data.shape}")
        if self._consumed:
            raise ContractError("backward already ran on this graph; rebuild the graph")
        self._consumed = True

        grads: list[np.ndarray | None] = [None] * len(self._nodes)
        grads[loss.node_id] = np.ones(loss.data.shape)
        for node_id in range(loss.node_id, -1, -1):
            upstream = grads[node_id]
            node = self._nodes[node_id]
            if upstream is None or node.backward_fn is None:
                continue
            for parent_id, contribution in zip(node.parents, node.backward_fn(upstream)):
                if contribution is None:
                    continue
                if grads[parent_id] is None:
                    grads[parent_id] = contribution.copy()
                else:
                    grads[parent_id] += contribution
        # Closures hold tensors, which hold this graph: without this, every
        # step's tape would wait for the cyclic garbage collector.
        for node in self._nodes:
            node.backward_fn = None
        out = {i: g for i, g in enumerate(grads) if g is not None}
        for pid in self._param_ids:
            out.setdefault(pid, np.zeros(self._param_shapes[pid]))
        return out


def _graph_of(*tensors: Tensor) -> Graph | None:
    graph = None
    for t in tensors:
        if t.graph is None:
            continue
        if graph is None:
            graph = t.graph
        elif graph is not t.graph:
            raise ContractError("operands belong to different graphs")
    return graph


def emit(kind: str, inputs: Sequence[Tensor], value: np.ndarray,
         backward_fn: Callable | None) -> Tensor:
    """Record one op: its ``value`` and ``backward_fn(upstream)``, which
    returns one gradient per graph-attached input, in input order and of
    that input's shape. With no attached input the result is a constant and
    ``backward_fn`` never runs.
    """
    graph = _graph_of(*inputs)
    if graph is None:
        return Tensor(value)
    parents = tuple(t.node_id for t in inputs if t.graph is graph)
    node_id = graph._record(kind, parents, backward_fn)
    return Tensor(value, graph, node_id)


def _add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        value = a.data + b.data

        def back(up):
            return tuple(up for t in (a, b) if t.graph is not None)

    elif b.shape == a.shape[:-2] + (1, a.shape[-1]):
        value = a.data + b.data  # row-broadcast bias

        def back(up):
            parts = []
            if a.graph is not None:
                parts.append(up)
            if b.graph is not None:
                parts.append(up.sum(axis=-2, keepdims=True))
            return tuple(parts)

    elif a.shape == b.shape[:-2] + (1, b.shape[-1]):
        return _add(b, a)
    else:
        raise ShapeError(f"cannot add shapes {a.shape} and {b.shape}")
    return emit("add", (a, b), value, back)


def _sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"cannot subtract shapes {a.shape} and {b.shape}")

    def back(up):
        parts = []
        if a.graph is not None:
            parts.append(up)
        if b.graph is not None:
            parts.append(-up)
        return tuple(parts)

    return emit("sub", (a, b), a.data - b.data, back)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")

    def back(up):
        parts = []
        if a.graph is not None:
            parts.append(up * b.data)
        if b.graph is not None:
            parts.append(up * a.data)
        return tuple(parts)

    return emit("mul", (a, b), a.data * b.data, back)


def _scale(a: Tensor, c: float) -> Tensor:
    def back(up):
        return (up * c,)

    return emit("scale", (a,), a.data * c, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, or run by run of two equal-length
    stacks; inner dimensions must agree."""
    a, b = _coerce(a), _coerce(b)
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shapes do not match: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def back(up):
        parts = []
        if a.graph is not None:
            parts.append(up @ b_data.swapaxes(-1, -2))
        if b.graph is not None:
            parts.append(a_data.swapaxes(-1, -2) @ up)
        return tuple(parts)

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
    x = _coerce(x)
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
    logits = _coerce(logits)
    if logits.shape[-1] < 2:
        raise ShapeError("log_softmax needs at least 2 columns")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    value = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(value)

    def back(up):
        return (up - probs * up.sum(axis=-1, keepdims=True),)

    return emit("log_softmax", (logits,), value, back)


def sum_all(x: Tensor) -> Tensor:
    """Sum every entry of each matrix to a 1x1 scalar, one per run of a stack."""
    x = _coerce(x)
    shape = x.shape

    def back(up):
        return (np.broadcast_to(up, shape),)

    return emit("sum_all", (x,), x.data.sum(axis=(-2, -1), keepdims=True), back)


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Run the backward pass of the graph that produced ``loss``."""
    if loss.graph is None:
        raise ContractError("loss is a constant; nothing to differentiate")
    return loss.graph.backward(loss)


def grad_check(f, params: Sequence[np.ndarray], step: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f(graph, tensors) -> scalar Tensor`` must be deterministic in the
    parameter values. Returns the max over all coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    """
    arrays = [np.asarray(p, dtype=np.float64) for p in params]

    g = Graph()
    leaves = [g.param(a) for a in arrays]
    loss = f(g, leaves)
    grads = g.backward(loss)
    analytic = [grads[leaf.node_id] for leaf in leaves]

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
