"""Multilayer perceptron exposing both its latent features and class logits.

The latent vector ``z`` is the activation entering the final affine layer
(the input itself if there are no hidden layers). Feature-alignment
penalties and the representation diagnostics attach to ``z``; the
posterior-alignment loss attaches to ``log_softmax(logits)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, ShapeError

CHECKPOINT_MAGIC = "HIRNET-CKPT-1"


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths: input dim, hidden dims..., class count. Hidden layers use relu."""

    layer_sizes: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigError("layer_sizes needs at least input dim and class count")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes must be positive, got {sizes}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class ModelParams:
    """Per-layer weight matrices and bias rows (bias as 1 x width)."""

    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def arrays(self) -> list[np.ndarray]:
        """Flat parameter list in the canonical W0, b0, W1, b1, ... order."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(spec: MlpSpec) -> ModelParams:
    """Glorot-uniform weights, U(-a, a) with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(spec.seed)
    params = ModelParams()
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        params.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        params.biases.append(np.zeros((1, fan_out)))
    return params


def forward(params: ModelParams, x, graph: ad.Graph | None = None) -> tuple[ad.Tensor, ad.Tensor]:
    """Run the network on a batch of row vectors; returns (z, logits).

    With a graph, each parameter is bound as a differentiable leaf in
    ``params.arrays()`` order, so ``graph.param_ids`` lines up with it.
    Without a graph the pass is a plain value computation.
    """
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.ndim != 2 or x_arr.shape[1] != params.weights[0].shape[0]:
        raise ShapeError(
            f"input shape {x_arr.shape} does not match input dim {params.weights[0].shape[0]}"
        )
    if graph is None:
        bound = [(ad.tensor(w), ad.tensor(b)) for w, b in zip(params.weights, params.biases)]
    else:
        bound = []
        for w, b in zip(params.weights, params.biases):
            bound.append((graph.param(w), graph.param(b)))

    h = ad.tensor(x_arr)
    z = h
    for i, (w, b) in enumerate(bound):
        pre = ad.matmul(h, w) + b
        if i < len(bound) - 1:
            h = ad.relu(pre)
            z = h
        else:
            logits = pre
    return z, logits


def predict_logits(params: ModelParams, x) -> np.ndarray:
    _, logits = forward(params, x)
    return logits.data


def predict(params: ModelParams, x) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    return np.argmax(predict_logits(params, x), axis=1)


def log_posteriors(params: ModelParams, x) -> np.ndarray:
    _, logits = forward(params, x)
    return ad.log_softmax(logits).data


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a versioned text checkpoint: shapes then row-major values."""
    lines = [CHECKPOINT_MAGIC, "layer_sizes " + " ".join(str(s) for s in params.layer_sizes)]
    for w, b in zip(params.weights, params.biases):
        lines.append(f"W {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(f"{v:.17g}" for v in row) for row in w)
        lines.append(f"b 1 {b.shape[1]}")
        lines.append(" ".join(f"{v:.17g}" for v in b[0]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint; a missing line or non-numeric value is a ContractError."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ContractError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    params = ModelParams()
    try:
        sizes = [int(tok) for tok in lines[1].split()[1:]]
        cursor = 2
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            head = lines[cursor].split()
            if head[0] != "W" or (int(head[1]), int(head[2])) != (fan_in, fan_out):
                raise ContractError(f"checkpoint layer header mismatch at line {cursor + 1}")
            cursor += 1
            w = np.array([[float(v) for v in lines[cursor + r].split()] for r in range(fan_in)])
            cursor += fan_in
            if not lines[cursor].startswith("b "):
                raise ContractError(f"checkpoint bias header missing at line {cursor + 1}")
            cursor += 1
            b = np.array([[float(v) for v in lines[cursor].split()]])
            cursor += 1
            if w.shape != (fan_in, fan_out) or b.shape != (1, fan_out):
                raise ContractError("checkpoint value block has wrong shape")
            params.weights.append(w)
            params.biases.append(b)
    except (IndexError, ValueError) as exc:
        raise ContractError(f"truncated or malformed checkpoint {path}: {exc}") from exc
    if not params.weights:
        raise ContractError(f"checkpoint has no layers: {path}")
    return params
