"""Adam optimizer with bias correction.

Update rule per step: m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with the usual
1/(1-b^t) bias corrections. Parameters are updated in place. The update
is elementwise, so parameters stacked with one matrix per run on a leading
axis step every run at once, each exactly as it would step alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


class NonFiniteGradient(ContractError):
    """Some gradients are not finite. ``messages`` maps each run with one
    (its index on the leading axis, 0 without one) to a message naming its
    first such parameter index."""

    def __init__(self, first_index: dict[int, int]):
        self.messages = {run: f"non-finite gradient at parameter index {i}"
                         for run, i in first_index.items()}
        super().__init__("; ".join(self.messages.values()))


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def init_adam(params: list[np.ndarray], lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(
        lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> tuple[list[np.ndarray], AdamState]:
    """Apply one update. Mutates ``params`` and ``state``; returns both.

    Raises :class:`NonFiniteGradient`, naming every run with a non-finite
    gradient, before it changes anything.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ContractError("parameter, gradient and moment counts must match")
    first_index: dict[int, int] = {}
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ContractError(f"grad shape {g.shape} != param shape {p.shape} at index {i}")
        finite = np.isfinite(g)
        if not finite.all():
            for run in np.flatnonzero(~finite.all(axis=(-2, -1))):
                first_index.setdefault(int(run), i)
    if first_index:
        raise NonFiniteGradient(first_index)
    state.t += 1
    correct1 = 1.0 - state.beta1 ** state.t
    correct2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + state.eps)
    return params, state
