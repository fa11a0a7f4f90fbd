"""Adam optimizer with bias correction.

Update rule per step: m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2,
theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) with the usual
1/(1-b^t) bias corrections and constants (BETA1, BETA2, EPS). Parameters
are updated in place. The update is elementwise, so parameters stacked with
one matrix per run on a leading axis step every run at once, each exactly
as it would step alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class NonFiniteGradient(ContractError):
    """A gradient is not finite; the message names the first such parameter index."""


@dataclass
class AdamState:
    lr: float
    t: int
    m: list[np.ndarray]
    v: list[np.ndarray]


def init_adam(params: list[np.ndarray], lr: float = 1e-3) -> AdamState:
    return AdamState(lr, 0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> tuple[list[np.ndarray], AdamState]:
    """Apply one update. Mutates ``params`` and ``state``; returns both.

    Raises :class:`NonFiniteGradient`, naming the first array with a
    non-finite gradient, before it changes anything.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ContractError("parameter, gradient and moment counts must match")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.shape != p.shape:
            raise ContractError(f"grad shape {g.shape} != param shape {p.shape} at index {i}")
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"non-finite gradient at parameter index {i}")
    state.t += 1
    correct1 = 1.0 - BETA1 ** state.t
    correct2 = 1.0 - BETA2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p -= state.lr * (m / correct1) / (np.sqrt(v / correct2) + EPS)
    return params, state
