"""Sums and a scale for tests, each one tape node through ``ad.emit`` that
acts run by run on a stack: the tape's own ops are only those a network is
built from, so a test takes its scalar loss or constant factor here."""

import numpy as np

from hirnet import autodiff as ad


def total(x: ad.Tensor) -> ad.Tensor:
    """Every entry of each matrix summed; its gradient is a read-only
    broadcast of the upstream."""
    return ad.emit("total", (x,), x.data.sum(axis=(-2, -1), keepdims=True),
                   lambda up: (np.broadcast_to(up, x.shape),))


def square_sum(x: ad.Tensor) -> ad.Tensor:
    """The squares of each matrix's entries, summed."""
    return ad.emit("square_sum", (x,), (x.data * x.data).sum(axis=(-2, -1), keepdims=True),
                   lambda up: (2.0 * up * x.data,))


def scale(x: ad.Tensor, c: float) -> ad.Tensor:
    """``x * c``, with the gradient ``upstream * c``."""
    return ad.emit("scale", (x,), x.data * c, lambda up: (up * c,))
