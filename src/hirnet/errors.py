"""Shared exception types and the checks that raise them on config values."""

from __future__ import annotations

import math
import numbers


class ShapeError(ValueError):
    """Array dimensions do not satisfy an operation's requirements."""


class ContractError(RuntimeError):
    """An operation was called in a way its contract forbids."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


def check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value, minimum: float | None = None) -> float:
    """``value`` as a float if it is a finite number (not a bool) of at least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return float(value)


def check_ints(name: str, values, minimum: int | None = None) -> tuple[int, ...]:
    """A list or tuple of integers, each checked by :func:`check_int`."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return tuple(check_int(name, v, minimum) for v in values)
