"""Shared exception types, the checks that raise them on config values, and
the one JSON codec that every JSON file goes through: :class:`JsonRecord`
and :func:`write_json` write configs, reports and summaries, and
:class:`JsonConfig` reads configs back."""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys


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
            or not abs(value) <= sys.float_info.max):  # NaN, inf, or an int too big for a float
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return float(value)


def check_ints(name: str, values, minimum: int | None = None) -> tuple[int, ...]:
    """A list or tuple of integers, each checked by :func:`check_int`."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return tuple(check_int(name, v, minimum) for v in values)


def check_bool(name: str, value) -> bool:
    """``value`` if it is ``True`` or ``False``; JSON ``"no"`` or ``1`` is not a flag."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _plain(value):
    """``value`` as JSON data. A dataclass becomes an object of its fields,
    less those whose metadata says ``json=False``; a list or tuple becomes a
    new list. A list of numbers, or of lists of numbers, as told by its first
    item, is copied as it is, not walked item by item: traces hold thousands
    of floats."""
    if isinstance(value, (list, tuple)):
        head = value[0] if value else None
        if isinstance(head, (int, float)):
            return list(value)
        if isinstance(head, list) and head and isinstance(head[0], (int, float)):
            return [list(row) for row in value]
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)
                if f.metadata.get("json", True)}
    return value


def write_json(data, path) -> None:
    """Sorted keys, two-space indent and a trailing newline: every JSON file hirnet writes."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


class JsonRecord:
    """Base of the dataclasses written as JSON: ``to_dict`` through :func:`_plain`."""

    def to_dict(self) -> dict:
        return _plain(self)


class JsonConfig(JsonRecord):
    """Base of the config dataclasses: their one JSON codec, driven by the fields.

    A field whose ``default_factory`` is itself a ``JsonConfig`` is a nested
    config and is read and written as a nested object. Value checks stay in
    each dataclass's ``__post_init__``; the codec only checks the shape.
    """

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {raw!r}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(fields)
        if unknown:
            raise ConfigError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        kwargs = {}
        for name, value in raw.items():
            nested = fields[name].default_factory
            if isinstance(nested, type) and issubclass(nested, JsonConfig):
                value = nested.from_dict(value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def read(cls, path):
        """Load a config file; an unreadable or malformed one is a ``ConfigError``."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {cls.__name__} file {path}: {exc.strerror}") from exc
        except ValueError as exc:
            raise ConfigError(f"{cls.__name__} file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)
