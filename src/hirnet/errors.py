"""Shared exception types, the checks that raise them on config values, and
the one JSON codec that every JSON file goes through: :class:`JsonRecord` and
:func:`write_json` write configs, reports and summaries as strict ``json.dumps(data,
indent=2, sort_keys=True) + "\n"`` bytes, no NaN or Infinity; :class:`JsonConfig` reads configs."""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers
import sys


class ShapeError(ValueError):
    """Array dimensions do not satisfy an operation's requirements."""


class ContractError(RuntimeError):
    """An operation was called in a way its contract forbids."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
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


def check_ints(name: str, values, minimum: int) -> tuple[int, ...]:
    """A list or tuple of integers, each checked by :func:`check_int`."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return tuple(check_int(name, v, minimum) for v in values)


def check_bool(name: str, value) -> bool:
    """``value`` if it is ``True`` or ``False``; JSON ``"no"`` or ``1`` is not a flag."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _fields(record) -> dict:
    """A dataclass's fields by name, less those whose metadata says ``json=False``."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)
            if f.metadata.get("json", True)}


def _plain(value):
    """``value`` as JSON data: a dataclass as a dict of its fields, a list or tuple as a list."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {name: _plain(v) for name, v in _fields(value).items()}
    return value


def _json_text(value, pad: str) -> str:
    """``json.dumps(_plain(value), indent=2, sort_keys=True, allow_nan=False)``, lines after
    the first indented by ``pad``. Exact, finite floats in a list, or in its rows, are joined
    from ``float.__repr__`` as json joins them; a dataclass, dict, list or tuple is walked;
    json.dumps gives the rest."""
    if dataclasses.is_dataclass(value):
        value = _fields(value)
    if not isinstance(value, (list, tuple, dict)):
        return json.dumps(value, allow_nan=False)  # a scalar, or a value json cannot encode
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(value, dict) or not value:
        text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
        return text.replace("\n", "\n" + pad)
    rows = value if all(type(v) is list and v for v in value) else [value]
    floats = set(map(type, itertools.chain(*rows))) == {float}
    if not (floats and abs(sum(map(sum, rows))) <= sys.float_info.max):  # NaN or inf fails it
        return "[\n" + inner + f",\n{inner}".join(_json_text(v, inner) for v in value) + f"\n{pad}]"
    deep = inner + "  " * (rows is value)
    text = f"\n{inner}],\n{inner}[\n{deep}".join(f",\n{deep}".join(map(float.__repr__, row))
                                              for row in rows)
    return f"[\n{inner}" + (f"[\n{deep}{text}\n{inner}]" if rows is value else text) + f"\n{pad}]"


def write_json(data, path) -> None:
    """``json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\\n"`` bytes, a record as
    its ``to_dict()``; NaN, infinity or a value json cannot encode raises before the file opens."""
    write_lines([_json_text(data, "")], path)


def write_lines(lines, path) -> None:
    """Write ``lines``, each ended by a newline, in one call: every file hirnet writes."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
