"""Exception types shared across the package, and the one reader of JSON records (run
configs, affect and label schema files, checkpoint manifests): ``read_record`` builds a
dataclass from a JSON object by its fields' type hints, nested records included, and names
each offender, an unknown or missing key among them, by its dotted path (``'train.epochs'``,
``'coords.joy'``) or its section (``'vocab'``). Range and cross-field rules stay in each
record's ``__post_init__``. The CLI maps the errors onto exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

import dataclasses
import functools
import json
import sys
import types
import typing
from pathlib import Path

_type_hints = functools.cache(lambda cls: types.MappingProxyType(typing.get_type_hints(cls)))  # per class, read-only


class ConfigError(ValueError):
    """Invalid configuration, schema, or hyperparameter value."""


class DataError(ValueError):
    """Corpus, label, or input-contract problem."""


class SchemaError(DataError):
    """Lookup of an emotion or category the schema does not define."""


class ShapeError(ValueError):
    """Tensor shape or dimension mismatch."""


class NumericError(FloatingPointError):
    """Non-finite values, divergence, or failed numeric contract."""


class DeterminismError(NumericError):
    """A function expected to be deterministic produced differing outputs."""


def read_json_object(path: str | Path, kind: str, error: type[Exception] = ConfigError) -> dict:
    """The JSON object in a ``kind`` file (``config``, ``schema``); raises ``error`` otherwise."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8 (RFC 8259), not JSON, or an integer past Python's digit limit
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{kind} file {path} does not hold a JSON object")
    return raw


def read_record(cls: type, values: dict, section: str = ""):
    """Dataclass ``cls`` built from ``values`` read by its init fields' type hints (a list as a tuple, an object
    as a nested record; absent fields take their defaults), else a ConfigError naming the offender's dotted path."""
    hints, fields = _type_hints(cls), [f for f in dataclasses.fields(cls) if f.init]
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
    for problem, keys in ("unknown", set(values) - {f.name for f in fields}), ("missing", required - set(values)):
        if keys:
            raise ConfigError(f"{problem} keys in {section or 'top-level'!r} section: {sorted(keys)}")
    read = {key: _read(hints[key], value, f"{section}.{key}" if section else key) for key, value in values.items()}
    return cls(**read)


def _describe(kind) -> str:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is tuple:
        return f"a list of {_describe(args[0])}" if args[-1] is Ellipsis else f"[{', '.join(map(_describe, args))}]"
    if origin is dict:
        return f"an object of {_describe(args[1])}"
    if origin is types.UnionType:
        return " or ".join(map(_describe, args))
    return "a JSON object" if dataclasses.is_dataclass(kind) else "null" if kind is type(None) else kind.__name__


def _read(kind, value, key: str, expected: str = ""):
    """``value`` read as type ``kind``, else a ConfigError naming ``key``, as a list's items name the list."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if kind is object:  # read later by a record of its own
        return value
    if origin is types.UnionType:  # X | None
        return None if value is None else _read(args[0], value, key, _describe(kind))
    if dataclasses.is_dataclass(kind) and isinstance(value, dict):
        return read_record(kind, value, key)
    if origin is dict and isinstance(value, dict):
        return {k: _read(args[1], v, f"{key}.{k}") for k, v in value.items()}
    variadic = origin is tuple and args[-1] is Ellipsis  # from a JSON list, or a record's tuple in memory
    if origin is tuple and isinstance(value, (list, tuple)) and (variadic or len(value) == len(args)):
        return tuple(_read(k, v, key) for k, v in zip(args[:1] * len(value) if variadic else args, value))
    if kind in (int, float, str, bool) and isinstance(value, bool) == (kind is bool):  # True is an int to Python
        number = kind is float and isinstance(value, (int, float))  # a float field also takes an integer
        if number and not abs(value) <= sys.float_info.max:  # NaN, Infinity (Python's json reads both), or past a float
            raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
        if number or isinstance(value, kind):
            return value
    raise ConfigError(f"{key!r} must be {expected or _describe(kind)}, got {value!r}")
