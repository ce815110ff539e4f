"""Exception types shared across the package, the JSON file reader that
reports a malformed config or schema file as a ConfigError (a malformed
checkpoint manifest as a DataError), and the type check of dataclass fields.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

import json
import math
import typing
from pathlib import Path


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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8 (RFC 8259)
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{kind} file {path} does not hold a JSON object")
    return raw


def json_object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def string_list(value, key: str):
    """``value`` if it is a list of strings; a ConfigError naming ``key`` otherwise."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key!r} must be a list of strings, got {value!r}")
    return value


def check_fields(cls: type, values, section: str) -> dict:
    """``values`` if it is an object of dataclass ``cls``'s fields, each of its type and every
    float finite; else a ConfigError."""
    hints = typing.get_type_hints(cls)
    if set(json_object(values, section)) - set(hints):
        raise ConfigError(f"unknown keys in {section!r} section: {sorted(set(values) - set(hints))}")
    for key, value in values.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)  # int | None -> (int, NoneType)
        accepted = kinds + (int,) * (float in kinds)  # a float field also takes an integer
        if not (bool in kinds if isinstance(value, bool) else isinstance(value, accepted)):  # True is an int to Python
            expected = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ConfigError(f"'{section}.{key}' must be {expected}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # Python's json reads NaN and Infinity
            raise ConfigError(f"'{section}.{key}' must be a finite number, got {value!r}")
    return values
