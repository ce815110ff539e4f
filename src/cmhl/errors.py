"""Exception types shared across the package, and the JSON file reader that
reports a malformed config or schema file as a ConfigError (a malformed
checkpoint manifest as a DataError).

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""

import json
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
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise error(f"{kind} file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{kind} file {path} does not hold a JSON object")
    return raw
