"""Run configuration: language, alphabet, year range, case handling.

The config file is versioned JSON::

    {
      "version": 1,
      "language": "english",
      "alphabet": "english",            // preset name, or {"letters": "...", ...}
      "year_start": 1800,
      "year_end": 1999,
      "fold_case": false
    }

A config dataclass is its own JSON schema: :func:`from_json` reads the
keys that are its fields and :func:`lexcore.serialize.json_fields`
writes them.  A field is read by the reader its ``metadata["json"]``
names, else by its annotated type.  Absent optional keys take the
dataclass defaults.  Numbers must be JSON numbers (an integer field
takes a float only with no fractional part), and booleans must be JSON
``true`` or ``false``.  A key that is no field, or a value that cannot
be read as its field's kind, is a :class:`ConfigInvalid` naming the
keys.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, TypeVar

from .alphabets import AlphabetSpec, alphabet_preset
from .errors import ConfigInvalid
from .serialize import json_fields

CONFIG_VERSION = 1

T = TypeVar("T")


def read_json_object(path: str | Path) -> dict[str, Any]:
    """The JSON object in the file at ``path``; anything else is a :class:`ConfigInvalid` naming the file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{path}: root must be a JSON object, got {type(data).__name__}")
    return data


def json_bool(value: Any) -> bool:
    """A JSON ``true`` or ``false``; any other value, such as ``"no"`` or 1, is a TypeError."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def json_str(value: Any) -> str:
    """A JSON string; any other value, such as null, 5 or ``[1]``, is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def json_int(value: Any) -> int:
    """A JSON integer, or a number with no fractional part such as 2001.0; 1800.9, ``"1999"`` or true is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise TypeError(value)
    return int(value)


def json_float(value: Any) -> float:
    """A finite JSON number, as a float; ``"0.5"``, true, NaN or Infinity is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(value)
    return float(value)


# How a field that names no reader is read, by the text of its annotation (annotations are postponed).
_KINDS = {"int": json_int, "float": json_float, "bool": json_bool, "str": json_str}


def field_reader(f: Field) -> Callable[[Any], Any]:
    """How the JSON value of field ``f`` is read; a field with no reader and no kind is a KeyError."""
    return f.metadata.get("json") or _KINDS[f.type]


def from_json(cls: type[T], data: dict[str, Any], what: str) -> T:
    """The dataclass ``cls`` built from the JSON object ``data``, whose keys are its fields.

    Each field's reader returns None where the dataclass default stands,
    so only the dataclass lists defaults.  A key that is no field, a
    missing required field, or a value its reader cannot read is a
    :class:`ConfigInvalid` naming the keys.
    """
    unknown = sorted(data.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigInvalid(f"{what}: unknown keys: {', '.join(map(repr, unknown))}")
    required = (f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigInvalid(f"{what} missing keys: {', '.join(missing)}")
    values = {}
    for f in (f for f in fields(cls) if f.name in data):
        read = field_reader(f)
        try:
            value = read(data[f.name])
        except (TypeError, ValueError, LookupError, OverflowError):
            raise ConfigInvalid(f"{what}: {f.name!r} cannot be {json.dumps(data[f.name], default=repr)}") from None
        if value is not None:
            values[f.name] = value
    return cls(**values)


def _json_alphabet(value: Any) -> AlphabetSpec:
    """A preset name, or a custom alphabet's object (its language defaults to "custom")."""
    if isinstance(value, str):
        return alphabet_preset(value)
    if isinstance(value, dict):
        return from_json(AlphabetSpec, {"language": "custom", **value}, "custom alphabet")
    raise ConfigInvalid(f"alphabet must be a preset name or object, got {type(value).__name__}")


@dataclass(frozen=True)
class RunConfig:
    language: str
    alphabet: AlphabetSpec = field(metadata={"json": _json_alphabet})
    year_start: int
    year_end: int
    fold_case: bool = False

    def __post_init__(self) -> None:
        if self.year_start > self.year_end:
            raise ConfigInvalid(f"year range inverted: {self.year_start}..{self.year_end}")

    def to_dict(self) -> dict[str, Any]:
        """The config as versioned JSON values; :func:`config_from_dict` reads it back."""
        return {"version": CONFIG_VERSION, **json_fields(self)}


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    """A RunConfig from parsed JSON: ``version`` is checked and stripped, then the fields are read."""
    version = data.get("version")
    if version != CONFIG_VERSION:
        raise ConfigInvalid(f"unsupported config version {version!r} (expected {CONFIG_VERSION})")
    return from_json(RunConfig, {k: v for k, v in data.items() if k != "version"}, "config")


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json_object(path))


def params_hash(params: dict[str, Any]) -> str:
    """Stable hash of the fully-resolved parameters of a run."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
