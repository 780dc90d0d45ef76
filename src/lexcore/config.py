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

Absent optional keys take the dataclass defaults, and booleans must be
JSON ``true`` or ``false``.  A value that cannot be read as its key's
kind is a :class:`ConfigInvalid` naming the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

from .alphabets import AlphabetSpec, alphabet_preset
from .errors import ConfigInvalid

CONFIG_VERSION = 1

T = TypeVar("T")


@dataclass(frozen=True)
class RunConfig:
    language: str
    alphabet: AlphabetSpec
    year_start: int
    year_end: int
    fold_case: bool = False

    def __post_init__(self) -> None:
        if self.year_start > self.year_end:
            raise ConfigInvalid(
                f"year range inverted: {self.year_start}..{self.year_end}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The config as JSON values, letters as one sorted string; :func:`config_from_dict` reads it back."""
        alphabet = {f.name: getattr(self.alphabet, f.name) for f in fields(self.alphabet)}
        alphabet["letters"] = "".join(sorted(self.alphabet.letters))
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"version": CONFIG_VERSION, **values, "alphabet": alphabet}


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


def _letters(value: Any) -> frozenset[str]:
    """A custom alphabet's letters: a string, or a list of strings."""
    if isinstance(value, list):
        value = "".join(map(json_str, value))
    return frozenset(json_str(value))


def from_json(cls: type[T], data: dict[str, Any], kinds: Mapping[str, Callable[[Any], Any]], what: str) -> T:
    """The dataclass ``cls`` built from the keys of ``kinds`` that the JSON object ``data`` holds.

    Each kind reads one key's value.  It returns None where the dataclass
    default stands, so only the dataclass lists defaults.  A value that a
    kind cannot read is a :class:`ConfigInvalid` naming its key.
    """
    required = (f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)
    missing = [name for name in required if name not in data]
    if missing:
        raise ConfigInvalid(f"{what} missing keys: {', '.join(missing)}")
    values = {}
    for key in (k for k in kinds if k in data):
        try:
            value = kinds[key](data[key])
        except (TypeError, ValueError, LookupError, OverflowError):
            raise ConfigInvalid(f"{what}: {key!r} cannot be {json.dumps(data[key], default=repr)}") from None
        if value is not None:
            values[key] = value
    return cls(**values)


# How each key of a custom alphabet is read.
_ALPHABET_KINDS = {"language": json_str, "letters": _letters, "apostrophe_allowed": json_bool, "max_apostrophes": int}


def _parse_alphabet(value: Any) -> AlphabetSpec:
    if isinstance(value, str):
        return alphabet_preset(value)
    if isinstance(value, dict):
        return from_json(AlphabetSpec, {"language": "custom", **value}, _ALPHABET_KINDS, "custom alphabet")
    raise ConfigInvalid(f"alphabet must be a preset name or object, got {type(value).__name__}")


_RUN_KINDS = {"language": json_str, "alphabet": _parse_alphabet, "year_start": int, "year_end": int,
              "fold_case": json_bool}


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    """A RunConfig from parsed JSON; absent keys take the dataclass defaults."""
    version = data.get("version")
    if version != CONFIG_VERSION:
        raise ConfigInvalid(f"unsupported config version {version!r} (expected {CONFIG_VERSION})")
    return from_json(RunConfig, data, _RUN_KINDS, "config")


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(read_json_object(path))


def params_hash(params: dict[str, Any]) -> str:
    """Stable hash of the fully-resolved parameters of a run."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
