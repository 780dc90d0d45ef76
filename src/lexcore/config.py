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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .alphabets import AlphabetSpec, alphabet_preset
from .errors import ConfigInvalid

CONFIG_VERSION = 1


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
        return {
            "version": CONFIG_VERSION,
            "language": self.language,
            "alphabet": {
                "language": self.alphabet.language,
                "letters": "".join(sorted(self.alphabet.letters)),
                "apostrophe_allowed": self.alphabet.apostrophe_allowed,
                "max_apostrophes": self.alphabet.max_apostrophes,
            },
            "year_start": self.year_start,
            "year_end": self.year_end,
            "fold_case": self.fold_case,
        }


def _parse_alphabet(value: Any) -> AlphabetSpec:
    if isinstance(value, str):
        return alphabet_preset(value)
    if isinstance(value, dict):
        try:
            letters = frozenset(value["letters"])
        except KeyError:
            raise ConfigInvalid("custom alphabet requires a 'letters' string") from None
        return AlphabetSpec(
            language=value.get("language", "custom"),
            letters=letters,
            apostrophe_allowed=bool(value.get("apostrophe_allowed", True)),
            max_apostrophes=int(value.get("max_apostrophes", 1)),
        )
    raise ConfigInvalid(f"alphabet must be a preset name or object, got {type(value).__name__}")


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    version = data.get("version")
    if version != CONFIG_VERSION:
        raise ConfigInvalid(f"unsupported config version {version!r} (expected {CONFIG_VERSION})")
    missing = [k for k in ("language", "alphabet", "year_start", "year_end") if k not in data]
    if missing:
        raise ConfigInvalid(f"config missing keys: {', '.join(missing)}")
    try:
        year_start = int(data["year_start"])
        year_end = int(data["year_end"])
    except (TypeError, ValueError):
        raise ConfigInvalid("year_start/year_end must be integers") from None
    return RunConfig(
        language=str(data["language"]),
        alphabet=_parse_alphabet(data["alphabet"]),
        year_start=year_start,
        year_end=year_end,
        fold_case=bool(data.get("fold_case", False)),
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid("config root must be a JSON object")
    return config_from_dict(data)


def params_hash(params: dict[str, Any]) -> str:
    """Stable hash of the fully-resolved parameters of a run."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
