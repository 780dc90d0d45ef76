"""Per-language letter inventories used by the lexical token filter."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigInvalid

_ASCII = "abcdefghijklmnopqrstuvwxyz"


def _letters(lower_extra: str = "") -> frozenset[str]:
    lower = _ASCII + lower_extra
    return frozenset(lower + lower.upper())


def _json_letters(value: object) -> frozenset[str]:
    """A custom alphabet's letters from JSON: a string, or a list of strings; anything else is a TypeError."""
    return frozenset("".join(value if isinstance(value, list) else [value]))


@dataclass(frozen=True)
class AlphabetSpec:
    """Letter set that defines which tokens count as lexical words.

    A word is lexical when every character is one of ``letters`` or an
    apostrophe (at most ``max_apostrophes`` of them, and only when
    ``apostrophe_allowed``), and at least one character is a letter.
    """

    language: str
    letters: frozenset[str] = field(repr=False, metadata={"json": _json_letters})
    apostrophe_allowed: bool = True
    max_apostrophes: int = 1

    def __post_init__(self) -> None:
        if not self.letters:
            raise ConfigInvalid(f"alphabet {self.language!r}: empty letter set")
        bad = sorted(ch for ch in self.letters if not ch.isalpha())
        if bad:
            raise ConfigInvalid(
                f"alphabet {self.language!r}: non-letter characters {bad!r}"
            )
        if self.max_apostrophes < 0:
            raise ConfigInvalid("max_apostrophes must be >= 0")


_RUSSIAN_LOWER = "абвгдежзийклмнопрстуфхцчшщъыьэюяё"

PRESETS: dict[str, AlphabetSpec] = {
    "english": AlphabetSpec("english", _letters()),
    "french": AlphabetSpec("french", _letters("àâæçéèêëîïôœùûüÿ")),
    "german": AlphabetSpec("german", _letters("äöüß")),
    "italian": AlphabetSpec("italian", _letters("àèéìíîòóùú")),
    "spanish": AlphabetSpec("spanish", _letters("áéíñóúü")),
    "russian": AlphabetSpec(
        "russian", frozenset(_RUSSIAN_LOWER + _RUSSIAN_LOWER.upper())
    ),
}


def alphabet_preset(name: str) -> AlphabetSpec:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigInvalid(f"unknown alphabet preset {name!r} (known: {known})") from None
