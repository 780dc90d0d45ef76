"""Run-config parsing and alphabet preset validation."""

from __future__ import annotations

import dataclasses
import json

import pytest

from lexcore.alphabets import PRESETS, AlphabetSpec, alphabet_preset
from lexcore.config import RunConfig, config_from_dict, field_reader, load_config, params_hash
from lexcore.errors import ConfigInvalid
from lexcore.postags import PosTag
from lexcore.synth import SynthConfig, synth_config_from_dict


class TestAlphabets:
    def test_presets_exist_for_six_languages(self):
        assert set(PRESETS) == {"english", "french", "german", "italian", "spanish", "russian"}

    def test_letters_are_letters(self):
        for spec in PRESETS.values():
            assert all(ch.isalpha() for ch in spec.letters)

    def test_unknown_preset(self):
        with pytest.raises(ConfigInvalid):
            alphabet_preset("klingon")

    def test_digits_rejected_in_custom_alphabet(self):
        with pytest.raises(ConfigInvalid):
            AlphabetSpec("custom", frozenset("abc1"))

    def test_empty_letters_rejected(self):
        with pytest.raises(ConfigInvalid):
            AlphabetSpec("custom", frozenset())


class TestRunConfig:
    BASE = {
        "version": 1,
        "language": "english",
        "alphabet": "english",
        "year_start": 1800,
        "year_end": 1999,
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.BASE), encoding="utf-8")
        config = load_config(path)
        assert config.language == "english"
        assert (config.year_start, config.year_end) == (1800, 1999)
        assert config.fold_case is False

    def test_custom_alphabet_object(self):
        data = dict(self.BASE, alphabet={"letters": "abc", "apostrophe_allowed": False})
        config = config_from_dict(data)
        assert config.alphabet.letters == frozenset("abc")
        assert not config.alphabet.apostrophe_allowed

    def test_wrong_version(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict(dict(self.BASE, version=99))

    def test_missing_keys(self):
        data = dict(self.BASE)
        del data["year_start"]
        with pytest.raises(ConfigInvalid):
            config_from_dict(data)

    def test_inverted_years(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict(dict(self.BASE, year_start=2000, year_end=1800))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            load_config(tmp_path / "missing.json")

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigInvalid):
            load_config(path)

    def test_to_dict_is_hash_stable(self):
        a = config_from_dict(dict(self.BASE))
        b = config_from_dict(dict(self.BASE))
        assert params_hash(a.to_dict()) == params_hash(b.to_dict())
        c = config_from_dict(dict(self.BASE, fold_case=True))
        assert params_hash(a.to_dict()) != params_hash(c.to_dict())


_RUN_REQUIRED = {"version": 1, "language": "english", "alphabet": "english", "year_start": 1800, "year_end": 1999}


@pytest.mark.parametrize(
    "cls, read, keys",
    [
        (RunConfig, config_from_dict, _RUN_REQUIRED),
        (AlphabetSpec, lambda alphabet: config_from_dict(dict(_RUN_REQUIRED, alphabet=alphabet)).alphabet, {"letters": "ab"}),
        (SynthConfig, synth_config_from_dict, {"vocabulary": 100, "year_start": 1800, "year_end": 1801, "tokens_per_year": 10_000}),
    ],
    ids=["RunConfig", "AlphabetSpec", "SynthConfig"],
)
def test_absent_keys_take_the_dataclass_defaults(cls, read, keys):
    config = read(keys)
    defaults = [f for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING]
    assert defaults
    for f in defaults:
        if f.name not in keys:
            default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
            assert getattr(config, f.name) == default, f.name


@pytest.mark.parametrize("cls", [RunConfig, AlphabetSpec, SynthConfig], ids=["RunConfig", "AlphabetSpec", "SynthConfig"])
def test_every_field_has_a_reader(cls):
    """Each field names a JSON reader or has a type that has one; a field with neither is a KeyError."""
    for f in dataclasses.fields(cls):
        assert callable(field_reader(f)), f.name


def test_numbers_are_read_by_their_field_kind():
    """An int field takes a JSON float with no fractional part, as an int; a float field takes a JSON integer, as a float."""
    config = synth_config_from_dict(
        {"vocabulary": 5000.0, "year_start": 1800, "year_end": 1999, "tokens_per_year": 10_000, "zipf_exponent": 2,
         "decay_group": [2001.0, 2400], "tag_weights": {"NOUN": 1}}
    )
    assert type(config.vocabulary) is int and config.decay_group == (2001, 2400)
    assert all(type(rank) is int for rank in config.decay_group)
    assert type(config.zipf_exponent) is float and type(config.tag_weights[PosTag.NOUN]) is float
    assert config.to_dict()["zipf_exponent"] == 2.0 and config.to_dict()["vocabulary"] == 5000
