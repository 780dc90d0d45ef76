"""Run-config parsing and alphabet preset validation."""

from __future__ import annotations

import json

import pytest

from lexcore.alphabets import PRESETS, AlphabetSpec, alphabet_preset
from lexcore.config import RunConfig, config_from_dict, load_config, params_hash
from lexcore.errors import ConfigInvalid


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
