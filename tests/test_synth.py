"""Generator determinism, planted-truth recovery and config validation."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexcore.cli import main
from lexcore.errors import ConfigInvalid
from lexcore.ingest import build_store
from lexcore.metrics import coverage_series, dropout_share
from lexcore.postags import PosTag
from lexcore.synth import PRESETS, SynthConfig, _format_rows, generate_corpus, synth_config_from_dict
from lexcore.windows import WindowSpec, aggregate_window, frequency_core

from conftest import english_config

TINY = SynthConfig(
    vocabulary=500,
    year_start=1900,
    year_end=1939,
    tokens_per_year=100_000,
    era_length=10,
    churn=0.2,
    churn_band=200,
    volumes_per_year=100,
    seed=99,
)


def test_same_seed_same_bytes(tmp_path, monkeypatch):
    for gzip_output in (False, True):
        # The two runs see clocks a day apart, so a gzip header holding
        # the time of writing would differ.
        monkeypatch.setattr("gzip.time", types.SimpleNamespace(time=lambda: 1_600_000_000.0))
        a = generate_corpus(TINY, tmp_path / f"a{gzip_output}", gzip_output=gzip_output)
        monkeypatch.setattr("gzip.time", types.SimpleNamespace(time=lambda: 1_600_086_400.0))
        b = generate_corpus(TINY, tmp_path / f"b{gzip_output}", gzip_output=gzip_output)
        for pa, pb in zip(a.shard_paths, b.shard_paths, strict=True):
            assert pa.read_bytes() == pb.read_bytes()
        assert a.truth_path.read_bytes() == b.truth_path.read_bytes()


_TAG_SUFFIXES = [""] + [f"_{tag.name}" for tag in PosTag if tag is not PosTag.UNTAGGED]
_BOUNDARIES = [v for k in range(19) for v in (10**k - 1, 10**k)]


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.builds(
                str.__add__,
                st.text(st.characters(min_codepoint=1, blacklist_categories=("Cs",)), min_size=1, max_size=40),
                st.sampled_from(_TAG_SUFFIXES),
            ),
            st.one_of(st.sampled_from(_BOUNDARIES), st.integers(1, 10**7)),
            st.one_of(st.just(1), st.sampled_from(_BOUNDARIES), st.integers(1, 10**4)),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(-(10**4), 10**4),
)
@example(rows=[(f"w{b}_NOUN", b, b or 1) for b in _BOUNDARIES], year=999)
@example(rows=[("x", b, 1) for b in _BOUNDARIES], year=-7)
def test_format_rows_matches_fstring(rows, year):
    tokens, counts, vols = zip(*rows)
    got = _format_rows(
        np.array([t.encode() for t in tokens]), year, np.array(counts, dtype=np.int64), np.array(vols, dtype=np.int64)
    )
    assert got == "".join(f"{t}\t{year}\t{c}\t{v}\n" for t, c, v in rows).encode()


# Configs the benchmark's reference digests do not reach, with the years
# per shard file each is written with.
GOLDEN_CASES = {
    "tiny": (TINY, 25),
    "poschurn": (
        SynthConfig(
            vocabulary=400,
            year_start=1800,
            year_end=1829,
            tokens_per_year=40_000,
            era_length=10,
            churn=0.25,
            churn_band=300,
            pos_churn={PosTag.NOUN: 0.4, PosTag.DET: 0.1},
            tag_weights={PosTag.NOUN: 0.45, PosTag.DET: 0.30, PosTag.VERB: 0.25},
            volumes_per_year=50,
            seed=11,
        ),
        10,
    ),
    "decay": (
        SynthConfig(
            vocabulary=300,
            year_start=1850,
            year_end=1869,
            tokens_per_year=30_000,
            churn=0.0,
            churn_band=0,
            decay_group=(101, 140),
            decay_factor=0.5,
            volumes_per_year=40,
            seed=5,
        ),
        10,
    ),
    "mandelbrot": (dataclasses.replace(TINY, mandelbrot_offset=2.7, zipf_exponent=1.1, seed=3), 20),
    # Fewer tokens than words: most counts are 0 and those rows are skipped.
    "sparse": (dataclasses.replace(TINY, tokens_per_year=150, seed=4), 20),
    # 40 years in shards of 7: the last shard is short.
    "ragged": (dataclasses.replace(TINY, seed=6), 7),
    # Three- and four-digit years in one corpus.
    "early-years": (dataclasses.replace(TINY, year_start=990, year_end=1009, era_length=7, seed=8), 8),
}
GOLDEN_SHA256 = {
    "tiny": {
        "synth-1900-1924.tsv": "56267b207b2b7405466964b6b5c4fac50d8c77d539729f36ce3205aa43a4a4a2",
        "synth-1925-1939.tsv": "f9b7820c960868b10537d954fe4eb80265299ecded5e426d2d03ad1aac9cb18a",
        "truth.json": "ceecacc44ff25131c46bc71140cfaea167463b5574c6bac6c2d1a55091d60c11",
        "volumes.tsv": "c648c35fc4bf6269bf0b211da00d8081c29a40356933b87466eb09fd8690f5da",
    },
    "poschurn": {
        "synth-1800-1809.tsv": "de29132289a2fed15436270a093f78e7d897938b1fcdf001a959d28de628c447",
        "synth-1810-1819.tsv": "c043cd92f780515b90dafe2aaeeda9d9f8de935cbf095d086749b9611aee6138",
        "synth-1820-1829.tsv": "9fc20910e02385f268b6552fef7a74b1e2c31f8198558e99a95f2450ad09319f",
        "truth.json": "c1136408985042aeb990c45f92fde7c0d1926372417cd627523290fc7244f469",
        "volumes.tsv": "7df5fc12d62131561019ff4121702c6ca14cf3047d028cf2622e5558b7162497",
    },
    "decay": {
        "synth-1850-1859.tsv": "c46272d64d5f94d7d5a5c6b24ec9e8f88a900eb22d38e7d6f1cfcbfcf5d128a3",
        "synth-1860-1869.tsv": "6fcd27a61595bf3d1345a894a66c4e3b80ff3cc76566adde82181d8b113149ab",
        "truth.json": "256d31dbb00e8a25a788abad448f96048dc891e49c5288d19693a96ea8685a84",
        "volumes.tsv": "165fd6e08c01141e5060fca514fb3106635dbd52069f49252d8b020da2a518c1",
    },
    "mandelbrot": {
        "synth-1900-1919.tsv": "fd7772643759b3f29c8b1bffb155cb2b142ad707205139f3b295973d8ae01dbf",
        "synth-1920-1939.tsv": "5f9887930b6e3a1fbb2d1e51317a072600ecd715d4293b48375567d0728d05ce",
        "truth.json": "c85e4313eb4d937c69fa5e406ed9d41967e422eef1aa80f36c7d1ef6577d039c",
        "volumes.tsv": "c648c35fc4bf6269bf0b211da00d8081c29a40356933b87466eb09fd8690f5da",
    },
    "sparse": {
        "synth-1900-1919.tsv": "f1114987ba4ae0c44840d8420ca34058d2e5d8110d2fb868cc47ce853b2b4f4b",
        "synth-1920-1939.tsv": "ba535973569641db577e6972f4f637be593597fef6eaa17150379d1b79ebcee8",
        "truth.json": "84b43e6ab4f064876cb778451bb4decddc7ff81a4e8d6200c6bbaefbf1490893",
        "volumes.tsv": "c648c35fc4bf6269bf0b211da00d8081c29a40356933b87466eb09fd8690f5da",
    },
    "ragged": {
        "synth-1900-1906.tsv": "162729ab733365108aba7ce44443cdf4f456ded27322050a766ce7822769fcca",
        "synth-1907-1913.tsv": "06c5e890f20d321b209f5e22f7dc84be342f3a1e422297a2c54bf2a0fee5bedb",
        "synth-1914-1920.tsv": "b32b6f01b135afb45ae7afd857c0349aabbc8160d340729ce9c6382d255b3029",
        "synth-1921-1927.tsv": "d4a97d05e8fe5da96ac96227fe2b49ab3f74c7db3d673f6f63aba1547cc8bf87",
        "synth-1928-1934.tsv": "f3b46d321252058c970f39f99f0571bbcca6b33d7d2e630aa48007e55f38980c",
        "synth-1935-1939.tsv": "e620d1089dfd2b6dfccd7bcaca1aa6c1ad5796964d7a67912063736110d6834a",
        "truth.json": "c9632a5a3d8173ddf251d23b250b58de3c697ff026a36b9dbc40ed07cc25cd5b",
        "volumes.tsv": "c648c35fc4bf6269bf0b211da00d8081c29a40356933b87466eb09fd8690f5da",
    },
    "early-years": {
        "synth-1006-1009.tsv": "e757ebfae6979832f8434bf94a9f15a21e5df38bc218da377fd132cf7c703edc",
        "synth-990-997.tsv": "298bc05e67cd5ab51075583d5e82156e8e1ab133a3ca50bb84665334b78c6372",
        "synth-998-1005.tsv": "cb33280ff145f25ff8395d7ec92f3f40ef3dbb8c804abdb4b3d52160e9e0c06c",
        "truth.json": "705f474f8f39e86879015f3d63bf170a11d52e04187df59ec02807647bd4b79b",
        "volumes.tsv": "4c8bb3e118da2103b5197df2e5c9461b06940df3d4f868165a82187d740dacb4",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_digests(tmp_path, name):
    """Every output file hashes as it did before the writer became whole-array.

    The digests were recorded from the per-line f-string writer (one
    ``f"{token}\t{year}\t{count}\t{volumes}"`` per row), so a rewrite
    of the write path that changes a single byte fails here.
    """
    config, shard_years = GOLDEN_CASES[name]
    generate_corpus(config, tmp_path, shard_years=shard_years)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == GOLDEN_SHA256[name]


def test_different_seed_different_bytes(tmp_path):
    a = generate_corpus(TINY, tmp_path / "a")
    b = generate_corpus(dataclasses.replace(TINY, seed=100), tmp_path / "b")
    assert a.shard_paths[0].read_bytes() != b.shard_paths[0].read_bytes()


def test_shards_pass_ingest_cleanly(tmp_path):
    result = generate_corpus(TINY, tmp_path)
    store, stats = build_store(result.shard_paths, english_config(1900, 1939))
    assert stats.malformed == 0
    assert stats.wildcard_rows == 0
    assert stats.nonlexical_rows == 0
    assert stats.empty_years == set()
    assert int(store.lexical_totals.sum()) == TINY.tokens_per_year * 40


def test_gzip_output_round_trips(tmp_path):
    result = generate_corpus(TINY, tmp_path, gzip_output=True)
    assert all(p.suffix == ".gz" for p in result.shard_paths)
    store, stats = build_store(result.shard_paths, english_config(1900, 1939))
    assert stats.malformed == 0
    assert int(store.lexical_totals.sum()) == TINY.tokens_per_year * 40


def test_volume_counts_respect_bounds(tmp_path):
    result = generate_corpus(TINY, tmp_path)
    store, _ = build_store(
        result.shard_paths, english_config(1900, 1939), volume_sidecar=result.volumes_path
    )
    assert (store.volume_count >= 1).all()
    assert (store.volume_count <= store.match_count).all()
    assert int(store.volume_count.max()) <= TINY.volumes_per_year


def test_zero_churn_means_zero_dropout(tmp_path):
    config = dataclasses.replace(TINY, churn=0.0, churn_band=0)
    result = generate_corpus(config, tmp_path)
    store, _ = build_store(result.shard_paths, english_config(1900, 1939))
    eras = [WindowSpec(s, e) for s, e in config.eras()]
    # The full vocabulary never changes, so whole-vocabulary cores agree
    # exactly; a top-50 core is also stable at this corpus size.
    for k in (500, 50):
        cores = [frequency_core(aggregate_window(store, s), k) for s in eras]
        for old, new in zip(cores, cores[1:]):
            assert dropout_share(old, new) == 0.0


def test_planted_churn_counts_match_truth(tmp_path):
    import json

    result = generate_corpus(TINY, tmp_path)
    truth = json.loads(result.truth_path.read_text(encoding="utf-8"))
    assert len(truth["boundaries"]) == 3
    for boundary in truth["boundaries"]:
        assert boundary["replaced"] == round(0.2 * 200)
        assert len(boundary["replaced_ranks"]) == boundary["replaced"]
        assert all(1 <= r <= 200 for r in boundary["replaced_ranks"])


def test_old_core_coverage_tracks_planted_survival(small_synth, small_store):
    """Coverage decay of the first-era core follows the exact survivor mass."""
    result, truth = small_synth
    cfg = truth["config"]
    k = 200
    weights = 1.0 / np.arange(1, cfg["vocabulary"] + 1, dtype=np.float64)
    total = weights.sum()
    core0 = frequency_core(aggregate_window(small_store, WindowSpec(1800, 1849)), k)

    dead: set[int] = set()
    for era_index, boundary in enumerate(truth["boundaries"], start=1):
        dead |= {r for r in boundary["replaced_ranks"] if r <= k}
        survivor_mass = sum(weights[r - 1] for r in range(1, k + 1) if r not in dead) / total
        era_start, era_end = truth["eras"][era_index]
        mid = (era_start + era_end) // 2
        measured = coverage_series(core0, small_store, [mid]).ys[0]
        assert measured == pytest.approx(survivor_mass, abs=0.02)


def test_rank_frequency_slope(tmp_path):
    """Era-aggregated counts follow the planted Zipf exponent."""
    result = generate_corpus(PRESETS["zipf-demo"], tmp_path)
    store, _ = build_store(result.shard_paths, english_config(1900, 1949))
    table = aggregate_window(store, WindowSpec(1900, 1949))
    counts = np.sort(table.match_count)[::-1].astype(np.float64)
    ranks = np.arange(1, len(counts) + 1, dtype=np.float64)
    slope = np.polyfit(np.log(ranks), np.log(counts), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_tokens_below_recommendation_warns(tmp_path, caplog):
    """A ``lexcore synth --config`` run below the recommendation warns once."""
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(dataclasses.replace(TINY, tokens_per_year=10_000).to_dict()), encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert sum("recommendation" in rec.message for rec in caplog.records) == 1


class TestConfigValidation:
    def test_vocabulary_floor(self):
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(TINY, vocabulary=50)

    def test_churn_requires_band(self):
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(TINY, churn_band=0)

    def test_band_within_vocabulary(self):
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(TINY, churn_band=10_000)

    def test_decay_group_bounds(self):
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(TINY, decay_group=(400, 600))

    def test_negative_year(self):
        # Year seeds and the ingest parser both take non-negative years only.
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(TINY, year_start=-1)

    def test_inverted_years(self):
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(TINY, year_start=1950, year_end=1900)

    def test_from_dict_round_trip(self):
        cfg = synth_config_from_dict(TINY.to_dict())
        assert cfg == TINY

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_from_dict_reads_to_dict_back(self, data):
        """Any valid config survives ``to_dict``, JSON text and ``synth_config_from_dict``."""
        draw = data.draw
        vocabulary = draw(st.integers(100, 10**6))
        year_start = draw(st.integers(0, 3000))
        churn = draw(st.floats(0, 1))
        tag_rates = st.dictionaries(st.sampled_from(list(PosTag)), st.floats(0, 1), max_size=4)
        pos_churn = draw(tag_rates)
        tag_weights = draw(tag_rates.filter(lambda w: sum(w.values()) > 0))
        ranks = st.integers(1, vocabulary)
        config = SynthConfig(
            vocabulary=vocabulary,
            year_start=year_start,
            year_end=draw(st.integers(year_start, year_start + 500)),
            tokens_per_year=draw(st.integers(100 * vocabulary, 10**9)),
            zipf_exponent=draw(st.floats(0.01, 5)),
            mandelbrot_offset=draw(st.floats(0, 100)),
            era_length=draw(st.integers(1, 500)),
            churn=churn,
            churn_band=draw(ranks if churn > 0 or pos_churn else st.integers(0, vocabulary)),
            pos_churn=pos_churn,
            tag_weights=tag_weights,
            volumes_per_year=draw(st.integers(1, 10**6)),
            decay_group=draw(st.none() | st.tuples(ranks, ranks).map(lambda pair: tuple(sorted(pair)))),
            decay_factor=draw(st.floats(0.01, 10)),
            seed=draw(st.integers(0, 2**63)),
        )
        assert synth_config_from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_from_dict_rejects_unknown_tag(self):
        data = TINY.to_dict()
        data["pos_churn"] = {"NOPE": 0.5}
        with pytest.raises(ConfigInvalid):
            synth_config_from_dict(data)

    def test_presets_validate(self):
        for config in PRESETS.values():
            assert synth_config_from_dict(json.loads(json.dumps(config.to_dict()))) == config
