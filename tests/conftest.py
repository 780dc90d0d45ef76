"""Shared fixtures: hand-built fixture corpora and one small synthetic corpus."""

from __future__ import annotations

import hashlib
import io
import json
import re
import struct
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from lexcore.alphabets import alphabet_preset
from lexcore.cli import main
from lexcore.config import RunConfig
from lexcore.errors import EmptyYearError
from lexcore.ingest import build_store
from lexcore.postags import POS_COUNT, PosTag
from lexcore.store import CorpusStore
from lexcore.synth import PRESETS, generate_corpus
from lexcore.windows import RANK_K, Core, WindowSpec, WindowTable

# Hand fixture: 1900-1904, lexical totals 100/100/1000/0/100.
# press_VERB is exactly 1% of press and must be dropped; vol. fails the
# lexical filter; _NOUN_ is a wildcard row; 1903 is an empty year.
HAND_LINES = [
    "the_DET\t1900\t40\t8",
    "time_NOUN\t1900\t24\t7",
    "time_VERB\t1900\t6\t3",
    "cat_NOUN\t1900\t20\t6",
    "dog_NOUN\t1900\t10\t5",
    "the_DET\t1901\t30\t8",
    "time_NOUN\t1901\t20\t6",
    "cat_NOUN\t1901\t25\t7",
    "dog_NOUN\t1901\t15\t5",
    "vol.\t1901\t99\t9",
    "don't\t1901\t10\t4",
    "_NOUN_\t1901\t77\t9",
    "press_NOUN\t1902\t990\t10",
    "press_VERB\t1902\t10\t2",
    "the_DET\t1902\t10\t3",
    "the_DET\t1904\t50\t9",
    "cat_NOUN\t1904\t30\t8",
    "new_ADJ\t1904\t20\t7",
]


def write_shards(tmp: Path, lines: list[str], n_shards: int = 1) -> list[Path]:
    tmp.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_shards):
        chunk = lines[i::n_shards]
        p = tmp / f"shard-{i}.tsv"
        p.write_text("\n".join(chunk) + "\n", encoding="utf-8")
        paths.append(p)
    return paths


def row_keys(word_id, year_offset, pos_id, span: int) -> list[int]:
    """Store row keys, ``(word id * span + year offset) * POS_COUNT + pos id``."""
    return [(w * span + y) * POS_COUNT + p for w, y, p in zip(word_id, year_offset, pos_id)]


def english_config(year_start: int, year_end: int, fold_case: bool = False) -> RunConfig:
    return RunConfig(
        language="english",
        alphabet=alphabet_preset("english"),
        year_start=year_start,
        year_end=year_end,
        fold_case=fold_case,
    )


def store_from_lines(tmp: Path, lines: list[str], y0: int, y1: int, volumes: int | None = None):
    """Build a store from literal shard lines; optional flat volume totals."""
    shards = write_shards(tmp, lines)
    sidecar = None
    if volumes is not None:
        sidecar = tmp / "volumes.tsv"
        sidecar.write_text("".join(f"{y}\t{volumes}\n" for y in range(y0, y1 + 1)), encoding="utf-8")
    store, _ = build_store(shards, english_config(y0, y1), volume_sidecar=sidecar)
    return store


def one_row_store(words, year: int, counts=None, pos=None) -> CorpusStore:
    """A store of one year holding one row per word of the ascending ``words``.

    Each row has its word's count from ``counts`` (default 1) and its tag
    from ``pos`` (default NOUN); volume counts and totals are 0.
    """
    n = len(words)
    tags = [int(PosTag.NOUN)] * n if pos is None else [int(p) for p in pos]
    return CorpusStore.from_rows(
        "english", year, year, list(words),
        key=row_keys(range(n), [0] * n, tags, 1),
        match_count=np.ones(n, dtype=np.int64) if counts is None else np.asarray(counts, dtype=np.int64),
        volume_count=np.zeros(n, dtype=np.int64),
        volume_totals=np.zeros(1, dtype=np.int64),
    )


def wide_store() -> CorpusStore:
    """A store of 1900-1901 both of whose count columns are u2 with exceptions.

    Rows: aa 1900 and 1901 (NOUN), bb 1900 (VERB), cc 1900 and 1901 (ADJ).
    Its match exceptions are 70,000, 2**40 and 65,535 (at i8), its volume
    exceptions 65,535 and 2**20 (at u4).
    """
    tags = [int(PosTag.NOUN), int(PosTag.NOUN), int(PosTag.VERB), int(PosTag.ADJ), int(PosTag.ADJ)]
    return CorpusStore.from_rows(
        "english", 1900, 1901, ["aa", "bb", "cc"],
        key=row_keys([0, 0, 1, 2, 2], [0, 1, 0, 0, 1], tags, 2),
        match_count=np.array([70_000, 5, 2**40, 65_535, 300]),
        volume_count=np.array([65_535, 3, 300, 2**20, 1]),
        volume_totals=np.array([2**21, 2**20]),
    )


def make_core(words, pos=None, window=(1800, 1849), method=RANK_K, param=None) -> Core:
    """A core of the distinct ``words`` in the given order, each with its tag from ``pos`` (default NOUN).

    Its store holds one row per word, in the window's first year.
    """
    words = tuple(words)
    n = len(words)
    tag = dict(zip(words, pos if pos is not None else [PosTag.NOUN] * n))
    vocabulary = sorted(words)
    store = one_row_store(vocabulary, window[0], pos=[tag[w] for w in vocabulary])
    index = {w: i for i, w in enumerate(vocabulary)}
    ids = np.array([index[w] for w in words], dtype=np.int64)
    return Core(
        source=WindowSpec(*window),
        method=method,
        param=float(param if param is not None else n),
        words=words,
        word_ids=ids,
        rel_freq=(0.0,) * n,
        volume_share=(0.0,) * n,
        store=store,
        runs=np.stack((store.word_offsets[ids], np.ones(n, dtype=np.int64)), axis=1),
    )


def tiny_store(directory: Path) -> Path:
    """The fixtures/tiny corpus ingested by ``lexcore ingest`` under ``directory``; the store's path."""
    tiny = Path(__file__).parents[1] / "fixtures" / "tiny"
    argv = ["ingest", str(tiny / "shard-0.tsv"), "--config", str(tiny / "config.json"), "--volumes", str(tiny / "volumes.tsv")]
    assert main([*argv, "--out", str(directory / "store")]) == 0
    return directory / "store" / "store.lxst"


def rewrite_store(path: Path, old: bytes, new: bytes) -> None:
    """Replace the one ``old`` in a store file with ``new``, as long, and sign the payload anew."""
    payload = path.read_bytes()[:-32]
    assert payload.count(old) == 1 and len(new) == len(old)
    payload = payload.replace(old, new)
    path.write_bytes(payload + hashlib.sha256(payload).digest())


def rewrite_column(path: Path, column: str, row: int, value: int) -> None:
    """Set the value of one stored column of a store file at ``row``, and sign the payload anew."""
    payload = bytearray(path.read_bytes()[:-32])
    (header_len,) = struct.unpack_from("<I", payload, 8)
    spec = json.loads(payload[12 : 12 + header_len])["columns"][column]
    np.frombuffer(payload, dtype=spec["dtype"], count=row + 1, offset=spec["offset"])[row] = value
    path.write_bytes(bytes(payload) + hashlib.sha256(payload).digest())


# Edits of one header field of the fixtures/tiny store, or of the hand
# fixture's, which has the same words and layout; signed anew, each file
# verifies, but its header does not describe it.
HEADER_EDITS = {
    **{f"words_bytes-{n}": (b'"words_bytes": 32', b'"words_bytes": %d' % n) for n in (30, 31, 33, 40)},
    "pos_id-dtype": (b'"pos_id": {"dtype": "|u1"', b'"pos_id": {"dtype": "|i1"'),
    "n_words": (b'"n_words": 7', b'"n_words": 8'),
    "column-offset": (b'"offset": 8192', b'"offset": 8200'),
    "year_end": (b'"year_end": 1904', b'"year_end": 1905'),
    "year_start-float": (b'"year_start": 1900', b'"year_start": 19e2'),
    "n_match_exceptions": (b'"n_match_exceptions": 0', b'"n_match_exceptions": 1'),
    "n_volume_exceptions-negative": (b'"n_volume_exceptions": 0,', b'"n_volume_exceptions":-1,'),
}


def table_words(table: WindowTable) -> list[str]:
    """The words of a window table, decoded from its store ids."""
    return [table.store.words[i] for i in table.word_ids.tolist()]


# ---------------------------------------------------------------- store oracles
# Row-at-a-time readers of a store's word ids, years and counts, over
# Python ints: references for the library's whole-array query path.


@dataclass(frozen=True)
class YearSlice:
    """One year's cleaned counts: (word, pos) -> (match, volumes)."""

    year: int
    entries: dict[tuple[str, PosTag], tuple[int, int]]
    lexical_total: int
    volume_total: int


def iter_clean_records(store: CorpusStore) -> Iterator[tuple[str, PosTag, int, int, int]]:
    """Yield (word, pos, year, match, volumes) rows in store order."""
    for w, p, y, m, v in zip(store.word_id, store.pos_id, store.year, store.match_count, store.volume_count):
        yield store.words[int(w)], PosTag(int(p)), int(y), int(m), int(v)


def year_slice(store: CorpusStore, year: int) -> YearSlice:
    entries = {(w, p): (m, v) for w, p, y, m, v in iter_clean_records(store) if y == year}
    i = year - store.year_start
    return YearSlice(year, entries, int(store.lexical_totals[i]), int(store.volume_totals[i]))


def relative_frequency(store: CorpusStore, word: str, year: int) -> float:
    """Relative frequency of ``word`` in ``year``: count / lexical total.

    Counts sum over the word's retained POS tags; an absent word gives 0.
    Raises :class:`EmptyYearError` when the year has no lexical tokens,
    and ValueError for a year outside the store's range, as the library does.
    """
    if year not in store.years:
        raise ValueError(f"year {year} outside store range")
    total = int(store.lexical_totals[year - store.year_start])
    if total == 0:
        raise EmptyYearError(f"year {year} has no lexical tokens")
    return sum(m for w, _, y, m, _ in iter_clean_records(store) if w == word and y == year) / total


# ---------------------------------------------------------------- token oracle
# The token rule written out again without lexcore's code: the
# reference that ingest's one token function is checked against.

TAG_NAMES = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "NUM", "CONJ", "PRT", "X")  # pos ids 0-10
UNTAGGED = len(TAG_NAMES)  # the pos id of a token without a tag suffix
_TAG = "|".join(TAG_NAMES)


def classify_token(token: str | bytes, config) -> tuple[str, int] | str:
    """The (word, pos id) a token's rows count toward, or the counter that drops them.

    A token that is not UTF-8 makes its rows ``malformed``; a POS-only
    wildcard counts toward ``wildcard_rows``; a word that is not one of
    ``config.alphabet``'s toward ``nonlexical_rows``.
    """
    if isinstance(token, bytes):
        try:
            token = token.decode("utf-8")
        except UnicodeDecodeError:
            return "malformed"
    if re.fullmatch(f"_({_TAG})_?", token):
        return "wildcard_rows"
    tagged = re.fullmatch(f"(.+)_({_TAG})", token, re.DOTALL)
    word, pos = (tagged[1], TAG_NAMES.index(tagged[2])) if tagged else (token, UNTAGGED)
    word = word.replace("\N{RIGHT SINGLE QUOTATION MARK}", "'")
    if config.fold_case:
        word = word.lower()
    alphabet = config.alphabet
    letters = apostrophes = 0
    for ch in word:
        if ch in alphabet.letters:
            letters += 1
        elif ch == "'":
            apostrophes += 1
        else:
            return "nonlexical_rows"
    if letters == 0 or apostrophes > (alphabet.max_apostrophes if alphabet.apostrophe_allowed else 0):
        return "nonlexical_rows"
    return word, pos


# ---------------------------------------------------------------- shard oracles
# Record-at-a-time, dict-based references for ingest's line rule and
# 1% POS-variant rule.


def read_shard(data: bytes, year_start: int, year_end: int) -> tuple[list, dict]:
    """Read one shard line by line, splitting lines as text mode does.

    Returns the sorted kept rows (token, year, match, volumes) and the
    line counters of :class:`lexcore.ingest.IngestStats` it touches.
    """
    stats = dict.fromkeys(("lines", "malformed", "out_of_range", "invalid_counts"), 0)
    rows = []
    text = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1", newline=None)
    for line in text:
        stats["lines"] += 1
        try:
            fields = line.rstrip("\n").encode("latin-1").decode("utf-8").split("\t")
        except UnicodeDecodeError:
            stats["malformed"] += 1
            continue
        numeric = fields[1:]
        if len(fields) != 4 or not fields[0] or not all(f.isascii() and f.isdigit() for f in numeric):
            stats["malformed"] += 1
            continue
        year, match, vol = (int(f) for f in numeric)
        if match >= 2**63 or vol >= 2**63:
            stats["malformed"] += 1
        elif not year_start <= year <= year_end:
            stats["out_of_range"] += 1
        elif match >= 1 and vol < 1:
            stats["invalid_counts"] += 1
        else:
            rows.append((fields[0], year, match, vol))
    return sorted(rows), stats


def one_percent_rule(rows: list[tuple[str, PosTag, int, int, int]]) -> list[tuple[str, PosTag, int, int, int]]:
    """The (word, pos, year, match, volumes) rows whose POS variant survives the 1% rule.

    A variant is dropped iff its summed count is at most 1% of its
    word's total; each word keeps its largest variant (ties: lowest tag).
    """
    pair_total: dict[tuple[str, PosTag], int] = defaultdict(int)
    word_total: dict[str, int] = defaultdict(int)
    for word, pos, _, match, _ in rows:
        pair_total[word, pos] += match
        word_total[word] += match
    largest = {}
    for (word, pos), count in sorted(pair_total.items(), key=lambda kv: (-kv[1], kv[0][1])):
        largest.setdefault(word, pos)
    kept = {(w, p) for (w, p), c in pair_total.items() if 100 * c > word_total[w] or largest[w] == p}
    return [row for row in rows if row[:2] in kept]


@pytest.fixture
def hand_store(tmp_path):
    shards = write_shards(tmp_path, HAND_LINES, n_shards=2)
    sidecar = tmp_path / "volumes.tsv"
    sidecar.write_text("".join(f"{y}\t10\n" for y in range(1900, 1905)), encoding="utf-8")
    store, stats = build_store(shards, english_config(1900, 1904), volume_sidecar=sidecar)
    return store, stats


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """One churn15-small corpus shared by the whole session."""
    out = tmp_path_factory.mktemp("small-synth")
    result = generate_corpus(PRESETS["churn15-small"], out)
    truth = json.loads(result.truth_path.read_text(encoding="utf-8"))
    return result, truth


@pytest.fixture(scope="session")
def small_store(small_synth):
    result, _ = small_synth
    config = english_config(1800, 1999)
    store, stats = build_store(result.shard_paths, config, volume_sidecar=result.volumes_path)
    assert stats.malformed == 0
    return store
