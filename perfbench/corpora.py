"""Workload corpora and the reference model the correctness gate checks.

Every corpus is a pure function of the workload and the seed.  Random
choices come from ``numpy`` generators keyed by ``SeedSequence``, never
from Python's salted ``hash()``, so two runs with one seed write
byte-identical shards.

The reference model rebuilds the expected store contents from the rows
the benchmark knows it wrote (or, for clean synthetic shards, from a
plain re-read of them).  It is deliberately a second, simple
implementation of the cleaning rules, so the store the program builds is
checked against something other than itself on every seed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from lexcore import synth
from lexcore.postags import POS_COUNT, SUFFIX_TAGS, PosTag

YEAR_START, YEAR_END = 1800, 1999
LANGUAGE = "english"
RUN_CONFIG = {
    "version": 1,
    "language": LANGUAGE,
    "alphabet": "english",
    "year_start": YEAR_START,
    "year_end": YEAR_END,
    "fold_case": False,
}
# Counters IngestStats has at the commit that defined this benchmark; the
# gate compares only these, so counters added later do not break it.
STATS_KEYS = (
    "lines",
    "malformed",
    "out_of_range",
    "invalid_counts",
    "duplicate_rows",
    "wildcard_rows",
    "nonlexical_rows",
    "dropped_pos_variants",
    "empty_years",
)
MIX_KINDS = (
    "clean",
    "duplicate",
    "variant",
    "apostrophe",
    "junk",
    "wildcard",
    "malformed",
    "out_of_range",
)


@dataclass(frozen=True)
class Workload:
    name: str
    synth: synth.SynthConfig
    threads: int  # --threads of the ingest step
    shard_years: int = 25
    gbn_mix: bool = False


def _config(vocabulary: int, tokens: int, band: int, volumes: int) -> synth.SynthConfig:
    return synth.SynthConfig(
        vocabulary=vocabulary,
        year_start=YEAR_START,
        year_end=YEAR_END,
        tokens_per_year=tokens,
        churn=0.15,
        churn_band=band,
        volumes_per_year=volumes,
    )


# Sizes are fixed here rather than read from lexcore's presets, so a
# preset edit cannot silently change the benchmark's inputs.
WORKLOADS = {
    # The churn15 preset's dynamics at 15% of its vocabulary and tokens
    # (1.5M clean lines in 8 plain shards), parsed by 2 workers.
    "clean-churn15": Workload("clean-churn15", _config(7_500, 1_500_000, 4_500, 2_000), threads=2),
    # Google-Books-shaped dirty input: gzip, 40 shards, POS variants,
    # non-lexical tokens, wildcards, U+2019 apostrophes, malformed,
    # out-of-range and cross-shard duplicate lines, one worker.
    "gbn-mix": Workload(
        "gbn-mix",
        _config(3_500, 700_000, 2_000, 2_000),
        threads=1,
        shard_years=5,
        gbn_mix=True,
    ),
}


@dataclass
class Reference:
    """What the store built from a corpus must contain."""

    store_digest: str
    stats: dict
    words: list[str]


@dataclass
class Corpus:
    shards: list[str]  # relative to the work directory
    volumes: str
    truth: str
    lines: int
    input_bytes: int  # uncompressed
    synth_lines: int  # lines written by lexcore's generator
    mix: dict[str, int]
    # gbn-mix only: the kept rows and the counters its writer knows.
    kept: tuple | None = field(default=None, repr=False)


def synth_config(workload: Workload, seed: int) -> synth.SynthConfig:
    return replace(workload.synth, seed=seed)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xBE7C, stream)))


# ------------------------------------------------------------ digests


def store_digest(language, year_start, year_end, words, columns, lexical_totals, volume_totals) -> str:
    """Content digest over words, columns and totals, independent of dtypes."""
    h = hashlib.sha256(json.dumps([language, int(year_start), int(year_end), len(words)]).encode())
    h.update("\n".join(words).encode("utf-8"))
    for col in (*columns, lexical_totals, volume_totals):
        h.update(np.ascontiguousarray(col, dtype="<i8").tobytes())
    return h.hexdigest()


def digest_of_store(store) -> str:
    cols = (store.word_id, store.pos_id, store.year, store.match_count, store.volume_count)
    return store_digest(
        store.language, store.year_start, store.year_end, store.words, cols,
        store.lexical_totals, store.volume_totals,
    )


def input_digest(workdir: Path, corpus: Corpus) -> str:
    """Digest of the uncompressed corpus files, in a fixed order."""
    h = hashlib.sha256()
    for rel in [*corpus.shards, corpus.volumes, corpus.truth]:
        path = workdir / rel
        data = gzip.decompress(path.read_bytes()) if path.suffix == ".gz" else path.read_bytes()
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


# ------------------------------------------------------------ reference model


def _split_token(token: str) -> tuple[str, int]:
    base, sep, tag = token.rpartition("_")
    if sep and base and tag in SUFFIX_TAGS:
        return base.replace("’", "'"), int(SUFFIX_TAGS[tag])
    return token.replace("’", "'"), int(PosTag.UNTAGGED)


def _group_sum(key: np.ndarray, *values: np.ndarray):
    order = np.argsort(key, kind="stable")
    skey = key[order]
    starts = np.flatnonzero(np.r_[True, skey[1:] != skey[:-1]]) if len(skey) else skey[:0]
    return (skey[starts],) + tuple(np.add.reduceat(v[order], starts) for v in values)


def reference_model(
    table: list[tuple[str, int]],
    tid: np.ndarray,
    year: np.ndarray,
    match: np.ndarray,
    vol: np.ndarray,
    volumes_per_year: int,
) -> tuple[str, list[str], int]:
    """Expected store from kept raw rows; ``table[tid]`` is (word, pos id).

    Rows sharing (word, pos, year) sum; a POS variant survives only when
    its corpus-wide count exceeds 1% of its word's total, and each
    word's largest variant (smallest pos id on ties) always survives.
    Returns (store digest, words, dropped variants).
    """
    words = sorted({table[i][0] for i in np.unique(tid).tolist()})
    index = {w: i for i, w in enumerate(words)}
    tok_wid = np.array([index.get(w, -1) for w, _ in table], dtype=np.int64)
    tok_pid = np.array([p for _, p in table], dtype=np.int64)
    span = YEAR_END - YEAR_START + 1
    key = (tok_wid[tid] * POS_COUNT + tok_pid[tid]) * span + (year - YEAR_START)
    key, match, vol = _group_sum(key, match, vol)
    pair = key // span
    pairs, pair_total = _group_sum(pair, match)
    pair_word = pairs // POS_COUNT
    word_total = np.zeros(len(words), dtype=np.int64)
    np.add.at(word_total, pair_word, pair_total)
    retain = 100 * pair_total > word_total[pair_word]
    best = np.lexsort((pairs % POS_COUNT, -pair_total, pair_word))
    first = best[np.r_[True, pair_word[best][1:] != pair_word[best][:-1]]]
    retain[first] = True
    keep = retain[np.searchsorted(pairs, pair)]
    wid, pid, yr = pair[keep] // POS_COUNT, pair[keep] % POS_COUNT, key[keep] % span + YEAR_START
    match, vol = match[keep], vol[keep]
    order = np.lexsort((pid, yr, wid))
    lexical = np.zeros(span, dtype=np.int64)
    np.add.at(lexical, yr - YEAR_START, match)
    volumes = np.full(span, volumes_per_year, dtype=np.int64)
    cols = (wid[order], pid[order], yr[order], match[order], vol[order])
    digest = store_digest(LANGUAGE, YEAR_START, YEAR_END, words, cols, lexical, volumes)
    return digest, words, int(len(pairs) - retain.sum())


class _Rows:
    """Kept raw rows, accumulated as a token table plus parallel arrays."""

    def __init__(self) -> None:
        self.table: list[tuple[str, int]] = []
        self._ids: dict[tuple[str, int], int] = {}
        self.chunks: list[tuple[np.ndarray, ...]] = []

    def token_ids(self, tokens) -> np.ndarray:
        ids, table = self._ids, self.table
        out = []
        for token in tokens:
            entry = _split_token(token)
            tid = ids.get(entry)
            if tid is None:
                ids[entry] = tid = len(table)
                table.append(entry)
            out.append(tid)
        return np.array(out, dtype=np.int64)

    def add(self, tid, year, match, vol) -> None:
        self.chunks.append(tuple(np.asarray(a, dtype=np.int64) for a in (tid, year, match, vol)))

    def reference(self, volumes_per_year: int, stats: dict) -> Reference:
        tid, year, match, vol = (np.concatenate(c) for c in zip(*self.chunks))
        digest, words, dropped = reference_model(self.table, tid, year, match, vol, volumes_per_year)
        return Reference(digest, {**stats, "dropped_pos_variants": dropped}, words)


def _parse_clean(text: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    fields = text.split()
    if len(fields) % 4:
        raise ValueError("clean shard with a short line")
    nums = [np.array(list(map(int, fields[i::4])), dtype=np.int64) for i in (1, 2, 3)]
    return fields[0::4], nums[0], nums[1], nums[2]


def _clean_stats(lines: int) -> dict:
    stats = {k: 0 for k in STATS_KEYS}
    stats.update(lines=lines, empty_years=[])
    return stats


def reference(workdir: Path, corpus: Corpus, volumes_per_year: int) -> Reference:
    """The store and counters ingest must produce from ``corpus``."""
    if corpus.kept is not None:
        rows, stats = corpus.kept
        return rows.reference(volumes_per_year, stats)
    # Clean synthetic shards: every line is a kept row.
    rows = _Rows()
    distinct: dict[str, int] = {}
    for rel in corpus.shards:
        tokens, year, match, vol = _parse_clean((workdir / rel).read_text(encoding="utf-8"))
        local = np.fromiter((distinct.setdefault(t, len(distinct)) for t in tokens), np.int64, len(tokens))
        rows.add(local, year, match, vol)
    # Map token ids to (word, pos) entries once per distinct token.
    remap = rows.token_ids(distinct)
    rows.chunks = [(remap[c[0]],) + c[1:] for c in rows.chunks]
    return rows.reference(volumes_per_year, _clean_stats(corpus.lines))


# ------------------------------------------------------------ set-up


def synth_shards(out: Path) -> list[Path]:
    """Shards ``lexcore synth`` wrote to ``out``, in year order."""
    return sorted(out.glob("synth-*.tsv"))


def describe_synth(workdir: Path) -> Corpus:
    """Sizes of a clean corpus that ``lexcore synth`` wrote to ``corpus/``."""
    out = workdir / "corpus"
    shards = synth_shards(out)
    lines = nbytes = 0
    for p in shards:
        data = p.read_bytes()
        lines += data.count(b"\n")
        nbytes += len(data)
    rel = lambda p: p.relative_to(workdir).as_posix()  # noqa: E731
    return Corpus(
        shards=[rel(p) for p in shards],
        volumes=rel(out / "volumes.tsv"),
        truth=rel(out / "truth.json"),
        lines=lines,
        input_bytes=nbytes,
        synth_lines=lines,
        mix={"clean": lines},
    )


# gbn-mix line shares and rates.  Only JUNK_SHARE has a basis: the 15-20%
# share of non-lexical tokens the workload is specified with.  Every other
# rate is an unmeasured placeholder, chosen so that each cleaning path
# (the POS 1% rule on both sides, apostrophe merging, duplicate summing,
# the malformed, invalid-count and out-of-range counters) runs on enough
# lines to time.  They are not Google Books frequencies; replace them with
# shares measured on real Google Books 1-gram shards (the tagged format of
# Lin et al. 2012) once such shards are in the repository.
JUNK_SHARE = 0.17  # of all lines
VARIANT_WORDS = 0.25  # of base tokens that gain a second POS tag
LOW_VARIANT = 0.004  # variant/base count ratio below the 1% rule
HIGH_VARIANT = (0.03, 0.3)  # ratios above it
APOSTROPHE_WORDS = 0.03  # of base tokens that gain a "'s" form
DUPLICATE_SHARE = 0.01  # of base lines, repeated in another shard
MALFORMED_SHARE = 0.004
INVALID_SHARE = 0.001  # match >= 1 but volume_count 0
OUT_OF_RANGE_SHARE = 0.004
ABBREVIATIONS = ("vol.", "p.", "pp.", "ibid.", "cf.", "ch.", "ed.", "Fig.", "No.", "&c")
_TAGS = tuple(SUFFIX_TAGS)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _letters(n: int, width: int = 5) -> str:
    out = []
    for _ in range(width):
        n, r = divmod(n, 26)
        out.append(_LETTERS[r])
    return "".join(out)


def _junk_token(j: int) -> str:
    """The j-th non-lexical token: each kind fails the lexical filter differently."""
    if j < len(ABBREVIATIONS):
        return ABBREVIATIONS[j]
    kind = j % 8
    if kind == 0:
        return str(j)
    if kind == 1:
        return f"{j}.{j % 10}"
    if kind == 2:
        return f"{_letters(j)}-{_letters(j + 7)}"
    if kind == 3:
        return f"{_letters(j)}{j % 10}"
    if kind == 4:
        return f"{j}_NUM"
    if kind == 5:
        return f"{_letters(j)}'n'{_letters(j + 3)}"
    if kind == 6:
        return f"{'&#*/+'[j % 5]}{j}"
    return f"{ABBREVIATIONS[j % len(ABBREVIATIONS)]}{j}_NOUN"


def _lines(fmt_tokens, years, matches, vols) -> list[str]:
    return [f"{t}\t{y}\t{m}\t{v}" for t, y, m, v in zip(fmt_tokens, years.tolist(), matches.tolist(), vols.tolist())]


def write_gbn_mix(workload: Workload, seed: int, workdir: Path) -> Corpus:
    """Build the Google-Books-shaped corpus from a clean synthetic base.

    The base is what ``lexcore synth`` wrote to ``gbn-base/``; every other
    line kind is added here, spread over random shards and shuffled
    within each, then written as gzip.  The corpus carries the kept rows
    and the counters ingest must report, for :func:`reference`.
    """
    base_dir, out = workdir / "gbn-base", workdir / "corpus"
    base_shards = synth_shards(base_dir)
    volumes_per_year = workload.synth.volumes_per_year
    rng = rng_for(seed, 1)
    rows = _Rows()
    n_shards = len(base_shards)
    shard_lines: list[list[str]] = []
    extra: list[tuple[list[str], np.ndarray]] = []  # (lines, shard of each line)
    base_tid, base_year, base_match, base_vol, base_shard = [], [], [], [], []
    distinct: dict[str, int] = {}
    for i, path in enumerate(base_shards):
        text = path.read_text(encoding="utf-8")
        shard_lines.append(text.splitlines())
        tokens, year, match, vol = _parse_clean(text)
        base_tid.append(np.fromiter((distinct.setdefault(t, len(distinct)) for t in tokens), np.int64, len(tokens)))
        base_year.append(year)
        base_match.append(match)
        base_vol.append(vol)
        base_shard.append(np.full(len(tokens), i, dtype=np.int64))
    tokens = list(distinct)
    tid, year, match, vol, shard = (
        np.concatenate(a) for a in (base_tid, base_year, base_match, base_vol, base_shard)
    )
    remap = rows.token_ids(tokens)
    rows.add(remap[tid], year, match, vol)
    n_base = len(tid)
    split = [_split_token(t) for t in tokens]
    tagged = np.array([t.rpartition("_")[2] in SUFFIX_TAGS for t in tokens])

    def spread(lines: list[str]) -> None:
        extra.append((lines, rng.integers(0, n_shards, len(lines))))

    # Cross-shard duplicates of base lines: summed by ingest.
    dup = np.sort(rng.choice(n_base, size=int(DUPLICATE_SHARE * n_base), replace=False))
    flat = [line for lines in shard_lines for line in lines]
    dup_lines = [flat[i] for i in dup.tolist()]
    del flat
    extra.append((dup_lines, (shard[dup] + rng.integers(1, n_shards, len(dup))) % n_shards))
    rows.add(remap[tid[dup]], year[dup], match[dup], vol[dup])

    # Second POS tags, some under and some over the 1% rule.
    n_tok = len(tokens)
    has_variant = rng.random(n_tok) < VARIANT_WORDS
    ratio = np.where(rng.random(n_tok) < 0.5, LOW_VARIANT, rng.uniform(*HIGH_VARIANT, n_tok))
    tag2 = rng.integers(0, len(_TAGS), n_tok)
    variant_tokens = []
    for j, (word, pid) in enumerate(split):
        t2 = _TAGS[tag2[j]]
        if SUFFIX_TAGS[t2] == pid:
            t2 = _TAGS[(tag2[j] + 1) % len(_TAGS)]
        variant_tokens.append(f"{word}_{t2}")
    vmatch = np.floor(ratio[tid] * match).astype(np.int64)
    sel = np.flatnonzero(has_variant[tid] & (vmatch >= 1))
    vvol = np.maximum(1, np.minimum(vol[sel], vmatch[sel]))
    spread(_lines([variant_tokens[t] for t in tid[sel].tolist()], year[sel], vmatch[sel], vvol))
    rows.add(rows.token_ids(variant_tokens)[tid[sel]], year[sel], vmatch[sel], vvol)
    n_variant = len(sel)

    # "'s" forms with U+2019, half of them also with the ASCII apostrophe
    # in the same years, which ingest merges after normalization.
    has_apos = rng.random(n_tok) < APOSTROPHE_WORDS
    both_forms = rng.random(n_tok) < 0.5
    n_apos = 0
    for mark, share, forms in (("’", 0.1, has_apos), ("'", 0.05, has_apos & both_forms)):
        amatch = np.floor(share * match).astype(np.int64)
        sel = np.flatnonzero(forms[tid] & (amatch >= 1))
        avol = np.maximum(1, np.minimum(vol[sel], amatch[sel]))
        names = [
            f"{split[t][0]}{mark}s" + (f"_{tokens[t].rpartition('_')[2]}" if tagged[t] else "")
            for t in tid[sel].tolist()
        ]
        spread(_lines(names, year[sel], amatch[sel], avol))
        rows.add(rows.token_ids(names), year[sel], amatch[sel], avol)
        n_apos += len(sel)

    # POS-only wildcard rows.
    years = np.arange(YEAR_START, YEAR_END + 1)
    wild_tok = [f"_{t}_" for t in _TAGS for _ in years]
    wild_year = np.tile(years, len(_TAGS))
    wmatch = rng.integers(1_000, 100_000, len(wild_tok))
    spread(_lines(wild_tok, wild_year, wmatch, rng.integers(1, volumes_per_year + 1, len(wild_tok))))

    # Out-of-range years of real words.
    n_oor = int(OUT_OF_RANGE_SHARE * n_base)
    pick = rng.integers(0, n_base, n_oor)
    oor_year = np.where(rng.random(n_oor) < 0.5, rng.integers(1500, YEAR_START, n_oor), rng.integers(YEAR_END + 1, 2020, n_oor))
    spread(_lines([tokens[t] for t in tid[pick].tolist()], oor_year, match[pick], vol[pick]))

    # Malformed lines (counted as malformed) and zero-volume lines
    # (counted as invalid_counts).
    n_bad = int(MALFORMED_SHARE * n_base)
    pick = rng.integers(0, n_base, n_bad)
    shapes = rng.integers(0, 8, n_bad)
    bad = []
    for s, t, y, m, v in zip(shapes.tolist(), tid[pick].tolist(), year[pick].tolist(), match[pick].tolist(), vol[pick].tolist()):
        tok = tokens[t]
        bad.append(
            (
                f"{tok}\t{y}\t{m}",
                f"{tok}\t{y}\t{m}\t{v}\t{v}",
                f"{tok} {y} {m} {v}",
                f"{tok}\t{y}x\t{m}\t{v}",
                f"{tok}\t{y}\t-{m}\t{v}",
                f"\t{y}\t{m}\t{v}",
                "",
                f"{tok}\t{y}\t{m}.0\t{v}",
            )[s]
        )
    n_invalid = int(INVALID_SHARE * n_base)
    pick = rng.integers(0, n_base, n_invalid)
    bad += _lines([tokens[t] for t in tid[pick].tolist()], year[pick], match[pick], np.zeros(n_invalid, np.int64))
    spread(bad)

    # Non-lexical tokens: JUNK_SHARE of all lines, on distinct (token, year) cells.
    others = n_base + sum(len(lines) for lines, _ in extra)
    n_junk = round(JUNK_SHARE / (1 - JUNK_SHARE) * others)
    n_junk_tokens = max(len(ABBREVIATIONS), n_junk // 50)
    cells = rng.choice(n_junk_tokens * len(years), size=n_junk, replace=False)
    jmatch = rng.integers(1, 2_000, n_junk)
    jvol = np.minimum(jmatch, rng.integers(1, volumes_per_year + 1, n_junk))
    spread(_lines([_junk_token(c) for c in (cells // len(years)).tolist()], years[cells % len(years)], jmatch, jvol))

    # Spread, shuffle and compress.
    for lines, where in extra:
        for line, s in zip(lines, where.tolist()):
            shard_lines[s].append(line)
    out.mkdir(parents=True, exist_ok=True)
    shards, total_lines, total_bytes = [], 0, 0
    for i, lines in enumerate(shard_lines):
        order = rng.permutation(len(lines))
        data = ("\n".join([lines[j] for j in order.tolist()]) + "\n").encode("utf-8")
        path = out / f"gbn-{i:02d}.tsv.gz"
        with open(path, "wb") as fh, gzip.GzipFile(filename="", mode="wb", fileobj=fh, compresslevel=1, mtime=0) as gz:
            gz.write(data)
        shards.append(path.relative_to(workdir).as_posix())
        total_lines += len(lines)
        total_bytes += len(data)
    shutil.copyfile(base_dir / "volumes.tsv", out / "volumes.tsv")
    shutil.copyfile(base_dir / "truth.json", out / "truth.json")
    shutil.rmtree(base_dir)

    mix = {
        "clean": n_base,
        "duplicate": len(dup),
        "variant": n_variant,
        "apostrophe": n_apos,
        "junk": n_junk,
        "wildcard": len(wild_tok),
        "malformed": n_bad + n_invalid,
        "out_of_range": n_oor,
    }
    if sum(mix.values()) != total_lines:
        raise RuntimeError("gbn-mix line kinds do not add up to the lines written")
    stats = {
        "lines": total_lines,
        "malformed": n_bad,
        "out_of_range": n_oor,
        "invalid_counts": n_invalid,
        "duplicate_rows": len(dup),
        "wildcard_rows": len(wild_tok),
        "nonlexical_rows": n_junk,
        "empty_years": [],
    }
    return Corpus(
        shards=shards,
        volumes=(out / "volumes.tsv").relative_to(workdir).as_posix(),
        truth=(out / "truth.json").relative_to(workdir).as_posix(),
        lines=total_lines,
        input_bytes=total_bytes,
        synth_lines=n_base,
        mix=mix,
        kept=(rows, stats),
    )
