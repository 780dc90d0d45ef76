"""Synthetic yearly corpora with known ground truth.

The generator emits shards in the exact ingest TSV format plus a
``truth.json`` sidecar recording the planted parameters, so every
downstream metric can be checked against an independent oracle at desk
scale.

Ground-truth knobs:

* rank r has expected yearly count proportional to 1/(r+q)^s
  (Zipf-Mandelbrot); counts are drawn multinomially per year so
  tolerance tests see realistic sampling noise;
* at each era boundary a fraction ``churn`` of the top ``churn_band``
  ranks is replaced by fresh words inheriting the vacated ranks
  (per-tag replacement probabilities can override the uniform rate);
* an optional rank band decays linearly to ``decay_factor`` of its
  initial weight by the last year, and is pinned against churn;
* ``volume_count`` is simulated as min(match_count, Binomial draw
  against the configured volumes per year).

Generation is fully deterministic for a given seed: every year draws
from its own seed derived from (seed, year), so any generation schedule
produces byte-identical shards, gzip ones included (their headers carry
mtime 0).  Each year's rows are formatted from whole arrays into one
``bytes`` write.
"""

from __future__ import annotations

import gzip
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .config import from_json, json_float, json_int
from .errors import ConfigInvalid
from .postags import POS_COUNT, PosTag
from .serialize import dump_json, json_fields, write_text_atomic

log = logging.getLogger(__name__)

__all__ = ["SynthConfig", "SynthResult", "PRESETS", "generate_corpus", "synth_config_from_dict"]

# Default tag mix for newly created words.
DEFAULT_TAG_WEIGHTS: dict[PosTag, float] = {
    PosTag.NOUN: 0.32,
    PosTag.VERB: 0.18,
    PosTag.ADJ: 0.13,
    PosTag.ADV: 0.08,
    PosTag.PRON: 0.04,
    PosTag.DET: 0.04,
    PosTag.ADP: 0.07,
    PosTag.NUM: 0.02,
    PosTag.CONJ: 0.03,
    PosTag.PRT: 0.02,
    PosTag.X: 0.03,
    PosTag.UNTAGGED: 0.04,
}


def _tag_map(value: Any) -> dict[PosTag, float] | None:
    """A ``{"TAG": number}`` object; null or ``{}`` leaves the default, and an unknown tag is a LookupError."""
    return {PosTag[name]: json_float(p) for name, p in dict(value or {}).items()} or None


def _rank_pair(value: Any) -> tuple[int, int] | None:
    """A ``[lo, hi]`` rank pair; null leaves no decay group."""
    if not value:
        return None
    lo, hi = value
    return json_int(lo), json_int(hi)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of one synthetic corpus, checked when built: a bad one is a :class:`ConfigInvalid`."""

    vocabulary: int
    year_start: int
    year_end: int
    tokens_per_year: int
    zipf_exponent: float = 1.0
    mandelbrot_offset: float = 0.0
    era_length: int = 50
    churn: float = 0.0
    churn_band: int = 0
    pos_churn: Mapping[PosTag, float] = field(default_factory=dict, metadata={"json": _tag_map})
    tag_weights: Mapping[PosTag, float] = field(default_factory=DEFAULT_TAG_WEIGHTS.copy, metadata={"json": _tag_map})
    volumes_per_year: int = 2000
    decay_group: tuple[int, int] | None = field(default=None, metadata={"json": _rank_pair})
    decay_factor: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocabulary < 100:
            raise ConfigInvalid("vocabulary must be >= 100")
        if self.zipf_exponent <= 0:
            raise ConfigInvalid("zipf_exponent must be > 0")
        if self.mandelbrot_offset < 0:
            raise ConfigInvalid("mandelbrot_offset must be >= 0")
        if self.year_start < 0:
            raise ConfigInvalid("year_start must be >= 0")
        if self.year_start > self.year_end:
            raise ConfigInvalid(f"year range inverted: {self.year_start}..{self.year_end}")
        if self.era_length < 1:
            raise ConfigInvalid("era_length must be >= 1")
        if not 0 <= self.churn <= 1:
            raise ConfigInvalid("churn must be in [0, 1]")
        for tag, p in self.pos_churn.items():
            if not 0 <= p <= 1:
                raise ConfigInvalid(f"pos_churn[{tag.name}] must be in [0, 1]")
        if self.tokens_per_year < 1:
            raise ConfigInvalid("tokens_per_year must be >= 1")
        if self.volumes_per_year < 1:
            raise ConfigInvalid("volumes_per_year must be >= 1")
        if (self.churn > 0 or self.pos_churn) and not 1 <= self.churn_band <= self.vocabulary:
            raise ConfigInvalid("churn requires churn_band in 1..vocabulary")
        if self.decay_group is not None:
            lo, hi = self.decay_group
            if not 1 <= lo <= hi <= self.vocabulary:
                raise ConfigInvalid("decay_group ranks must lie in 1..vocabulary")
            if self.decay_factor <= 0:
                raise ConfigInvalid("decay_factor must be > 0")
        if any(v < 0 for v in self.tag_weights.values()) or sum(self.tag_weights.values()) <= 0:
            raise ConfigInvalid("tag_weights must be non-negative and sum > 0")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")

    @property
    def years(self) -> range:
        return range(self.year_start, self.year_end + 1)

    def eras(self) -> list[tuple[int, int]]:
        starts = range(self.year_start, self.year_end + 1, self.era_length)
        return [(start, min(start + self.era_length - 1, self.year_end)) for start in starts]

    def to_dict(self) -> dict:
        """The config as JSON values, tags by name; :func:`synth_config_from_dict` reads it back."""
        return json_fields(self)


def synth_config_from_dict(data: dict) -> SynthConfig:
    """A SynthConfig from parsed JSON (tags by name); absent keys take the dataclass defaults."""
    return from_json(SynthConfig, data, "synth config")


PRESETS: dict[str, SynthConfig] = {
    # Stationary 15% churn per 50-year era over four eras; sized so cores
    # up to K=8000 sit well inside the churn band, with enough tokens per
    # year that empirical rank boundaries stay quiet.
    "churn15": SynthConfig(
        vocabulary=50_000,
        year_start=1800,
        year_end=1999,
        tokens_per_year=10_000_000,
        churn=0.15,
        churn_band=16_000,
        volumes_per_year=2_000,
        seed=7,
    ),
    # Same dynamics at quick-test scale.
    "churn15-small": SynthConfig(
        vocabulary=2_000,
        year_start=1800,
        year_end=1999,
        tokens_per_year=200_000,
        churn=0.15,
        churn_band=800,
        volumes_per_year=500,
        seed=42,
    ),
    # POS-stratified churn: nouns replaced fast, determiners slowly.
    "poschurn": SynthConfig(
        vocabulary=5_000,
        year_start=1800,
        year_end=1999,
        tokens_per_year=500_000,
        churn=0.25,
        churn_band=3_000,
        pos_churn={PosTag.NOUN: 0.4, PosTag.DET: 0.1},
        tag_weights={PosTag.NOUN: 0.45, PosTag.DET: 0.30, PosTag.VERB: 0.25},
        volumes_per_year=500,
        seed=11,
    ),
    # A pinned word group whose total frequency halves across the span.
    "decay": SynthConfig(
        vocabulary=5_000,
        year_start=1800,
        year_end=1999,
        tokens_per_year=1_000_000,
        churn=0.0,
        churn_band=0,
        decay_group=(2001, 2400),
        decay_factor=0.5,
        volumes_per_year=500,
        seed=5,
    ),
    # Static Zipf corpus for rank-frequency checks.
    "zipf-demo": SynthConfig(
        vocabulary=10_000,
        year_start=1900,
        year_end=1949,
        tokens_per_year=1_000_000,
        churn=0.0,
        churn_band=0,
        volumes_per_year=1_000,
        seed=3,
    ),
}


@dataclass(frozen=True)
class SynthResult:
    shard_paths: tuple[Path, ...]
    truth_path: Path
    volumes_path: Path


def _names(word_ids: np.ndarray) -> np.ndarray:
    """Each word id's name, six base-26 letters with the most significant first, as ``S6``."""
    places = 26 ** np.arange(5, -1, -1, dtype=np.int64)
    letters = (word_ids[:, None] // places % 26 + ord("a")).astype(np.uint8)
    return letters.view("S6").ravel()


# Each tag's token suffix, indexed by tag value.
_SUFFIXES = np.array([b"" if t is PosTag.UNTAGGED else f"_{t.name}".encode() for t in PosTag])


def _rng(seed: int, domain: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(domain, index)))


class _WordPool:
    """Assigns names and POS tags to word ids as they are created.

    ``tags`` (tag values) and ``tokens`` (a numpy bytes array) are
    indexed by word id, and grow only at era boundaries.
    """

    def __init__(self, config: SynthConfig):
        weights = np.array([config.tag_weights.get(t, 0.0) for t in PosTag], dtype=np.float64)
        self._tag_probs = weights / weights.sum()
        self.tags = np.zeros(0, dtype=np.int64)
        self.tokens = np.zeros(0, dtype="S1")
        self.extend(config.vocabulary, _rng(config.seed, 0, 0))

    def extend(self, count: int, rng: np.random.Generator) -> np.ndarray:
        ids = np.arange(len(self.tags), len(self.tags) + count, dtype=np.int64)
        drawn = rng.choice(POS_COUNT, size=count, p=self._tag_probs)
        self.tags = np.concatenate([self.tags, drawn])
        self.tokens = np.concatenate([self.tokens, np.char.add(_names(ids), _SUFFIXES[drawn])])
        return ids


def _ascii_digits(values: np.ndarray) -> np.ndarray:
    """Decimal digits of non-negative ``values`` as right-aligned ASCII
    columns, one pass per digit position; NUL where a value has no digit."""
    width = len(str(int(values.max(initial=0))))
    out = np.zeros((len(values), width), dtype=np.uint8)
    rest = values.astype(np.uint32 if width < 10 else np.uint64)
    for k in range(width):
        digit = (rest % 10).astype(np.uint8) + 48
        if k:
            digit *= rest > 0
        out[:, width - 1 - k] = digit
        rest //= 10
    return out


def _format_rows(tokens: np.ndarray, year: int, counts: np.ndarray, volumes: np.ndarray) -> bytes:
    r"""The rows ``token\tyear\tcount\tvolumes\n`` as one bytes object.

    ``tokens`` is a numpy bytes array (no token holds a NUL).  Each field
    becomes a block of columns, the blocks are laid side by side and the
    NUL padding is dropped, which leaves the rows in order.
    """
    n = len(tokens)

    def text(s: str) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(s.encode(), dtype=np.uint8), (n, len(s)))

    fields = [tokens.view(np.uint8).reshape(n, -1), text(f"\t{year}\t"), _ascii_digits(counts)]
    grid = np.concatenate([*fields, text("\t"), _ascii_digits(volumes), text("\n")], axis=1)
    return grid[grid != 0].tobytes()


def _apply_churn(
    alive: np.ndarray, pool: _WordPool, config: SynthConfig, era_index: int, pinned: np.ndarray
) -> list[int]:
    """Replace a planted fraction of the churn band's ranks in place.

    Returns the replaced ranks (1-based) so the truth sidecar can expose
    the exact survival history.
    """
    if config.churn == 0 and not config.pos_churn:
        return []
    rng = _rng(config.seed, 1, era_index)
    band = min(config.churn_band, config.vocabulary)
    eligible = np.setdiff1d(np.arange(band, dtype=np.int64), pinned, assume_unique=True)
    if config.pos_churn:
        rates = np.array([config.pos_churn.get(t, config.churn) for t in PosTag], dtype=np.float64)
        probs = rates[pool.tags[alive[eligible]]]
        replaced = eligible[rng.random(len(eligible)) < probs]
    else:
        m = int(round(config.churn * len(eligible)))
        replaced = rng.choice(eligible, size=m, replace=False) if m else eligible[:0]
    replaced = np.sort(replaced)
    if len(replaced):
        alive[replaced] = pool.extend(len(replaced), rng)
    return [int(r) + 1 for r in replaced]


def generate_corpus(
    config: SynthConfig,
    out_dir: str | Path,
    shard_years: int = 25,
    gzip_output: bool = False,
) -> SynthResult:
    """Write synthetic shards, a volumes sidecar and the truth sidecar.

    Returns the created paths.  Raises :class:`ConfigInvalid` on a bad
    ``shard_years``; never emits a line the ingest parser would reject.
    """
    if config.tokens_per_year < 100 * config.vocabulary:
        noisy = "tokens_per_year=%d below the 100*vocabulary=%d recommendation; top-K ranks will be noisy"
        log.warning(noisy, config.tokens_per_year, 100 * config.vocabulary)
    if shard_years < 1:
        raise ConfigInvalid("shard_years must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    V = config.vocabulary
    ranks = np.arange(1, V + 1, dtype=np.float64)
    base_weights = 1.0 / (ranks + config.mandelbrot_offset) ** config.zipf_exponent

    pool = _WordPool(config)
    alive = np.arange(V, dtype=np.int64)
    lo, hi = config.decay_group or (1, 0)  # no decay group pins no ranks
    pinned = np.arange(lo - 1, hi, dtype=np.int64)
    decay_words = _names(alive[pinned]).astype(str).tolist()

    eras = config.eras()
    boundaries = []
    span = config.year_end - config.year_start
    era_index = 0

    shard_paths: list[Path] = []
    chunk_start = config.year_start
    # mtime=0 keeps the time of the run out of the gzip header.
    opener = (lambda p: gzip.GzipFile(p, "wb", mtime=0)) if gzip_output else (lambda p: open(p, "wb"))
    suffix = ".tsv.gz" if gzip_output else ".tsv"

    while chunk_start <= config.year_end:
        chunk_end = min(chunk_start + shard_years - 1, config.year_end)
        path = out / f"synth-{chunk_start}-{chunk_end}{suffix}"
        with opener(path) as fh:
            for year in range(chunk_start, chunk_end + 1):
                new_era = (year - config.year_start) // config.era_length
                if new_era != era_index:
                    era_index = new_era
                    replaced = _apply_churn(alive, pool, config, era_index, pinned)
                    boundaries.append(
                        {
                            "era_start": eras[era_index][0],
                            "replaced": len(replaced),
                            "replaced_ranks": replaced,
                        }
                    )

                weights = base_weights
                if config.decay_group is not None and span > 0:
                    g = 1.0 + (config.decay_factor - 1.0) * (year - config.year_start) / span
                    weights = base_weights.copy()
                    weights[pinned] *= g
                probs = weights / weights.sum()

                rng = _rng(config.seed, 2, year)
                counts = rng.multinomial(config.tokens_per_year, probs)
                vol_p = -np.expm1(-counts / config.volumes_per_year)
                vols = rng.binomial(config.volumes_per_year, vol_p)
                vols = np.minimum(vols, counts)
                vols = np.where(counts > 0, np.maximum(vols, 1), 0)

                nz = np.flatnonzero(counts)
                fh.write(_format_rows(pool.tokens[alive[nz]], year, counts[nz], vols[nz]))
        shard_paths.append(path)
        chunk_start = chunk_end + 1

    volumes_path = out / "volumes.tsv"
    write_text_atomic(volumes_path, "".join(f"{y}\t{config.volumes_per_year}\n" for y in config.years))

    truth = {
        "schema": "lexcore.synth-truth/1",
        "config": config.to_dict(),
        "eras": [list(e) for e in eras],
        "boundaries": boundaries,
        "decay_words": decay_words,
    }
    truth_path = out / "truth.json"
    write_text_atomic(truth_path, dump_json(truth))
    log.info("synthetic corpus written to %s (%d shards)", out, len(shard_paths))
    return SynthResult(tuple(shard_paths), truth_path, volumes_path)
