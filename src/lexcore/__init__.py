"""lexcore: vocabulary-core dynamics from yearly 1-gram counts.

Pipeline: ingest TSV shards into a compact store, aggregate year
windows, extract frequency-ranked or book-share vocabulary cores, and
compute turnover, coverage, overlap, correlation and POS structure.
A synthetic-corpus generator with planted ground truth provides an
independent oracle for every metric at desk scale.
"""

__version__ = "0.1.0"

from .alphabets import PRESETS as ALPHABET_PRESETS
from .alphabets import AlphabetSpec, alphabet_preset
from .config import RunConfig, config_from_dict, load_config
from .errors import (
    ChecksumMismatch,
    ConfigInvalid,
    CountOverflow,
    DegenerateVariance,
    EmptyGroup,
    EmptyWindow,
    EmptyYearError,
    FormatVersionMismatch,
    LexcoreError,
    MixedCoreMethods,
    SpanTooShort,
    TargetUnreachable,
    WildcardToken,
)
from .ingest import IngestStats, build_store, is_lexical, split_pos
from .metrics import (
    MetricSeries,
    OverlapReport,
    TransitionPartition,
    core_size_for_coverage,
    coverage_series,
    dropout_share,
    group_frequency_series,
    overlap_report,
    partition_core_transition,
    pearson_correlation,
    pos_composition,
    pos_dropout,
    turnover_series,
)
from .postags import PosTag
from .store import CorpusStore, load_store, save_store
from .synth import PRESETS as SYNTH_PRESETS
from .synth import SynthConfig, generate_corpus
from .windows import (
    BOOK_SHARE,
    CORE_1800_WINDOW,
    CORE_2000_WINDOW,
    RANK_K,
    Core,
    WindowSpec,
    WindowTable,
    aggregate_window,
    bookshare_core,
    frequency_core,
    standard_windows,
    write_core,
)
