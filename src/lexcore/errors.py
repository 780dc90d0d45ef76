"""Exception types raised across the pipeline."""


class LexcoreError(Exception):
    """Base class for all lexcore errors."""


class EmptyYearError(LexcoreError):
    """A year inside the configured range has no lexical tokens."""


class FormatVersionMismatch(LexcoreError):
    """Store file has an unknown magic number, format version or header layout, or verifies but
    breaks the store contract that every built store meets too: unsorted words, column values out
    of range, rows out of (year, pos id) order within a word, or counts that total 2**63 or more."""


class ChecksumMismatch(LexcoreError):
    """Store file is truncated or its checksum does not verify."""


class CountOverflow(LexcoreError):
    """A corpus's or built store's match or volume counts total 2**63 or more, so its sums could wrap."""


class SpanTooShort(LexcoreError):
    """The year span yields fewer than two analysis windows."""


class EmptyWindow(LexcoreError):
    """A window aggregate has no lexical tokens (or no volume total)."""


class MixedCoreMethods(LexcoreError):
    """A core sequence mixes extraction methods or size parameters."""


class EmptyGroup(LexcoreError):
    """No word of a user-supplied group exists in the store dictionary."""


class DegenerateVariance(LexcoreError):
    """Correlation input has zero variance in one of its arguments."""


class TargetUnreachable(LexcoreError):
    """Coverage target exceeds the total frequency mass of the table."""


class ConfigInvalid(LexcoreError):
    """A configuration file or synthetic-corpus config failed validation."""
