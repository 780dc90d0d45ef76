"""Exception types raised across the pipeline."""


class LexcoreError(Exception):
    """Base class for all lexcore errors."""


class WildcardToken(LexcoreError):
    """A POS-only synthetic token (e.g. ``_NOUN_``) that must be discarded."""


class EmptyYearError(LexcoreError):
    """A year inside the configured range has no lexical tokens."""


class FormatVersionMismatch(LexcoreError):
    """Store file has an unknown magic number, format version or header layout."""


class ChecksumMismatch(LexcoreError):
    """Store file is truncated or its checksum does not verify."""


class CountOverflow(LexcoreError):
    """A sum of counts reaches 2**63, beyond the int64 counts a store holds."""


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
