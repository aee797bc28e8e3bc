"""Exception types shared across the package.

Every error raised on a contract violation derives from UcsError so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""

from __future__ import annotations


class UcsError(Exception):
    """Base class for all package-specific errors."""


class BadMagic(UcsError):
    """File does not start with the expected magic bytes."""


class DimensionOverflow(UcsError):
    """Declared dimensions disagree with the payload size or exceed limits."""


class NonFiniteValue(UcsError):
    """A NaN or Inf was found where only finite values are allowed."""


class IoError(UcsError):
    """Underlying read/write failure."""


class MissingInput(IoError):
    """A file or directory to be read does not exist."""


class ParseError(UcsError):
    """Text input could not be parsed; message names the offending line."""


class EmptyMask(UcsError):
    """Token mask sums to zero, so pooling is undefined."""


class TooFewRows(UcsError):
    """Fitting requires more rows than were provided."""


class DegenerateInput(UcsError):
    """Input matrix carries no signal (e.g. all-zero embeddings)."""


class MisalignedSources(UcsError):
    """Multi-source inputs must agree on the number of rows."""


class TooFewPoints(UcsError):
    """Neighborhood statistics need more points than were provided."""


class IndexOutOfRange(UcsError, ValueError):
    """A set of rows names a row that does not exist; also a ValueError."""


class SingularKernel(UcsError):
    """Kernel submatrix could not be factorized even after jitter."""


class EmptyCandidateList(UcsError):
    """Subset selection was handed no candidates."""


class ConfigError(UcsError):
    """Invalid configuration key or value."""
