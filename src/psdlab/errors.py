"""Exception hierarchy shared across the package.

Every error class carries a stable ``exit_code`` so the CLI can map failures
to named nonzero process exit codes (0 is reserved for success). Errors
pickle with their message and attributes intact, so one raised in an
ablation worker reaches the CLI as it was raised.
"""


class PsdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(PsdError):
    """Malformed configuration file, unknown key, or bad flag value."""

    exit_code = 2


class InvalidInputError(PsdError):
    """Shape mismatch, non-finite input, or out-of-range argument."""

    exit_code = 3


class EmptyBatchError(InvalidInputError):
    """An operation that requires at least one pair received none."""


class DegenerateInputError(PsdError):
    """Numerically degenerate input, e.g. a zero row ahead of normalization."""

    exit_code = 4


class FileFormatError(PsdError):
    """Base class for binary file format violations."""

    exit_code = 5


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """File carries an unsupported format version."""


class TruncatedFileError(FileFormatError):
    """Header promises more payload than the file contains."""


class TrailingBytesError(FileFormatError):
    """File holds bytes past the payload its header promises."""


class DimensionOverflowError(FileFormatError):
    """Header dimensions exceed sane bounds for a desk-scale dataset."""


class NonFiniteGradientError(PsdError):
    """Optimizer step aborted because a gradient contained NaN or Inf."""

    exit_code = 6


class DivergenceError(PsdError):
    """Training diverged: a non-finite loss or parameter, a logit scale that
    underflowed to 0, or an encoder output whose norm is zero or overflows
    after the first update. Carries the offending step."""

    exit_code = 6

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")

    def __reduce__(self):
        # An exception pickles as its class called on ``args``, which holds
        # only the message here; the step must come back as the step.
        return type(self), (self.step, *self.args)
