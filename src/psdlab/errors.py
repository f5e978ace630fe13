"""Exception hierarchy shared across the package, and the framing of its
binary files.

Every error class carries a stable ``exit_code`` so the CLI can map failures
to named nonzero process exit codes (0 is reserved for success). Errors
pickle with their message and attributes intact, so one raised in an
ablation worker reaches the CLI as it was raised.

The framing of the binary formats (PSDD, PSDW, PSDT) is four magic bytes, a
u32 version, the rest of a fixed header, and a payload that ends the file.
One ``Framing`` per format writes it and checks it on reading, raising the
``FileFormatError`` subclasses; each format checks only its content.
"""

import struct
from pathlib import Path


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


class Framing:
    """One binary format's frame: its magic, its version and the struct codes
    of its fixed header's fields after those two, all little-endian. ``name``
    says in messages which kind of file failed."""

    def __init__(self, name: str, magic: bytes, version: int, fields: str):
        self.name, self.magic, self.version = name, magic, version
        self.header = struct.Struct("<4sI" + fields)

    def write(self, path, fields: tuple, parts=()) -> None:
        """Write the header holding ``fields``, then each part, bytes or a
        C-contiguous array."""
        with open(path, "wb") as f:
            f.write(self.header.pack(self.magic, self.version, *fields))
            for part in parts:
                f.write(part)

    def read(self, path) -> tuple[bytes, tuple]:
        """The file's bytes and its header fields after magic and version,
        checking the magic, then the version before any length (the layout
        belongs to the version), then the header's length."""
        raw = Path(path).read_bytes()
        if raw[:4] != self.magic:
            raise BadMagicError(f"{path}: not a {self.name}, expected magic {self.magic!r}")
        version = int.from_bytes(raw[4:8], "little")
        if len(raw) >= 8 and version != self.version:
            raise VersionMismatchError(
                f"{path}: {self.name} version {version}, expected {self.version}")
        if len(raw) < self.header.size:
            raise TruncatedFileError(f"{path}: {self.name} header incomplete, "
                                     f"{len(raw)} of {self.header.size} bytes")
        return raw, self.header.unpack_from(raw)[2:]

    def check_end(self, raw: bytes, path, end: int, exact: bool = True) -> None:
        """TruncatedFileError unless ``raw`` reaches ``end``, the offset past
        what the header promises, and (``exact``) TrailingBytesError unless
        it ends there."""
        size = self.header.size
        if len(raw) < end:
            raise TruncatedFileError(f"{path}: {self.name} payload holds {len(raw) - size} "
                                     f"bytes, header promises {end - size}")
        if exact and len(raw) > end:
            raise TrailingBytesError(
                f"{path}: {len(raw) - end} bytes follow the payload of the {self.name}")
