"""Exception hierarchy shared across the package, and the framing of its
binary files.

One error class per exit code: the CLI exits with the failing class's
``exit_code`` (0 is success), and its message says which check fired. Errors
pickle with their message and attributes intact, so one raised in an
ablation worker reaches the CLI as it was raised. ``check_ranges`` judges
every value held to a range or a set of choices, naming its key.

A binary format (PSDD, PSDW, PSDT) is four magic bytes, a u32 version, the
rest of a fixed header, and payload columns that end the file. Each is
declared once, as a ``Framing``, which alone writes, measures and slices its
files and raises ``FileFormatError``; a loader judges only the content, and
names the file in every fault it finds there.
"""

import hashlib
import itertools
import os
import struct

import numpy as np

MAX_COUNT = 1 << 24  # the largest count or dimension a spec or file header may hold


class PsdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(PsdError):
    """Configuration text that cannot be read or parsed, or an unknown key:
    exit 2. A value that parses but lies outside its key's range is an
    InvalidInputError, exit 3."""

    exit_code = 2


class InvalidInputError(PsdError):
    """Shape mismatch, non-finite input, or out-of-range argument, a
    configured value outside its key's range included: exit 3."""

    exit_code = 3


class DegenerateInputError(PsdError):
    """Numerically degenerate input, e.g. a zero row ahead of normalization."""

    exit_code = 4


class FileFormatError(PsdError):
    """A binary file that fails its framing or a header count's range."""

    exit_code = 5


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


def check_ranges(rows) -> None:
    """Raise InvalidInputError for the first of ``rows`` that fails: a row
    is ``(key, value, ok, rule)``, ``ok`` written so that NaN fails, and the
    message reads ``{key} must {rule}, got {value!r}``."""
    for key, value, ok, rule in rows:
        if not ok:
            raise InvalidInputError(f"{key} must {rule}, got {value!r}")


def within(key: str, value, interval: str) -> tuple:
    """The row holding ``value`` to ``interval``, e.g. ``"[0, 1)"``: a square
    bracket takes its end in, a round one leaves it out, and NaN fails."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    ok = (lo <= value if interval[0] == "[" else lo < value) and (
        value <= hi if interval[-1] == "]" else value < hi)
    return key, value, ok, f"lie in {interval}"


class Framing:
    """One binary format, declared once: its magic, its version, the struct
    codes of its fixed header's fields after those two, and the dtypes of its
    payload's columns in file order, all little-endian. ``name`` says in
    messages which kind of file failed."""

    def __init__(self, name: str, magic: bytes, version: int, fields: str, columns=()):
        self.name, self.magic, self.version = name, magic, version
        self.header = struct.Struct("<4sI" + fields)
        self.columns = tuple(np.dtype(c) for c in columns)

    def write(self, path, fields: tuple, columns=()) -> str:
        """Write the header holding ``fields``, then each of ``columns``, an
        array cast to its column's dtype and laid out in C order, and return
        the hex sha256 of the bytes written, hashed as they are written."""
        blocks = (np.ascontiguousarray(a, t) for a, t in zip(columns, self.columns, strict=True))
        digest = hashlib.sha256()
        with open(path, "wb") as f:
            for block in (self.header.pack(self.magic, self.version, *fields), *blocks):
                digest.update(block)
                f.write(block)
        return digest.hexdigest()

    def read(self, path) -> tuple[memoryview, tuple]:
        """The file's bytes and its header fields after magic and version,
        checking the magic, then the version before any length (the layout
        belongs to the version), then the header's length.

        The bytes are read once into a writable buffer placed so that the
        payload starts 8-byte aligned: ``payload``'s columns are views into
        it, never a second copy of the file."""
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            buf = np.empty(size + 8, dtype=np.uint8)
            pad = -(buf.ctypes.data + self.header.size) % 8
            raw = memoryview(buf)[pad:pad + size]
            raw = raw[:f.readinto(raw)]
        if raw[:4] != self.magic:
            raise FileFormatError(f"{path}: not a {self.name}, expected magic {self.magic!r}")
        version = int.from_bytes(raw[4:8], "little")
        if len(raw) >= 8 and version != self.version:
            raise FileFormatError(
                f"{path}: {self.name} version {version}, expected {self.version}")
        if len(raw) < self.header.size:
            raise FileFormatError(f"{path}: {self.name} header incomplete, "
                                  f"{len(raw)} of {self.header.size} bytes")
        return raw, self.header.unpack_from(raw)[2:]

    def check_counts(self, path, least: int, **fields) -> None:
        """FileFormatError unless every count of each header field, one count
        or an array of them, lies in [``least``, ``MAX_COUNT``]."""
        for field, counts in fields.items():
            counts = np.atleast_1d(counts)
            bad = counts[(counts < least) | (counts > MAX_COUNT)]
            if bad.size:
                raise FileFormatError(f"{path}: {self.name} header field {field} must lie in "
                                      f"[{least}, {MAX_COUNT}], got {int(bad[0])}")

    def payload(self, raw: memoryview, path, counts=(), exact: bool = True) -> list[np.ndarray]:
        """The first ``len(counts)`` columns of ``raw`` from ``read``, each as a
        flat view of its count of items, or FileFormatError unless ``raw``
        holds them all and (``exact``) ends there."""
        sizes = [count * dtype.itemsize for count, dtype in zip(counts, self.columns)]
        offsets = list(itertools.accumulate(sizes, initial=self.header.size))
        start, end = offsets[0], offsets[-1]
        if len(raw) < end:
            raise FileFormatError(f"{path}: {self.name} payload holds {len(raw) - start} "
                                  f"bytes, header promises {end - start}")
        if exact and len(raw) > end:
            raise FileFormatError(
                f"{path}: {len(raw) - end} bytes follow the payload of the {self.name}")
        return [np.frombuffer(raw, dtype, count, offset)
                for count, dtype, offset in zip(counts, self.columns, offsets)]
