"""The three binary formats (PSDD datasets, PSDW encoder parameters, PSDT
trainer states) share one framing reader: the same five faults fail each
loader with the same ``FileFormatError`` subclass, the version before any
length. A scan keeps the framing checks from being forked again: each
framing fault is raised at one site of the package."""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

from psdlab.cli import main
from psdlab.data import SyntheticSpec, generate, load_pairs, save_pairs
from psdlab.errors import (
    BadMagicError,
    FileFormatError,
    TrailingBytesError,
    TruncatedFileError,
    VersionMismatchError,
)
from psdlab.model import EncoderSpec, init_params, load_params, save_params
from psdlab.numkit import RngState
from psdlab.trainer import TrainConfig, load_checkpoint, save_checkpoint, train

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src/psdlab").glob("*.py"))

SPEC = SyntheticSpec(num_classes=3, latent_dim=4, image_dim=6, text_dim=5,
                     samples_per_class=6, mismatch_rate=0.5, captions_per_image=2)


def write_dataset(tmp_path: Path):
    path = tmp_path / "pairs.psdd"
    save_pairs(generate(SPEC, RngState(3)), path)
    return path, lambda: load_pairs(path)


def write_encoder(tmp_path: Path):
    path = tmp_path / "encoder.psdw"
    save_params(init_params(EncoderSpec(6, (5, 3), 4), RngState(3)), path)
    return path, lambda: load_params(path)


def write_checkpoint(out: Path):
    cfg = TrainConfig(image_encoder=EncoderSpec(6, (), 4), text_encoder=EncoderSpec(5, (), 4),
                      batch_size=9, epochs=1, target_mode="none")
    save_checkpoint(train(cfg, generate(SPEC, RngState(3))), out)


def write_trainer_state(tmp_path: Path):
    write_checkpoint(tmp_path)
    return tmp_path / "trainer_state.psdt", lambda: load_checkpoint(tmp_path)


def v1_trainer_state(params: int = 100) -> bytes:
    """A version-1 trainer state: the version-2 header, then the optimizer
    step and the moment count P, then both moment vectors, 2P doubles."""
    header = struct.pack("<4sIQQQdQQ", b"PSDT", 1, 0, 2, 1, 2.5, 2, params)
    return header + np.zeros(2 * params).tobytes()


def with_version_2(raw: bytes, header_size: int) -> bytes:
    """``raw`` as a version 2 whose header gained a u32 field."""
    return raw[:4] + (2).to_bytes(4, "little") + raw[8:header_size] + b"\0" * 4 + raw[header_size:]


FORMATS = {
    "psdd": (write_dataset, lambda raw: with_version_2(raw, 28)),
    "psdw": (write_encoder, lambda raw: with_version_2(raw, 24)),
    "psdt": (write_trainer_state, lambda raw: v1_trainer_state()),
}

FAULTS = {
    "bad_magic": (lambda raw, other: b"XXXX" + raw[4:], BadMagicError),
    "other_version": (lambda raw, other: other(raw), VersionMismatchError),
    "header_cut": (lambda raw, other: raw[:12], TruncatedFileError),
    "payload_cut": (lambda raw, other: raw[:-1], TruncatedFileError),
    "trailing_bytes": (lambda raw, other: raw + b"\0", TrailingBytesError),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_each_fault_fails_each_format_with_its_error(tmp_path, fmt, fault):
    write, other = FORMATS[fmt]
    corrupt, error = FAULTS[fault]
    path, load = write(tmp_path)
    load()  # the intact file loads
    path.write_bytes(corrupt(path.read_bytes(), other))
    with pytest.raises(error) as caught:
        load()
    assert isinstance(caught.value, FileFormatError) and caught.value.exit_code == 5


def test_eval_names_the_version_of_a_v1_trainer_state(tmp_path, caplog):
    # The version is read before the length: a v1 state is 1616 bytes longer
    # than a v2 header, and must fail as version 1, not as trailing bytes.
    ckpt = tmp_path / "checkpoint"
    write_checkpoint(ckpt)
    (ckpt / "trainer_state.psdt").write_bytes(v1_trainer_state())
    pairs, _ = write_dataset(tmp_path)
    rc = main(["eval", "--quiet", str(ckpt), str(pairs), "--out", str(tmp_path / "eval")])
    assert rc == VersionMismatchError.exit_code == 5
    assert "trainer state version 1, expected 2" in caplog.text


FRAMING_FAULTS = ("BadMagicError", "VersionMismatchError", "TrailingBytesError")


def raise_sites(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each framing fault's ``raise`` statements in the ``sources`` (file
    name to source), as ``file:line``."""
    sites = {name: [] for name in FRAMING_FAULTS}
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name in sites:
                    sites[name].append(f"{path}:{node.lineno}")
    return sites


def test_scan_finds_a_forked_framing_check():
    source = ("def load(raw):\n"
              "    if raw[:4] != b'PSDX':\n"
              "        raise BadMagicError('magic')\n"
              "    raise errors.TrailingBytesError\n")
    assert raise_sites({"a.py": source, "b.py": source}) == {
        "BadMagicError": ["a.py:3", "b.py:3"],
        "VersionMismatchError": [],
        "TrailingBytesError": ["a.py:4", "b.py:4"]}


def test_each_framing_fault_is_raised_at_one_site():
    sites = raise_sites({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert all(len(found) == 1 for found in sites.values()), sites
