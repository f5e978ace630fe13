"""The three binary formats (PSDD datasets, PSDW encoder parameters, PSDT
trainer states) share one framing reader: each of five faults fails each
loader with a ``FileFormatError`` whose message names the file, the format
and the fault, the version before any length. Two scans keep the framing
from being forked again: no module of the package but ``errors.py`` raises
``FileFormatError`` or slices a payload with ``np.frombuffer``."""

import ast
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from psdlab.cli import main
from psdlab.data import SyntheticSpec, generate, load_pairs, save_pairs
from psdlab.errors import FileFormatError
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


def v1_dataset(raw: bytes) -> bytes:
    """``raw``, a version-2 dataset, as version 1: the same header, and a
    u32 table of each image's caption rows between the text features and
    the labels, n*m entries."""
    n, m, image_dim, text_dim = struct.unpack_from("<IIII", raw, 8)
    end = 28 + 8 * n * (image_dim + m * text_dim)
    return (raw[:4] + (1).to_bytes(4, "little") + raw[8:end]
            + np.arange(n * m, dtype="<u4").tobytes() + raw[end:])


def with_version_2(raw: bytes, header_size: int) -> bytes:
    """``raw`` as a version 2 whose header gained a u32 field."""
    return raw[:4] + (2).to_bytes(4, "little") + raw[8:header_size] + b"\0" * 4 + raw[header_size:]


FORMATS = {
    "psdd": (write_dataset, v1_dataset, "dataset"),
    "psdw": (write_encoder, lambda raw: with_version_2(raw, 24), "parameter file"),
    "psdt": (write_trainer_state, lambda raw: v1_trainer_state(), "trainer state"),
}

# Each fault, and the stem of the message that names it.
FAULTS = {
    "bad_magic": (lambda raw, other: b"XXXX" + raw[4:], "expected magic"),
    "other_version": (lambda raw, other: other(raw), r"version \d+, expected \d+"),
    "header_cut": (lambda raw, other: raw[:12], "header incomplete"),
    "payload_cut": (lambda raw, other: raw[:-1], "payload holds"),
    "trailing_bytes": (lambda raw, other: raw + b"\0", "bytes follow the payload"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_each_fault_fails_each_format_with_its_error(tmp_path, fmt, fault):
    write, other, name = FORMATS[fmt]
    corrupt = FAULTS[fault][0]
    path, load = write(tmp_path)
    load()  # the intact file loads
    path.write_bytes(corrupt(path.read_bytes(), other))
    with pytest.raises(FileFormatError) as caught:
        load()
    message = str(caught.value)
    # A trainer state is all header, so cutting its last byte cuts the header.
    named = "header_cut" if (fmt, fault) == ("psdt", "payload_cut") else fault
    assert [f for f, (_, stem) in FAULTS.items() if re.search(stem, message)] == [named]
    assert message.startswith(f"{path}: ") and name in message
    assert caught.value.exit_code == 5


def test_eval_names_the_version_of_a_v1_trainer_state(tmp_path, caplog):
    # The version is read before the length: a v1 state is 1616 bytes longer
    # than a v2 header, and must fail as version 1, not as trailing bytes.
    ckpt = tmp_path / "checkpoint"
    write_checkpoint(ckpt)
    (ckpt / "trainer_state.psdt").write_bytes(v1_trainer_state())
    pairs, _ = write_dataset(tmp_path)
    rc = main(["eval", "--quiet", str(ckpt), str(pairs), "--out", str(tmp_path / "eval")])
    assert rc == FileFormatError.exit_code == 5
    assert "trainer state version 1, expected 2" in caplog.text


def test_train_names_the_version_of_a_v1_dataset(tmp_path, caplog):
    # A v1 dataset is n*m*4 bytes longer than its v2 payload, and must fail
    # as version 1, not as trailing bytes; there is no conversion.
    path, _ = write_dataset(tmp_path)
    path.write_bytes(v1_dataset(path.read_bytes()))
    rc = main(["train", "--quiet", "--dataset", str(path), "--out", str(tmp_path / "out")])
    assert rc == FileFormatError.exit_code == 5
    assert f"{path}: dataset version 1, expected 2" in caplog.text
    assert not (tmp_path / "out").exists()


def file_fault_raises(sources: dict[str, str]) -> list[str]:
    """The ``raise`` statements of ``FileFormatError`` in the ``sources``
    (file name to source), as ``file:line``."""
    sites = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "FileFormatError":
                    sites.append(f"{path}:{node.lineno}")
    return sites


def test_scan_finds_a_forked_framing_check():
    # load_pairs with its own header check planted back, as it once had.
    source = (ROOT / "src/psdlab/data.py").read_text(encoding="utf-8")
    loader = "def load_pairs(path) -> PairedDataset:\n"
    line = source[:source.index(loader)].count("\n") + 2
    planted = source.replace(loader, loader + "    raise FileFormatError(f'{path}: n too big')\n"
                                               "    raise errors.FileFormatError\n")
    assert file_fault_raises({"data.py": planted}) == [f"data.py:{line}", f"data.py:{line + 1}"]


def test_each_framing_fault_is_raised_at_one_site():
    # The one site is errors.Framing: no loader raises a file fault itself.
    sites = file_fault_raises({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert sites and all(site.startswith("errors.py:") for site in sites), sites


def payload_slices(sources: dict[str, str]) -> list[str]:
    """The calls of ``frombuffer`` in the ``sources`` (file name to source),
    as ``file:line``."""
    return [f"{path}:{node.lineno}" for path, source in sources.items()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "frombuffer"]


def test_scan_finds_a_forked_payload_slice():
    # load_pairs with its own offset arithmetic planted back, as it once had.
    source = (ROOT / "src/psdlab/data.py").read_text(encoding="utf-8")
    loader = "def load_pairs(path) -> PairedDataset:\n"
    line = source[:source.index(loader)].count("\n") + 2
    planted = source.replace(loader, loader + "    labels = np.frombuffer(raw, '<u4', n, off)\n"
                                               "    flags = frombuffer(raw, '<u1', n, off + n)\n")
    assert payload_slices({"data.py": planted}) == [f"data.py:{line}", f"data.py:{line + 1}"]


def test_each_payload_is_sliced_at_one_site():
    # The one site is errors.Framing.payload: no loader computes an offset.
    sites = payload_slices({p.name: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert sites and all(site.startswith("errors.py:") for site in sites), sites
