"""`psdlab gradcheck` as a tier-1 gate: every analytic gradient (both losses,
the encoder backward and the probe) agrees with central finite differences,
a NaN gradient fails, and a run that would check no instance is refused."""

import json
import math

import pytest

from psdlab import gradcheck
from psdlab.cli import main
from psdlab.errors import InvalidInputError


def test_gradcheck_passes(tmp_path):
    assert main(["gradcheck", "--quiet", "--seeds", "5", "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "gradcheck.json").read_text())
    assert {r["name"] for r in reports} == {
        "info_nce", "psd_loss", "encoder_backward", "probe_loss", "alpha_one_reduction"}
    assert all(r["passed"] and r["instances"] == 5 for r in reports)


def test_nan_gradient_fails(tmp_path, monkeypatch):
    # Every comparison with NaN is false, so a fold by max() would drop it.
    info_nce = gradcheck.info_nce

    def nan_info_nce(batch, temp):
        lg = info_nce(batch, temp)
        lg.d_image[0, 0] = math.nan
        return lg

    monkeypatch.setattr(gradcheck, "info_nce", nan_info_nce)
    report = gradcheck.check_info_nce(0, 5)
    assert math.isnan(report.worst_rel_error) and not report.passed
    assert main(["gradcheck", "--quiet", "--seeds", "2", "--out", str(tmp_path)]) == 1
    reports = {r["name"]: r for r in json.loads((tmp_path / "gradcheck.json").read_text())}
    assert not reports["info_nce"]["passed"] and not reports["alpha_one_reduction"]["passed"]


@pytest.mark.parametrize("seeds", [0, -1])
def test_seeds_below_one_exit_before_writing(seeds, tmp_path, caplog):
    # Zero instances would report every check as passed, having checked nothing.
    out = tmp_path / "out"
    rc = main(["gradcheck", "--quiet", "--seeds", str(seeds), "--out", str(out)])
    assert rc == InvalidInputError.exit_code == 3
    assert f"seeds must lie in [1, inf), got {seeds}" in caplog.text
    assert not out.exists()
