"""`psdlab gradcheck` as a tier-1 gate: every analytic gradient (both losses,
the encoder backward and the probe, all on the shared cross-entropy kernel)
agrees with central finite differences."""

import json

from psdlab.cli import main


def test_gradcheck_passes(tmp_path):
    assert main(["gradcheck", "--quiet", "--seeds", "5", "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "gradcheck.json").read_text())
    assert {r["name"] for r in reports} == {
        "info_nce", "psd_loss", "encoder_backward", "probe_loss", "alpha_one_reduction"}
    assert all(r["passed"] and r["instances"] == 5 for r in reports)
