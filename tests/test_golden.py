"""Outputs of verify, kaehler and ruled on fixed configs, compared with
files recorded before the batched verification engine replaced the
per-point loops.  Every value must match exactly; the `counts` block of
diagnostics.json is newer than the recordings and is left out.

The recordings were made with numpy 2.4.6 and scipy 1.17.1 (bundled
OpenBLAS 0.3.31) on x86-64; another BLAS build can move residuals in
their last bits.  `make_golden.py` writes the configs and records them.
"""

import json
from pathlib import Path

import pytest

from holosphere import build_alpha_chain, chain as chain_module, geometry
from holosphere.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
REPORTS = {
    "verify": ("diagnostics.json",),
    "kaehler": ("kaehler_report.json", "kaehler.csv"),
    "ruled": ("ruled_report.json", "ruled.csv"),
}


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_recording(case, tmp_path):
    src = GOLDEN / case
    codes = json.loads((src / "exit_codes.json").read_text())
    for command, expected in sorted(codes.items()):
        code = main([command, "--config", str(src / "config.json"),
                     "--out", str(tmp_path), "--quiet"])
        assert code == expected, command
        for name in REPORTS[command]:
            got, want = tmp_path / name, src / name
            if name.endswith(".csv"):
                assert got.read_text() == want.read_text(), name
                continue
            doc = json.loads(got.read_text())
            doc.pop("counts", None)
            assert doc == json.loads(want.read_text()), name


def test_verify_call_count_independent_of_grid(monkeypatch):
    calls = []
    original = chain_module.f_chain_eval

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(chain_module, "f_chain_eval", counted)
    monkeypatch.setattr(geometry, "f_chain_eval", counted)
    chain = build_alpha_chain(["1+0.2*z", "1", "1"])
    per_grid = []
    for side in (6, 12):
        calls.clear()
        geometry.verify_all(chain, grid=(side, side), calabi_order=3)
        per_grid.append(len(calls))
    assert per_grid[0] == per_grid[1]
    assert per_grid[0] < 20
