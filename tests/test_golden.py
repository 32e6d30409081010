"""Outputs of generate, verify, reconstruct, kaehler and ruled on fixed
configs, compared with recorded files.  Every value must match exactly.
The verify, kaehler and ruled cases were recorded before the batched
verification engine replaced the per-point loops, and their
diagnostics.json has no `counts` block, so it is left out there; the
generate cases were recorded before the per-point chain samples were
removed, the reconstruct cases with the spectral (Chebyshev grid)
reconstruction at the demo sample grids.

The recordings were made with numpy 2.4.6 (bundled OpenBLAS 0.3.31) on
x86-64; no recorded command uses scipy.  Another BLAS build can move
residuals in their last bits.  `make_golden.py` writes the configs and
records them.
"""

import json
from pathlib import Path

import pytest

from holosphere import build_alpha_chain, chain as chain_module, geometry
from holosphere.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
REPORTS = {
    "generate": ("diagnostics.json", "surface.csv", "surface.obj"),
    "verify": ("diagnostics.json",),
    "kaehler": ("kaehler_report.json", "kaehler.csv"),
    "ruled": ("ruled_report.json", "ruled.csv"),
    "reconstruct": ("reconstruct_report.json",),
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
            if not name.endswith(".json"):
                assert got.read_text() == want.read_text(), name
                continue
            doc, recorded = json.loads(got.read_text()), json.loads(want.read_text())
            if "counts" not in recorded:
                doc.pop("counts", None)
            assert doc == recorded, name


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
