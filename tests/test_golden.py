"""Outputs of generate, verify, reconstruct, kaehler and ruled on fixed
configs, compared byte for byte with recorded files, so that a change
of sign of a zero, of float text or of layout shows as well.

The recordings were made with numpy 2.4.6 (bundled OpenBLAS 0.3.31) on
x86-64; no recorded command uses scipy.  Another BLAS build can move
residuals in their last bits: the reconstruct reports most, since every
spectral product there is a real BLAS matmul on the interleaved real
and imaginary parts of the samples, whose rounding follows the BLAS
kernel.  `make_golden.py` writes the configs and records them.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from holosphere import build_alpha_chain, chain as chain_module, geometry
from holosphere.cli import main
from holosphere.config import load_config

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
REPORTS = {
    "generate": ("diagnostics.json", "surface.csv", "surface.obj"),
    "verify": ("diagnostics.json",),
    "kaehler": ("kaehler_report.json", "kaehler.csv", "kaehler.obj"),
    "ruled": ("ruled_report.json", "ruled.csv", "ruled.obj"),
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
            assert got.read_bytes() == want.read_bytes(), name


@pytest.mark.parametrize("case", [case for case in CASES
                                  if (GOLDEN / case / "diagnostics.json").exists()])
def test_point_residuals_follow_the_arrays(case):
    # a family appears in a point's recorded residuals exactly where its
    # residual array is not NaN, and the counts agree with both
    cfg = load_config(GOLDEN / case / "config.json")
    report = geometry.verify_all(
        build_alpha_chain(cfg.betas, cfg.constants, cfg.domain), grid=cfg.grid,
        fd_step=cfg.fd_step, calabi_order=cfg.calabi_order, perturb=cfg.perturb)
    doc = json.loads((GOLDEN / case / "diagnostics.json").read_text())
    assert sorted(report.residuals) == sorted(doc["counts"])
    for fam, values in report.residuals.items():
        present = [fam in point["residuals"] for point in doc["points"]]
        assert present == (~np.isnan(values)).tolist(), fam
        evaluated = sum(present)
        assert (doc["counts"][fam] == report.counts[fam]
                == {"evaluated": evaluated, "skipped": len(present) - evaluated})


def test_verify_call_count_independent_of_grid(monkeypatch):
    points = []   # the size of each chain evaluation
    original = chain_module.f_chain_eval

    def counted(chain, zs, *args, **kwargs):
        points.append(np.size(zs))
        return original(chain, zs, *args, **kwargs)

    monkeypatch.setattr(chain_module, "f_chain_eval", counted)
    monkeypatch.setattr(geometry, "f_chain_eval", counted)
    chain = build_alpha_chain(["1+0.2*z", "1", "1"])
    per_grid = []
    for side in (6, 12):
        points.clear()
        geometry.verify_all(chain, grid=(side, side), calabi_order=3)
        per_grid.append(len(points))
    assert per_grid[0] == per_grid[1]
    assert per_grid[0] < 20
    # a block's centres and every stencil point its reads need there are
    # one evaluation of at most 8,192 points: at order 4 a centre may
    # need 70, one per distinct displacement and itself, so the 100
    # centres fit one block
    demo3 = build_alpha_chain(["1", "1", "1"])
    for order, total, calls in ((3, 2404, 1), (4, 4452, 1)):
        points.clear()
        geometry.verify_all(demo3, grid=(10, 10), calabi_order=order)
        assert (sum(points), len(points)) == (total, calls)
        assert max(points) <= chain_module._SCAN_BLOCK
    # at default settings every FD family reads the centres and eight
    # further points per centre at each of the steps h and h/2: the
    # stencils' (0, 0) offsets read the centre's own row
    points.clear()
    report = geometry.verify_all(build_alpha_chain(["1", "1"]), grid=(10, 10))
    centres = report.counts["minimality"]["evaluated"]
    assert report.counts["calabi"]["evaluated"] == centres == 64
    assert sum(points) == 100 + 16 * centres == 1124
    assert len(points) == 1


def _recorder():
    spec = importlib.util.spec_from_file_location("make_golden",
                                                  GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_writes_the_committed_configs():
    recorder = _recorder()
    assert sorted(case.__name__ for case in recorder.CASES) == CASES
    for case in recorder.CASES:
        text, commands = recorder.case_config(case)
        src = GOLDEN / case.__name__
        assert (src / "config.json").read_bytes() == text.encode(), case.__name__
        codes = json.loads((src / "exit_codes.json").read_text())
        assert sorted(codes) == sorted(commands), case.__name__
