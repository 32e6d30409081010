"""Write the golden configs and record the CLI outputs that
tests/test_golden.py compares against.

    PYTHONPATH=src python tests/data/golden/make_golden.py tests/data/golden

Run it from a checkout of the commit whose outputs are to be recorded.
Each case gets a directory with config.json, the reports of its
commands and exit_codes.json.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from holosphere.cli import main
from holosphere.config import demo_config

REPORTS = {
    "verify": ["diagnostics.json"],
    "kaehler": ["kaehler_report.json", "kaehler.csv"],
    "ruled": ["ruled_report.json", "ruled.csv"],
}


def demo2():
    d = demo_config(2)
    d["grid"] = {"rows": 6, "cols": 6}
    d["kaehler"].update(z_grid={"rows": 3, "cols": 3}, w_samples=2)
    return d, ["verify", "kaehler"]


def demo3():
    d = demo_config(3)
    d["grid"] = {"rows": 6, "cols": 6}
    d["kaehler"].update(z_grid={"rows": 2, "cols": 2}, w_samples=2)
    d["ruled"]["probe_points"] = 2
    return d, ["verify", "kaehler", "ruled"]


def degenerate2():
    # the chain degenerates at z = 0, a point of both grids
    d = demo_config(2)
    d["betas"] = ["z", "1"]
    d["grid"] = {"rows": 5, "cols": 5}
    d["kaehler"].update(z_grid={"rows": 3, "cols": 3}, w_samples=1)
    return d, ["verify", "kaehler"]


def degenerate3():
    d = demo_config(3)
    d["betas"] = ["z", "1", "1"]
    d["grid"] = {"rows": 5, "cols": 5}
    d.pop("kaehler")
    d["ruled"]["probe_points"] = 1
    return d, ["verify", "ruled"]


def disk2():
    d = demo_config(2)
    d["betas"] = ["1+(0.2+0.1*i)*z", "1-0.3*z"]
    d["domain"] = {"shape": "disk", "center": [0.1, -0.05], "radius": 1.0,
                   "base_point": [0.0, 0.0]}
    d["grid"] = {"rows": 7, "cols": 7}
    d["calabi"] = {"max_order": 4}
    d["fd_step"] = 2e-4
    d["perturb"] = {"target": "F3", "magnitude": 1e-6}
    d["kaehler"].update(z_grid={"rows": 3, "cols": 3}, w_samples=1,
                        gamma="2+x-0.5*y^2")
    return d, ["verify", "kaehler"]


def exp2():
    d = demo_config(2)
    d["betas"] = ["exp((0.5+0.2*i)*z)", "cos(0.4*z)"]
    d["grid"] = {"rows": 4, "cols": 4}
    d["calabi"] = {"max_order": 3}
    d.pop("kaehler")
    return d, ["verify"]


def stencil_hits_singular():
    # h = 0.5 equals the grid spacing, so the stencils of the neighbours
    # of z = 0 (and of the line where the normalization collapses) reach
    # degenerate points while their centres are regular
    d = demo_config(2)
    d["betas"] = ["z", "1"]
    d["domain"]["corners"] = [[-2.0, -2.0], [2.0, 2.0]]
    d["grid"] = {"rows": 9, "cols": 9}
    d["fd_step"] = 0.5
    d.pop("kaehler")
    return d, ["verify"]


CASES = [demo2, demo3, degenerate2, degenerate3, disk2, exp2, stencil_hits_singular]


def record(outdir):
    for case in CASES:
        doc, commands = case()
        doc.pop("reconstruct", None)
        dest = Path(outdir) / case.__name__
        dest.mkdir(parents=True, exist_ok=True)
        config = dest / "config.json"
        config.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        codes = {}
        with tempfile.TemporaryDirectory() as work:
            for command in commands:
                codes[command] = main([command, "--config", str(config),
                                       "--out", work, "--quiet"])
                for name in REPORTS[command]:
                    shutil.copy(Path(work) / name, dest / name)
        (dest / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1])
