"""Write the golden configs and record the CLI outputs that
tests/test_golden.py compares against.

    PYTHONPATH=src python tests/data/golden/make_golden.py tests/data/golden [CASE ...]

Run it from a checkout of the commit whose outputs are to be recorded.
Each case gets a directory with config.json, the reports of its
commands and exit_codes.json.  Case names after the output directory
re-record only those cases; without them every case is recorded.

For every recorded file (JSON, CSV and OBJ) that replaces an earlier
recording it prints how many numbers moved and the largest absolute
change of any of them, and flags a change of the text around the
numbers (keys, layout, anything that is not a number).  For every JSON
report it also prints each number that a re-recording may move, from
the file it replaces and from the new recording, one line each: every
family's maximum, the reconstruct distances and residuals, the ruled
deviation and probe residuals, and the Kaehler regular count.
"""

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

from holosphere.cli import main
from holosphere.config import demo_config

REPORTS = {
    "generate": ["diagnostics.json", "surface.csv", "surface.obj"],
    "verify": ["diagnostics.json"],
    "kaehler": ["kaehler_report.json", "kaehler.csv", "kaehler.obj"],
    "ruled": ["ruled_report.json", "ruled.csv", "ruled.obj"],
    "reconstruct": ["reconstruct_report.json"],
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


def generate_demo3():
    return demo3()[0], ["generate"]


def generate_disk2():
    return disk2()[0], ["generate"]


def _reconstruct(n, gauge=None):
    d = demo_config(n)
    if gauge is not None:
        d["reconstruct"]["gauge"] = gauge
    return d, ["reconstruct"]


def reconstruct1():
    return _reconstruct(1)


def reconstruct2_gauge():
    return _reconstruct(2, gauge="exp(0.3*z)")


def reconstruct3():
    return _reconstruct(3)


CASES = [demo2, demo3, degenerate2, degenerate3, disk2, exp2, stencil_hits_singular,
         generate_demo3, generate_disk2,
         reconstruct1, reconstruct2_gauge, reconstruct3]


def case_config(case):
    """The config.json text of a case, and its commands."""
    doc, commands = case()
    if "reconstruct" not in commands:
        doc.pop("reconstruct", None)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", commands


def record(outdir, names=()):
    by_name = {case.__name__: case for case in CASES}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    for case in [by_name[name] for name in names] or CASES:
        text, commands = case_config(case)
        dest = Path(outdir) / case.__name__
        dest.mkdir(parents=True, exist_ok=True)
        config = dest / "config.json"
        config.write_text(text)
        codes = {}
        with tempfile.TemporaryDirectory() as work:
            for command in commands:
                codes[command] = main([command, "--config", str(config),
                                       "--out", work, "--quiet"])
                for name in REPORTS[command]:
                    target = dest / name
                    old = target.read_text() if target.exists() else None
                    shutil.copy(Path(work) / name, target)
                    _print_changes(f"{case.__name__}/{name}", old,
                                   target.read_text())
        (dest / "exit_codes.json").write_text(json.dumps(codes, sort_keys=True) + "\n")


# Top-level numbers of the reconstruct, ruled and kaehler reports
NUMBERS = ("sup_distance", "termination_residual", "holomorphy_residual",
           "max_norm_deviation", "ruling_geodesic_residual", "regular")


# A number in a recorded file, but not the digits of a name such as "F2"
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.])")


def _numbers(label, text):
    """The numbers of a JSON report that a re-recording may move, by
    label, or {} for other files."""
    if not label.endswith(".json"):
        return {}
    doc = json.loads(text)
    found = dict(doc.get("summary", {}))
    found.update((key, doc[key]) for key in NUMBERS if key in doc)
    for i, probe in enumerate(doc.get("probes", [])):
        found[f"probes[{i}].residual"] = probe["residual"]
    return found


def _moves(old, new):
    """(numbers, moved, largest change, text changed) between two
    recordings of a file: a number moved when its text changed, and the
    text changed when the files differ anywhere but in their numbers."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    text_changed = NUMBER.sub("#", old) != NUMBER.sub("#", new)
    changes = [abs(float(x) - float(y)) for x, y in zip(a, b) if x != y]
    return len(b), len(changes), max(changes, default=0.0), text_changed


def _print_changes(label, old, new):
    if old is None:
        print(f"{label}: new file")
        return
    count, moved, largest, text_changed = _moves(old, new)
    flag = "; NON-NUMERIC TEXT CHANGED" if text_changed else ""
    print(f"{label}: {moved} of {count} numbers moved, largest change "
          f"{largest!r}{flag}")
    old_numbers, new_numbers = _numbers(label, old), _numbers(label, new)
    for key in sorted(set(old_numbers) | set(new_numbers)):
        print(f"{label} {key}: {old_numbers.get(key)!r} -> {new_numbers.get(key)!r}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    record(sys.argv[1], sys.argv[2:])
