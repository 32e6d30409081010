"""Seeded workloads: the jobs of one pass and the checks on their outputs.

Every workload is a list of jobs built from the workload seed.  A job is
one `holosphere.cli.main` invocation or one library surface job; its
`run` is the timed part and its `check` reads what the job produced.

Inputs never vanish on the domain: polynomial betas are 1 + c z with
|c| <= 0.3, transcendental betas are exp(a z), sin(a z) + 2, cos(a z)
with |a| <= 1 (so |a z| < pi/2 on [-1, 1]^2) and 1/(z - p) with
|p| >= 3.  Only parameters are drawn from the seed; the job mix, the
grid sizes and the function families are fixed, so every seed asks for
the same amount of work.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from holosphere import Domain, chain, cli, meshio, reconstruct
from holosphere.config import demo_config
from holosphere.errors import NotPseudoholomorphicError
from holosphere.geometry import SurfaceEvaluator

NAMES = ("bulk-surface", "pointwise-checks", "roundtrip", "transcendental")

# Grid and sample sizes.  "tiny" only serves the smoke test.
SIZES = {
    "full": {
        "bulk_grid": 128,
        "verify_grid": 10,
        "kaehler": {2: None, 3: (2, 2)},   # (z-grid side, w-samples); None: sample block
        "probe_points": 5,
        "sample_grid": None,
        "trans_grid": {2: 6, 3: 4},
    },
    "tiny": {
        "bulk_grid": 12,
        "verify_grid": 4,
        "kaehler": {2: (2, 1), 3: (2, 1)},
        "probe_points": 1,
        "sample_grid": 13,
        "trans_grid": {2: 3, 3: 2},
    },
}

UNIT_NORM_TOL = 1e-12
PROBE_TOL = 1e-3
GEODESIC_TOL = 1e-6


class Check:
    """Outcome of one job.

    `failure` is set for every failed job.  `wrong` is set only when the
    program reported success (or crashed) and its output is wrong, which
    makes the whole run incorrect; a failure that the program itself
    reports, such as exit code 2 on a valid input, is counted as failed
    but is not a wrong output.
    """

    def __init__(self):
        self.failure = None
        self.wrong = None
        self.margins = []
        self.observed = {}

    def fail(self, reason):
        if self.failure is None:
            self.failure = reason

    def bad(self, reason):
        if self.wrong is None:
            self.wrong = reason
        self.fail(reason)

    def within(self, label, value, tol):
        """Record log10(tol / value) and fail when value exceeds tol.
        A zero value leaves no finite margin and records none."""
        if value is None or (isinstance(value, float) and math.isnan(value)):
            self.fail(f"{label}: no value")
            return False
        if value > 0:
            self.margins.append(math.log10(tol / value))
        if value > tol:
            self.fail(f"{label} {value:.3e} > {tol:.1e}")
            return False
        return True


@dataclass
class Job:
    name: str
    outdir: Path
    run: Callable[[], object]           # the timed part
    check: Callable[[object], Check]    # reads what `run` returned and wrote


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _cplx(c):
    return f"({c.real:.6f}{c.imag:+.6f}*i)"


def _polar(rng, lo, hi):
    return (lo + (hi - lo) * rng.random()) * np.exp(2j * np.pi * rng.random())


def poly_beta(rng):
    return f"1+{_cplx(_polar(rng, 0.0, 0.3))}*z"


def transcendental_beta(rng, family):
    if family == "pole":
        return f"1/(z-{_cplx(_polar(rng, 3.0, 4.0))})"
    a = _cplx(_polar(rng, 0.3, 1.0))
    return {"exp": f"exp({a}*z)", "sin": f"sin({a}*z)+2", "cos": f"cos({a}*z)"}[family]


def config_doc(n, betas, grid, blocks=()):
    """A job config in the layout of the built-in samples.  `blocks`
    names the sample's kaehler/ruled/reconstruct blocks to keep."""
    sample = demo_config(min(n, 3))
    doc = {
        "n": n,
        "betas": betas,
        "integration_constants": [[[0.0, 0.0]] * (2 * r + 1) for r in range(n)],
        "domain": sample["domain"],
        "grid": {"rows": grid, "cols": grid},
        "eps_singular": 1e-12,
        "calabi": {"max_order": 2},
        "output": {"obj_components": [1, 2, 3], "formats": ["obj", "csv"]},
    }
    for name in blocks:
        doc[name] = sample[name]
    return doc


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _exit_code(code, chk, expected=0):
    if code != expected:
        chk.fail(f"exit code {code}")


def _consistent(code, passed, chk):
    """Exit 0 must mean PASS and exit 2 FAIL."""
    if (code == 0) != bool(passed):
        chk.bad(f"exit code {code} disagrees with passed={passed}")


def check_diagnostics(outdir, code, files=()):
    chk = Check()
    _exit_code(code, chk)
    doc = _read(outdir / "diagnostics.json")
    for fam, value in sorted(doc["summary"].items()):
        chk.within(fam, value, doc["tolerances"][fam])
    _consistent(code, doc["passed"], chk)
    for name in files:
        if not (outdir / name).is_file():
            chk.bad(f"missing {name}")
    return chk


def check_generate(outdir, code):
    return check_diagnostics(outdir, code, ("surface.obj", "surface.csv"))


def check_reconstruct(outdir, code):
    chk = Check()
    doc = _read(outdir / "reconstruct_report.json")
    chk.observed["reconstruct.termination_residual"] = doc["termination_residual"]
    if doc["refused"]:
        chk.fail(f"refused a valid surface ({doc['termination_residual']:.3e})")
        chk.within("termination residual", doc["termination_residual"], 1e-2)
        if code != 2:
            chk.bad(f"refusal with exit code {code}")
        return chk
    _exit_code(code, chk)
    chk.within("sup distance", doc["sup_distance"], doc["tolerance"])
    chk.within("termination residual", doc["termination_residual"], 1e-2)
    _consistent(code, doc["passed"], chk)
    return chk


def check_kaehler(outdir, code):
    chk = Check()
    _exit_code(code, chk)
    doc = _read(outdir / "kaehler_report.json")
    allowed = 1.0 - doc["min_regular_fraction"]
    chk.within("irregular fraction", 1.0 - doc["fraction_regular"], allowed)
    _consistent(code, doc["passed"], chk)
    return chk


def check_ruled(outdir, code):
    chk = Check()
    _exit_code(code, chk)
    doc = _read(outdir / "ruled_report.json")
    chk.within("unit-norm deviation", doc["max_norm_deviation"], UNIT_NORM_TOL)
    for probe in doc["probes"]:
        if not probe["degenerate"]:
            chk.within("minimality probe", probe["residual"], PROBE_TOL)
    chk.within("geodesic residual", doc["ruling_geodesic_residual"], GEODESIC_TOL)
    _consistent(code, doc["passed"], chk)
    return chk


def check_surface(result):
    scan, mesh = result
    chk = Check()
    rows = scan.surface[scan.valid]
    dev = float(np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0))) if rows.size else 0.0
    if not chk.within("unit-norm deviation", dev, UNIT_NORM_TOL):
        chk.bad("surface row off the unit sphere")
    if not scan.valid.any():
        chk.bad("no valid grid point")
    faces = np.asarray(mesh.faces, dtype=int).reshape(-1, 4)
    if faces.size and (faces.min() < 0 or faces.max() >= len(mesh.vertices)):
        chk.bad("face references a missing vertex")
    if len(mesh.vertices) != int(scan.valid.sum()):
        chk.bad("vertex count differs from valid point count")
    return chk


def check_refusal(result):
    chk = Check()
    if not isinstance(result, NotPseudoholomorphicError):
        chk.bad("non-minimal surface was not refused")
        return chk
    # The refusal should hold by a clear factor: record threshold/residual.
    chk.within("refusal ratio", 1e-2 / result.residual, 1.0)
    return chk


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _cli_job(name, workdir, command, doc, check):
    outdir = workdir / name
    cfg = workdir / f"{name}.json"
    with open(cfg, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    argv = [command, "--config", str(cfg), "--out", str(outdir), "--quiet"]
    return Job(name, outdir, lambda: cli.main(argv), lambda code: check(outdir, code))


def _surface_job(name, workdir, betas, domain, grid):
    outdir = workdir / name

    # Calls go through the modules so that the tracer's wrappers are seen.
    def run():
        surface_chain = chain.build_alpha_chain(betas, domain=domain)
        scan = chain.scan_grid(surface_chain, grid, grid)
        mesh = meshio.mesh_from_grid(scan.valid, scan.surface)
        meshio.write_obj(mesh, outdir / "surface.obj")
        meshio.write_surface_csv(scan, outdir / "surface.csv")
        meshio.write_ply(mesh, outdir / "surface.ply")
        return scan, mesh

    return Job(name, outdir, run, check_surface)


def _small_sphere(c):
    """A round but non-great 2-sphere in S^4: not minimal, so its chain
    does not terminate and reconstruction must refuse it."""

    def func(zs):
        out = np.empty((zs.size, 5))
        d = 1 + np.abs(zs) ** 2
        out[:, 0] = c
        out[:, 1] = 2 * zs.real / d
        out[:, 2] = 2 * zs.imag / d
        out[:, 3] = (np.abs(zs) ** 2 - 1) / d
        out[:, 4] = 0.0
        return out / np.sqrt(1 + c * c)

    return SurfaceEvaluator(func=func, domain=Domain.rectangle(-1 - 1j, 1 + 1j),
                            dim=5, n=2)


def _sphere_job(name, workdir, c, sample_grid):
    def run():
        try:
            reconstruct.roundtrip(_small_sphere(c), grid=(6, 6),
                      sample_grid=(sample_grid, sample_grid))
        except NotPseudoholomorphicError as exc:
            return exc
        return None

    return Job(name, workdir / name, run, check_refusal)


def bulk_surface(rng, workdir, size):
    domains = {
        "rect": Domain.rectangle(-1 - 1j, 1 + 1j, base_point=0j),
        "disk": Domain.disk(0j, 1.0, base_point=0j),
    }
    return [
        _surface_job(f"surface-n{n}-{shape}", workdir,
                     [poly_beta(rng) for _ in range(n)], domain, size["bulk_grid"])
        for n in (2, 3, 4)
        for shape, domain in domains.items()
    ]


def pointwise_checks(rng, workdir, size):
    grid = size["verify_grid"]
    jobs = [
        _cli_job(f"verify-n{n}", workdir, "verify",
                 config_doc(n, [poly_beta(rng) for _ in range(n)], grid),
                 check_diagnostics)
        for n in (2, 3, 4)
    ]
    for n in (2, 3):
        doc = config_doc(n, [poly_beta(rng) for _ in range(n)], grid, ["kaehler"])
        if size["kaehler"][n]:
            side, w_samples = size["kaehler"][n]
            doc["kaehler"]["z_grid"] = {"rows": side, "cols": side}
            doc["kaehler"]["w_samples"] = w_samples
        jobs.append(_cli_job(f"kaehler-n{n}", workdir, "kaehler", doc, check_kaehler))
    doc = config_doc(3, [poly_beta(rng) for _ in range(3)], grid, ["ruled"])
    doc["ruled"]["probe_points"] = size["probe_points"]
    jobs.append(_cli_job("ruled-n3", workdir, "ruled", doc, check_ruled))
    return jobs


def roundtrip_jobs(rng, workdir, size):
    jobs = []
    for n in (1, 2, 3):
        betas = [poly_beta(rng) for _ in range(n)]
        gauge = f"exp({_cplx(_polar(rng, 0.0, 0.5))}*z)"
        for gauged in (False, True):
            doc = config_doc(n, betas, 10, ["reconstruct"])
            if size["sample_grid"]:
                sg = size["sample_grid"]
                doc["reconstruct"]["sample_grid"] = {"rows": sg, "cols": sg}
            if gauged:
                doc["reconstruct"]["gauge"] = gauge
            name = f"reconstruct-n{n}{'-gauge' if gauged else ''}"
            jobs.append(_cli_job(name, workdir, "reconstruct", doc, check_reconstruct))
    sphere_grid = size["sample_grid"] or 33
    jobs.append(_sphere_job("sphere-refusal", workdir, 0.4 + 0.2 * rng.random(),
                            sphere_grid))
    return jobs


# Every family appears.  The pair (1/(z-p), exp(a z)) is left out: its
# minimality margin swings between 0.02 and 1.6 decades with the phase
# of a, more than a seed-based gate on tol_margin_decades can hold.
TRANSCENDENTAL_JOBS = (("exp", "sin"), ("sin", "cos"), ("cos", "pole"),
                       ("exp", "sin", "cos"))


def transcendental(rng, workdir, size):
    jobs = []
    for k, families in enumerate(TRANSCENDENTAL_JOBS):
        n = len(families)
        betas = [transcendental_beta(rng, f) for f in families]
        jobs.append(_cli_job(f"generate-n{n}-{k}", workdir, "generate",
                             config_doc(n, betas, size["trans_grid"][n]),
                             check_generate))
    return jobs


BUILDERS = {
    "bulk-surface": bulk_surface,
    "pointwise-checks": pointwise_checks,
    "roundtrip": roundtrip_jobs,
    "transcendental": transcendental,
}


def build(name, seed, workdir, size="full"):
    """The jobs of one pass of workload `name` for `seed`; config files
    are written into `workdir` now, outputs when the jobs run."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    Path(workdir).mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](rng, Path(workdir), SIZES[size])
