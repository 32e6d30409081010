"""Command-line interface.

Subcommands: generate, verify, reconstruct, kaehler, ruled.  Every run
takes a JSON config (--config) or a built-in sample (--seed-demo N for
n = 1, 2, 3) and writes its outputs into --out.  Exit codes: 0 all
checks pass, 1 error (a verification that checks no point is one),
2 verification failure.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (
    KaehlerParams,
    RuledParams,
    kaehler_immersion_check,
    kaehler_map,
    ruled_map,
    ruled_minimality_probe,
    ruling_geodesic_residual,
)
from .chain import build_alpha_chain, scan_grid
from .config import demo_config, load_config, validate_config
from .errors import (
    ConfigError,
    HolosphereError,
    NotPseudoholomorphicError,
)
from .expr import eval_expr, parse_expr
from .geometry import SurfaceEvaluator, verify_all
from .meshio import (
    mesh_from_grid,
    write_obj,
    write_ply,
    write_points_csv,
    write_surface_csv,
)
from .reconstruct import MAX_RECONSTRUCT_N, roundtrip

PASS, ERROR, FAIL = 0, 1, 2

# Largest roundtrip sup distance that passes, by n
RECONSTRUCT_TOLERANCES = {1: 1e-3, 2: 1e-2, 3: 1e-2}
# Smallest fraction of full-rank Kaehler Jacobian cells that passes
MIN_REGULAR_FRACTION = 0.95
# Largest deviation of the ruled map from unit norm that passes
MAX_NORM_DEVIATION = 1e-12
# Largest ruled minimality probe residual that passes
MAX_PROBE_RESIDUAL = 1e-3
# Largest ruling geodesic residual that passes
MAX_GEODESIC_RESIDUAL = 1e-6


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(message)


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON job configuration")
    sub.add_argument(
        "--seed-demo", type=int, metavar="N",
        help="use the built-in sample config for n = 1, 2, 3",
    )
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--quiet", action="store_true", help="suppress progress lines")


@functools.cache
def _build_parser():
    parser = _Parser(prog="holosphere", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("generate", "build the chain surface, export meshes, verify invariants"),
        ("verify", "run the invariant checks and write diagnostics"),
        ("reconstruct", "round-trip the surface through its recovered data"),
        ("kaehler", "evaluate the hypersurface map and its regularity"),
        ("ruled", "evaluate the ruled map, unit-norm and minimality probes"),
    ]:
        sub = subs.add_parser(name, help=doc)
        _add_common(sub)
    return parser


def _load(args, outdir):
    """The validated config of the run.  The output directory is created
    only once the config is valid, so a refused run leaves none behind;
    a built-in sample is then written there as config.json."""
    if args.seed_demo is not None and args.config is not None:
        raise _CliError("--config and --seed-demo are mutually exclusive")
    if args.seed_demo is not None:
        doc = demo_config(args.seed_demo)
        cfg = validate_config(doc)
    elif args.config is not None:
        doc, cfg = None, load_config(args.config)
    else:
        raise _CliError("one of --config or --seed-demo is required")
    outdir.mkdir(parents=True, exist_ok=True)
    if doc is not None:
        _write_json(outdir / "config.json", doc)
    return cfg


def _write_json(path, obj, encoded=None):
    """Write the dict obj as strict JSON, indented by 2 with sorted keys;
    non-finite floats are written as null.  Every JSON output goes
    through here.  `encoded` maps further top-level keys to the JSON
    text of their values, already indented for that level (a report's
    `DiagnosticsReport.points_json`): the file is then what the same
    json.dumps writes for obj with those values."""
    Path(path).write_text(_json_text(obj, encoded or {}))


def _json_text(obj, encoded):
    # each run of plain entries between encoded keys is one json.dumps,
    # without its braces, so the encoded values join at their sorted place
    obj, parts, run = _finite(obj), [], {}
    for key in sorted(obj.keys() | encoded.keys()):
        if key in encoded:
            parts += [_json_entries(run), f"  {json.dumps(key)}: {encoded[key]}"]
            run = {}
        else:
            run[key] = obj[key]
    parts = [part for part in parts + [_json_entries(run)] if part]
    # the joined entries stay a temporary: a large document is not held twice
    return "{\n" + ",\n".join(parts) + "\n}\n" if parts else "{}\n"


def _json_entries(obj):
    """The entries of obj as json.dumps writes them one level deep, ''
    for an empty dict."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)[2:-2]


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _chain(cfg):
    return build_alpha_chain(cfg.betas, cfg.constants, cfg.domain, cfg.eps_singular)


def _report_lines(report, quiet):
    for fam in sorted(report.status):
        status = report.status[fam]
        if status == "UNCHECKED":
            _say(quiet, f"[{status}] {fam}: checked at no point "
                        f"({report.counts[fam]['skipped']} skipped)")
            continue
        line = (
            f"[{status}] {fam}: max residual {report.summary[fam]:.3e}"
            f" (tolerance {report.tolerances[fam]:.1e})"
        )
        if status == "FAIL":
            worst = report.worst_point[fam]
            line += f" worst at z={worst.real:g}{worst.imag:+g}i"
        _say(quiet, line)


def _write_grid(cfg, outdir, name, scan, table, attribute=None):
    """A grid scan in the config's formats: <name>.obj and <name>.ply
    from the mesh of its valid points, and <name>.csv through
    table(path).  Each file is formatted on its own, so the order of the
    writes does not change a byte.  `attribute` is a (name, grid) pair
    that the PLY writes as a per-vertex scalar."""
    mesh = mesh_from_grid(scan.valid, scan.surface,
                          attributes=dict([attribute]) if attribute else None)
    if "obj" in cfg.formats:
        write_obj(mesh, outdir / f"{name}.obj", components=cfg.obj_components)
    if "ply" in cfg.formats:
        write_ply(mesh, outdir / f"{name}.ply", components=cfg.obj_components,
                  attribute=attribute[0] if attribute else None)
    if "csv" in cfg.formats:
        table(outdir / f"{name}.csv")


def _diagnose(cfg, outdir, quiet):
    """Run every invariant check over the config grid, write the
    diagnostics and report the results."""
    report = verify_all(
        _chain(cfg),
        grid=cfg.grid,
        fd_step=cfg.fd_step,
        calabi_order=cfg.calabi_order,
        perturb=cfg.perturb,
    )
    _write_json(outdir / "diagnostics.json", report.to_dict(),
                {"points": report.points_json()})
    _report_lines(report, quiet)
    return report


def cmd_generate(cfg, outdir, quiet):
    report = _diagnose(cfg, outdir, quiet)
    scan, grids = report.scan, report.grids()
    # each vertex carries the largest residual of its point
    _write_grid(cfg, outdir, "surface", scan,
                lambda path: write_surface_csv(scan, path, grids),
                ("residual", np.fmax.reduce(list(grids.values()))))
    _say(quiet, f"outputs written to {outdir}")
    return PASS if report.passed else FAIL


def cmd_verify(cfg, outdir, quiet):
    return PASS if _diagnose(cfg, outdir, quiet).passed else FAIL


def cmd_reconstruct(cfg, outdir, quiet):
    if cfg.n > MAX_RECONSTRUCT_N:
        raise ConfigError(
            "$.n",
            f"unsupported n for reconstruction: {cfg.n} (max {MAX_RECONSTRUCT_N})",
        )
    rc = cfg.reconstruct
    g = SurfaceEvaluator.from_chain(_chain(cfg))
    gauge = None
    if rc.get("gauge"):
        gauge_expr = parse_expr(rc["gauge"])
        gauge = lambda zs: eval_expr(gauge_expr, zs)
    try:
        result = roundtrip(g, grid=rc["eval_grid"], sample_grid=rc["sample_grid"],
                           gauge=gauge)
    except NotPseudoholomorphicError as exc:
        _write_json(
            outdir / "reconstruct_report.json",
            {"refused": True, "termination_residual": exc.residual,
             "reason": str(exc)},
        )
        _say(quiet, f"[FAIL] reconstruction refused: {exc}")
        return FAIL
    tolerance = RECONSTRUCT_TOLERANCES[cfg.n]
    passed = result.sup_distance <= tolerance
    doc = result.to_dict()
    doc.update({"tolerance": tolerance, "passed": passed, "refused": False})
    _write_json(outdir / "reconstruct_report.json", doc)
    _say(
        quiet,
        f"[{'PASS' if passed else 'FAIL'}] roundtrip sup distance "
        f"{result.sup_distance:.3e} (tolerance {tolerance:.1e})",
    )
    return PASS if passed else FAIL


def cmd_kaehler(cfg, outdir, quiet):
    if cfg.kaehler is None:
        raise ConfigError("$.kaehler", "missing required block for this command")
    chain = _chain(cfg)
    kc = cfg.kaehler
    params = KaehlerParams.create(kc["gamma"], kc["w"])
    scan = scan_grid(chain, *cfg.grid, kaehler_map(chain, params))
    _write_grid(cfg, outdir, "kaehler", scan,
                lambda path: write_points_csv(scan, path, "psi"))

    regularity = kaehler_immersion_check(
        chain,
        params,
        z_grid=kc["z_grid"],
        w_box=kc["w_box"],
        w_samples=kc["w_samples"],
    )
    passed = regularity.fraction_regular >= MIN_REGULAR_FRACTION
    doc = regularity.to_dict()
    doc.update({"min_regular_fraction": MIN_REGULAR_FRACTION, "passed": passed})
    _write_json(outdir / "kaehler_report.json", doc)
    _say(
        quiet,
        f"[{'PASS' if passed else 'FAIL'}] regular rank {regularity.expected_rank} "
        f"on {regularity.regular_count}/{regularity.total} cells "
        f"({100 * regularity.fraction_regular:.1f}%, need "
        f"{100 * MIN_REGULAR_FRACTION:.0f}%)",
    )
    return PASS if passed else FAIL


def cmd_ruled(cfg, outdir, quiet):
    if cfg.n < 3:
        raise ConfigError("$.n", "the ruled map requires n >= 3")
    if cfg.ruled is None:
        raise ConfigError("$.ruled", "missing required block for this command")
    chain = _chain(cfg)
    rc = cfg.ruled
    params = RuledParams.create(rc["w"])
    scan = scan_grid(chain, *cfg.grid, ruled_map(chain, params))
    x = scan.surface[scan.valid]
    norm_dev = np.full(scan.shape, np.nan)
    norm_dev[scan.valid] = np.abs(np.sqrt(np.vecdot(x, x)) - 1.0)
    _write_grid(cfg, outdir, "ruled", scan,
                lambda path: write_points_csv(scan, path, "F"),
                ("norm_deviation", norm_dev))

    max_dev = float(np.nanmax(norm_dev)) if x.size else np.nan
    unit_ok = bool(max_dev <= MAX_NORM_DEVIATION)

    probes = []
    probe_ok = True
    x0, x1, y0, y1 = cfg.domain.bounds
    span_x, span_y = x1 - x0, y1 - y0
    if cfg.n == 3 and rc["probe_points"] > 0:
        rng = np.random.default_rng(20260809)
        centres = [
            complex(x0 + span_x * (0.25 + 0.5 * rng.random()),
                    y0 + span_y * (0.25 + 0.5 * rng.random()))
            for _ in range(rc["probe_points"])
        ]
        residuals = ruled_minimality_probe(chain, params, np.array(centres))
        # a probe that was not evaluated is NaN, written as null
        probes = [{"z": [z.real, z.imag], "residual": res,
                   "degenerate": math.isnan(res)}
                  for z, res in zip(centres, residuals.tolist())]
        probe_ok = not np.any(residuals > MAX_PROBE_RESIDUAL)
    # 0.1 off the centre, less where the domain is too small for it
    offset = min(0.1, span_x / 8, span_y / 8)
    geo = ruling_geodesic_residual(
        chain, complex((x0 + x1) / 2 + offset, (y0 + y1) / 2 + offset))
    if geo is not None:
        probe_ok = probe_ok and geo <= MAX_GEODESIC_RESIDUAL

    passed = unit_ok and probe_ok
    _write_json(
        outdir / "ruled_report.json",
        {
            "max_norm_deviation": max_dev,
            "unit_norm_ok": unit_ok,
            "probes": probes,
            "ruling_geodesic_residual": geo,
            "passed": passed,
        },
    )
    _say(
        quiet,
        f"[{'PASS' if passed else 'FAIL'}] unit-norm deviation {max_dev:.2e}; "
        f"{len(probes)} minimality probes",
    )
    return PASS if passed else FAIL


_COMMANDS = {
    "generate": cmd_generate,
    "verify": cmd_verify,
    "reconstruct": cmd_reconstruct,
    "kaehler": cmd_kaehler,
    "ruled": cmd_ruled,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        outdir = Path(args.out)
        cfg = _load(args, outdir)
        return _COMMANDS[args.command](cfg, outdir, args.quiet)
    except (_CliError, HolosphereError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except OSError as exc:
        # the config is read in load_config, so this is --out or a file in it
        print(f"error: cannot write the outputs: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
