"""Command-line interface.

Subcommands: generate, verify, reconstruct, kaehler, ruled.  Every run
takes a JSON config (--config) or a built-in sample (--seed-demo N for
n = 1, 2, 3) and writes its outputs into --out.  Exit codes: 0 all
checks pass, 1 error, 2 verification failure.
"""

import argparse
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
    kaehler_points,
    ruled_minimality_probe,
    ruled_points,
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
    if args.seed_demo is not None and args.config is not None:
        raise _CliError("--config and --seed-demo are mutually exclusive")
    if args.seed_demo is not None:
        doc = demo_config(args.seed_demo)
        cfg = validate_config(doc)
        _write_json(outdir / "config.json", doc)
        return cfg
    if args.config is not None:
        return load_config(args.config)
    raise _CliError("one of --config or --seed-demo is required")


def _write_json(path, obj):
    """Strict JSON: non-finite floats are written as null."""
    with open(path, "w") as fh:
        json.dump(_finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
    return build_alpha_chain(cfg.betas, cfg.constants, cfg.domain)


def _report_lines(report, quiet):
    for fam in sorted(report.status):
        status = report.status[fam]
        line = (
            f"[{status}] {fam}: max residual {report.summary[fam]:.3e}"
            f" (tolerance {report.tolerances[fam]:.1e})"
        )
        if status == "FAIL":
            worst = report.worst_point[fam]
            line += f" worst at z={worst.real:g}{worst.imag:+g}i"
        _say(quiet, line)


def _write_meshes(cfg, scan, records, outdir, stem="surface"):
    if "csv" in cfg.formats:
        write_surface_csv(scan, outdir / f"{stem}.csv", records)
    residual_grid = None
    if records:
        R, C = scan.shape
        residual_grid = np.full((R, C), np.nan)
        for r in range(R):
            for c in range(C):
                res = records.get(complex(scan.zs[r, c]))
                if res:
                    vals = [v for v in res.values() if v is not None]
                    if vals:
                        residual_grid[r, c] = max(vals)
    mesh = mesh_from_grid(
        scan.valid,
        scan.surface,
        attributes={"residual": residual_grid} if residual_grid is not None else None,
    )
    if "obj" in cfg.formats:
        write_obj(mesh, outdir / f"{stem}.obj", components=cfg.obj_components)
    if "ply" in cfg.formats:
        write_ply(
            mesh,
            outdir / f"{stem}.ply",
            components=cfg.obj_components,
            attribute="residual" if residual_grid is not None else None,
        )


def cmd_generate(cfg, outdir, quiet):
    chain = _chain(cfg)
    scan = scan_grid(chain, *cfg.grid, eps_singular=cfg.eps_singular)
    report = verify_all(
        chain,
        grid=cfg.grid,
        tolerances=cfg.tolerances,
        eps_singular=cfg.eps_singular,
        fd_step=cfg.fd_step,
        calabi_order=cfg.calabi_order,
        perturb=cfg.perturb,
    )
    records = {rec.z: rec.residuals for rec in report.records}
    _write_meshes(cfg, scan, records, outdir)
    _write_json(outdir / "diagnostics.json", report.to_dict())
    _report_lines(report, quiet)
    _say(quiet, f"outputs written to {outdir}")
    return PASS if report.passed else FAIL


def cmd_verify(cfg, outdir, quiet):
    chain = _chain(cfg)
    report = verify_all(
        chain,
        grid=cfg.grid,
        tolerances=cfg.tolerances,
        eps_singular=cfg.eps_singular,
        fd_step=cfg.fd_step,
        calabi_order=cfg.calabi_order,
        perturb=cfg.perturb,
    )
    _write_json(outdir / "diagnostics.json", report.to_dict())
    _report_lines(report, quiet)
    return PASS if report.passed else FAIL


def cmd_reconstruct(cfg, outdir, quiet):
    if cfg.n > MAX_RECONSTRUCT_N:
        raise ConfigError(
            "$.n",
            f"unsupported n for reconstruction: {cfg.n} (max {MAX_RECONSTRUCT_N})",
        )
    rc = cfg.reconstruct
    chain = _chain(cfg)
    g = SurfaceEvaluator.from_chain(chain, cfg.eps_singular)
    gauge = None
    if rc.get("gauge"):
        gauge_expr = parse_expr(rc["gauge"])
        gauge = lambda zs: eval_expr(gauge_expr, zs)
    try:
        result = roundtrip(
            g,
            grid=rc["eval_grid"],
            sample_grid=rc["sample_grid"],
            gauge=gauge,
            refusal_threshold=rc["refusal_threshold"],
        )
    except NotPseudoholomorphicError as exc:
        _write_json(
            outdir / "reconstruct_report.json",
            {"refused": True, "termination_residual": exc.residual,
             "reason": str(exc)},
        )
        _say(quiet, f"[FAIL] reconstruction refused: {exc}")
        return FAIL
    tolerance = rc["tolerance"]
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


def _grid_points(cfg, chain, params, points):
    """A batched map (`kaehler_points` or `ruled_points`) over the
    in-domain points of the config grid: (zs, valid, coords), with NaN
    coordinates where the point is outside or degenerate."""
    zs, inside = cfg.domain.grid(*cfg.grid)
    values, regular = points(chain, params, zs[inside], cfg.eps_singular)
    valid = np.zeros(zs.shape, dtype=bool)
    valid[inside] = regular
    coords = np.full(zs.shape + (chain.dim,), np.nan)
    coords[inside] = values
    return zs, valid, coords


def cmd_kaehler(cfg, outdir, quiet):
    if cfg.kaehler is None:
        raise ConfigError("$.kaehler", "missing required block for this command")
    chain = _chain(cfg)
    kc = cfg.kaehler
    params = KaehlerParams.create(kc["gamma"], kc["w"])
    zs, valid, coords = _grid_points(cfg, chain, params, kaehler_points)
    if "csv" in cfg.formats:
        write_points_csv(outdir / "kaehler.csv", zs, valid, coords, "psi")
    mesh = mesh_from_grid(valid, coords)
    if "obj" in cfg.formats:
        write_obj(mesh, outdir / "kaehler.obj", components=cfg.obj_components)

    regularity = kaehler_immersion_check(
        chain,
        params,
        z_grid=kc["z_grid"],
        w_box=kc["w_box"],
        w_samples=kc["w_samples"],
        eps_singular=cfg.eps_singular,
    )
    min_fraction = kc["min_regular_fraction"]
    passed = regularity.fraction_regular >= min_fraction
    doc = regularity.to_dict()
    doc.update({"min_regular_fraction": min_fraction, "passed": passed})
    _write_json(outdir / "kaehler_report.json", doc)
    _say(
        quiet,
        f"[{'PASS' if passed else 'FAIL'}] regular rank {regularity.expected_rank} "
        f"on {regularity.regular_count}/{regularity.total} cells "
        f"({100 * regularity.fraction_regular:.1f}%, need "
        f"{100 * min_fraction:.0f}%)",
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
    zs, valid, coords = _grid_points(cfg, chain, params, ruled_points)
    x = coords[valid]
    norm_dev = np.full(valid.shape, np.nan)
    norm_dev[valid] = np.abs(np.sqrt(np.vecdot(x, x)) - 1.0)
    if "csv" in cfg.formats:
        write_points_csv(outdir / "ruled.csv", zs, valid, coords, "F")
    mesh = mesh_from_grid(valid, coords, attributes={"norm_deviation": norm_dev})
    if "obj" in cfg.formats:
        write_obj(mesh, outdir / "ruled.obj", components=cfg.obj_components)
    if "ply" in cfg.formats:
        write_ply(mesh, outdir / "ruled.ply", components=cfg.obj_components,
                  attribute="norm_deviation")

    max_dev = float(np.nanmax(norm_dev)) if valid.any() else np.nan
    unit_ok = bool(max_dev <= 1e-12)

    probes = []
    probe_ok = True
    if cfg.n == 3 and rc["probe_points"] > 0:
        rng = np.random.default_rng(20260809)
        x0, x1, y0, y1 = cfg.domain.bounds
        span_x, span_y = x1 - x0, y1 - y0
        count = 0
        while count < rc["probe_points"]:
            z = complex(
                x0 + span_x * (0.25 + 0.5 * rng.random()),
                y0 + span_y * (0.25 + 0.5 * rng.random()),
            )
            res = ruled_minimality_probe(chain, params, z,
                                         eps_singular=cfg.eps_singular)
            probes.append(
                {"z": [z.real, z.imag],
                 "residual": res.residual,
                 "degenerate": res.degenerate}
            )
            if not res.degenerate:
                probe_ok = probe_ok and res.residual <= 1e-3
            count += 1
        geo = ruling_geodesic_residual(
            chain, complex((x0 + x1) / 2 + 0.1, (y0 + y1) / 2 + 0.1),
            eps_singular=cfg.eps_singular,
        )
        if geo is not None:
            probe_ok = probe_ok and geo <= 1e-6
    else:
        geo = None

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        cfg = _load(args, outdir)
        return _COMMANDS[args.command](cfg, outdir, args.quiet)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except HolosphereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
