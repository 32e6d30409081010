"""Every function of the package runs under some command.

The traffic of the package is run under `sys.setprofile`: every command
of every golden case, every subcommand of `--seed-demo 1..3`, and one
library surface job in the way the `bulk-surface` benchmark runs it.
Every module-level function and class method of `src/holosphere`
(dunder methods aside) must be called by it, except the entries of
UNCALLED, each with its reason.  An entry that is called, or that no
longer exists, fails the test as well, so the list stays exact.  No
function of the public API, `holosphere.__all__`, may be on that list.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import pytest

import holosphere
from holosphere import Domain, chain, cli, fd, meshio
from holosphere.cli import main

SRC = Path(holosphere.__file__).resolve().parent
GOLDEN = Path(__file__).parent / "data" / "golden"

_BENCH = "one-point call that only bench/tracing.py binds, by name"
_QUADRATURE = "quadrature path, kept while bench/tracing.py binds it by name"

UNCALLED = {
    "applications.kaehler_point": _BENCH,
    "applications.ruled_point": _BENCH,
    "chain.recursion_crosscheck": _BENCH,
    "geometry.minimality_residual": _BENCH,
    "geometry.calabi_check": _BENCH,
    "geometry._derivatives_at": "helper of minimality_residual and calabi_check",
    "reconstruct.probe_termination": _BENCH,
    "reconstruct.sample_xi": _BENCH,
    "expr.Antiderivative.value": _QUADRATURE,
    "expr.Antiderivative._quad_value": _QUADRATURE,
    "quadrature._gk_panel": _QUADRATURE,
    "quadrature.integrate_interval": _QUADRATURE,
    "quadrature.integrate_segment": _QUADRATURE,
    "cli._Parser.error": "error path: a command line that does not parse",
    "expr._offending_point": "error path: a zero denominator",
    "meshio._digit_tables": "runs once, when meshio is imported",
}


def _defined():
    """The qualified names of every module-level function and class
    method of the package, dunder methods aside."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                names.update(
                    f"{path.stem}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__")))
    return names


def _traffic(out):
    # the parser and the FD plans are built once per process and
    # argument; build them under the profile
    for cached in (cli._build_parser, fd._wirtinger_weights, fd._offsets,
                   fd._partial_plan):
        cached.cache_clear()
    for case in sorted(p for p in GOLDEN.iterdir() if p.is_dir()):
        codes = json.loads((case / "exit_codes.json").read_text())
        for command, expected in sorted(codes.items()):
            code = main([command, "--config", str(case / "config.json"),
                         "--out", str(out / case.name), "--quiet"])
            assert code == expected, (case.name, command)
    for n in (1, 2, 3):
        for command in ("generate", "verify", "reconstruct", "kaehler", "ruled"):
            main([command, "--seed-demo", str(n), "--out", str(out / f"demo{n}"),
                  "--quiet"])
    surface = chain.build_alpha_chain(["1+0.3*z", "0.8-0.2*z", "2+z"],
                                      domain=Domain.disk(0j, 1.0, base_point=0j))
    scan = chain.scan_grid(surface, 9, 7)
    mesh = meshio.mesh_from_grid(scan.valid, scan.surface)
    meshio.write_obj(mesh, out / "surface.obj")
    meshio.write_surface_csv(scan, out / "surface.csv")
    meshio.write_ply(mesh, out / "surface.ply")


def _called(run):
    """The qualified names of the package's functions that run(...)
    calls."""
    called, modules = set(), {}

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        name = code.co_filename
        if name not in modules:
            path = Path(name).resolve()
            modules[name] = path.stem if path.parent == SRC else None
        if modules[name] is not None:
            called.add(f"{modules[name]}.{code.co_qualname}")

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """The qualified names of the package's functions that the traffic
    calls, from one profiled run for the module."""
    out = tmp_path_factory.mktemp("traffic")
    return _called(lambda: _traffic(out))


def test_every_function_runs_under_some_command(called):
    assert sorted(_defined() - called) == sorted(UNCALLED)


def test_every_public_function_runs_under_some_command(called):
    # classes and exceptions aside
    public = [getattr(holosphere, name) for name in holosphere.__all__]
    functions = {f"{f.__module__.rpartition('.')[2]}.{f.__qualname__}"
                 for f in public if inspect.isfunction(f)}
    assert sorted(functions - called) == []
