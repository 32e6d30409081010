"""The benchmark's layer tracer (`bench/tracing.py`) wraps package
functions by name and reads some of their arguments by name or by
position, so a signature change can break the benchmark without any
other test noticing.  The tracer is loaded from its file, unchanged."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import holosphere
from holosphere import (  # noqa: F401  every module the tracer binds is loaded
    applications, chain, cli, config, expr, fd, geometry, meshio, quadrature,
    reconstruct,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in a loaded holosphere module or in a class it
    defines, with the object bound to it."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "holosphere" or name.startswith("holosphere.")):
            continue
        for key, val in vars(mod).items():
            found[name, key] = val
            if isinstance(val, type) and val.__module__ == name:
                for attr, member in vars(val).items():
                    found[name, key, attr] = member
    return found


def test_tracer_binds_counts_and_restores(surface_n1):
    before = _bindings()
    tracer = _load_tracing().Tracer()
    # every binding resolves, or install raises
    tracer.install()
    try:
        assert tracer._patches
        for owner, attr, orig in tracer._patches:
            assert vars(owner)[attr] is not orig, attr

        zs = np.array([0.3 + 0.2j, -0.5j, 0.1 + 0j])
        holosphere.f_chain_eval(holosphere.build_alpha_chain(["1", "1"]), zs)
        assert tracer.counts["chain.f_chain_eval.points"] == zs.size

        reconstruct.probe_termination(surface_n1, samples=5)
        reconstruct.sample_xi(surface_n1, rows=5, cols=5)
        assert tracer.counts["reconstruct.sampled_points"] == 25 + 25
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []


def test_tracer_counts_one_surface_job(tmp_path):
    """A surface job as the bulk workload runs it: one Gram-Schmidt call,
    one call of each writer, and the bytes of the three files."""
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        surface = chain.build_alpha_chain(["1+0.3*z", "0.8-0.2*z"])
        scan = chain.scan_grid(surface, 9, 7)
        mesh = meshio.mesh_from_grid(scan.valid, scan.surface)
        meshio.write_obj(mesh, tmp_path / "surface.obj")
        meshio.write_surface_csv(scan, tmp_path / "surface.csv")
        meshio.write_ply(mesh, tmp_path / "surface.ply")
        counts = dict(tracer.counts)
    finally:
        tracer.uninstall()
    files = ["surface.obj", "surface.csv", "surface.ply"]
    assert counts["meshio.bytes_written"] == sum(
        (tmp_path / name).stat().st_size for name in files)
    assert counts["chain.gram_schmidt.calls"] == 1
    for writer in ("write_obj", "write_surface_csv", "write_ply"):
        assert counts[f"meshio.{writer}.calls"] == 1
