"""Mesh and table writers, compared byte for byte with per-row reference
writers: the row-at-a-time implementation the block writers replaced,
kept here as the oracle.  Every case runs at the default block size and
at a block size that splits the rows into uneven blocks.  Files are also
compared after writes of other surfaces and after vertices change in
place, since a writer's output must not depend on what came before it.
The vectorized float formatter is compared with repr itself."""

import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosphere import Domain, build_alpha_chain, scan_grid
from holosphere import meshio
from holosphere.meshio import (
    mesh_from_grid,
    write_obj,
    write_ply,
    write_points_csv,
    write_surface_csv,
)


# ---------------------------------------------------------------------------
# Reference writers, one row at a time
# ---------------------------------------------------------------------------

def _fmt(x):
    return repr(float(x))


def ref_mesh_from_grid(valid, coords, attributes=None):
    R, C = valid.shape
    index = -np.ones((R, C), dtype=int)
    verts = []
    for r in range(R):
        for c in range(C):
            if valid[r, c]:
                index[r, c] = len(verts)
                verts.append(coords[r, c])
    faces = []
    for r in range(R - 1):
        for c in range(C - 1):
            ids = (index[r, c], index[r, c + 1],
                   index[r + 1, c + 1], index[r + 1, c])
            if all(i >= 0 for i in ids):
                faces.append(ids)
    attrs = {}
    if attributes:
        mask = valid.ravel()
        for name, grid_vals in attributes.items():
            attrs[name] = np.asarray(grid_vals).ravel()[mask]
    return SimpleNamespace(
        vertices=np.array(verts) if verts else np.zeros((0, coords.shape[2])),
        faces=faces,
        attributes=attrs,
    )


def ref_write_obj(mesh, path, components=(1, 2, 3)):
    pts = mesh.vertices[:, [c - 1 for c in components]]
    lines = []
    for p in pts:
        lines.append(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}")
    for f in mesh.faces:
        lines.append("f " + " ".join(str(i + 1) for i in f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_write_ply(mesh, path, components=(1, 2, 3), attribute=None):
    pts = mesh.vertices[:, [c - 1 for c in components]]
    attr = mesh.attributes.get(attribute) if attribute else None
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property double x",
        "property double y",
        "property double z",
    ]
    if attr is not None:
        header.append(f"property double {attribute}")
    header += [
        f"element face {len(mesh.faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    lines = list(header)
    for i, p in enumerate(pts):
        row = f"{_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}"
        if attr is not None:
            row += f" {_fmt(attr[i])}"
        lines.append(row)
    for f in mesh.faces:
        lines.append("4 " + " ".join(str(i) for i in f))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_write_surface_csv(scan, path, residuals=None):
    R, C, dim = scan.surface.shape
    families = []
    if residuals:
        seen = set()
        for fam, grid in residuals.items():
            for r in range(R):
                for c in range(C):
                    if not np.isnan(grid[r, c]) and fam not in seen:
                        seen.add(fam)
        families = sorted(seen)
    header = ["z_re", "z_im", "inside", "valid", "singular"]
    header += [f"g_{k + 1}" for k in range(dim)]
    header += [f"res_{fam}" for fam in families]
    lines = [",".join(header)]
    for r in range(R):
        for c in range(C):
            z = scan.zs[r, c]
            row = [
                _fmt(z.real),
                _fmt(z.imag),
                str(int(scan.inside[r, c])),
                str(int(scan.valid[r, c])),
                str(int(scan.singular[r, c])),
            ]
            if scan.valid[r, c]:
                row += [_fmt(v) for v in scan.surface[r, c]]
            else:
                row += [""] * dim
            for fam in families:
                val = residuals[fam][r, c]
                row.append(_fmt(val) if not np.isnan(val) else "")
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_write_points_csv(path, zs, valid, coords, prefix):
    R, C = zs.shape
    dim = coords.shape[2]
    header = ["z_re", "z_im", "valid"] + [f"{prefix}_{k + 1}" for k in range(dim)]
    lines = [",".join(header)]
    for r in range(R):
        for c in range(C):
            row = [_fmt(zs[r, c].real), _fmt(zs[r, c].imag), str(int(valid[r, c]))]
            if valid[r, c]:
                row += [_fmt(v) for v in coords[r, c]]
            else:
                row += [""] * dim
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def _edited(scan):
    """The scan with signed zeros in both z columns and in one
    coordinate, and one singular point."""
    zs = scan.zs.copy()
    zs[1, 2] = complex(-0.0, zs[1, 2].imag)
    zs[1, 3] = complex(0.0, zs[1, 3].imag)
    zs[2, 1] = complex(zs[2, 1].real, -0.0)
    surface = scan.surface.copy()
    valid = scan.valid.copy()
    singular = scan.singular.copy()
    r, c = np.argwhere(valid)[len(np.argwhere(valid)) // 2]
    surface[r, c, 0] = -0.0
    r, c = np.argwhere(valid)[-3]
    valid[r, c] = False
    singular[r, c] = True
    surface[r, c] = np.nan
    return dataclasses.replace(scan, zs=zs, surface=surface, valid=valid,
                               singular=singular)


def _masked(scan, valid):
    surface = np.where(valid[..., None], scan.surface, np.nan)
    return dataclasses.replace(scan, valid=valid, surface=surface)


def _build_cases():
    rect = scan_grid(build_alpha_chain(["1+0.3*z", "0.8-0.2*z"]), 23, 19)
    disk = scan_grid(
        build_alpha_chain(["1+0.3*z", "0.8-0.2*z"],
                          domain=Domain.disk(0.3 - 0.2j, 0.8, base_point=0.3 - 0.2j)),
        21, 26,
    )
    one_row = np.zeros(rect.shape, dtype=bool)
    one_row[4] = True
    return {
        "rectangle": _edited(rect),
        "disk": _edited(disk),
        "all_invalid": _masked(rect, np.zeros(rect.shape, dtype=bool)),
        "one_row": _masked(rect, one_row),
    }


CASES = _build_cases()


def _attribute(scan):
    """A residual grid with NaN at every fifth point."""
    vals = np.linspace(1e-17, 3e-9, scan.zs.size).reshape(scan.shape)
    vals.ravel()[::5] = np.nan
    return vals


def _residuals(scan):
    """Residual grids with values at every third grid point: family 'c'
    is never set, 'b' only at some points (a signed zero among them)."""
    residuals = {fam: np.full(scan.zs.size, np.nan) for fam in "bac"}
    for i in range(0, scan.zs.size, 3):
        residuals["a"][i] = 1e-12 * (i // 3 + 1)
        if i % 12 == 0:
            residuals["b"][i] = -2.5e-300 * (i // 3)
    return {fam: grid.reshape(scan.shape) for fam, grid in residuals.items()}


@pytest.fixture(params=["default", "uneven"])
def blocks(request, monkeypatch):
    if request.param == "uneven":
        monkeypatch.setattr(meshio, "_BLOCK_ROWS", 7)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", CASES)
def test_mesh_matches_reference(case):
    scan = CASES[case]
    attrs = {"residual": _attribute(scan)}
    mesh = mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    ref = ref_mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    assert np.array_equal(mesh.vertices, ref.vertices, equal_nan=True)
    assert mesh.faces.shape == (len(ref.faces), 4)
    assert np.array_equal(mesh.faces, np.array(ref.faces, dtype=int).reshape(-1, 4))
    assert np.array_equal(mesh.attributes["residual"], ref.attributes["residual"],
                          equal_nan=True)


@pytest.mark.parametrize("components", [(1, 2, 3), (3, 1, 2)])
@pytest.mark.parametrize("case", CASES)
def test_obj_and_ply_match_reference(case, components, blocks, tmp_path):
    scan = CASES[case]
    attrs = {"residual": _attribute(scan)}
    mesh = mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    ref = ref_mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    for name, write, ref_write, kwargs in [
        ("obj", write_obj, ref_write_obj, {}),
        ("ply", write_ply, ref_write_ply, {"attribute": "residual"}),
        ("plain.ply", write_ply, ref_write_ply, {}),
    ]:
        got, want = tmp_path / f"got.{name}", tmp_path / f"want.{name}"
        write(mesh, got, components=components, **kwargs)
        ref_write(ref, want, components=components, **kwargs)
        assert got.read_bytes() == want.read_bytes(), name


@pytest.mark.parametrize("with_records", [False, True])
@pytest.mark.parametrize("case", CASES)
def test_surface_csv_matches_reference(case, with_records, blocks, tmp_path):
    scan = CASES[case]
    residuals = _residuals(scan) if with_records else None
    write_surface_csv(scan, tmp_path / "got.csv", residuals)
    ref_write_surface_csv(scan, tmp_path / "want.csv", residuals)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("case", CASES)
def test_points_csv_matches_reference(case, blocks, tmp_path):
    scan = CASES[case]
    write_points_csv(scan, tmp_path / "got.csv", "psi")
    ref_write_points_csv(tmp_path / "want.csv", scan.zs, scan.valid, scan.surface, "psi")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_signed_zeros_stay_apart(tmp_path):
    write_surface_csv(CASES["rectangle"], tmp_path / "s.csv")
    rows = (tmp_path / "s.csv").read_text().splitlines()
    columns = [row.split(",") for row in rows[1:]]
    assert {"-0.0", "0.0"} <= {col[0] for col in columns}
    assert "-0.0" in {col[1] for col in columns}
    assert "-0.0" in {col[5] for col in columns}


def test_all_invalid_grid_writes_empty_mesh(tmp_path):
    scan = CASES["all_invalid"]
    mesh = mesh_from_grid(scan.valid, scan.surface)
    assert mesh.vertices.shape == (0, scan.surface.shape[2])
    assert mesh.faces.shape == (0, 4)
    write_obj(mesh, tmp_path / "s.obj")
    assert (tmp_path / "s.obj").read_text() == "\n"


def test_single_valid_row_has_vertices_but_no_faces(tmp_path):
    scan = CASES["one_row"]
    mesh = mesh_from_grid(scan.valid, scan.surface)
    assert len(mesh.vertices) == scan.shape[1]
    assert mesh.faces.shape == (0, 4)
    write_obj(mesh, tmp_path / "s.obj")
    lines = (tmp_path / "s.obj").read_text().splitlines()
    assert len(lines) == scan.shape[1]
    assert all(line.startswith("v ") for line in lines)


# ---------------------------------------------------------------------------
# Write order and earlier writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("between", [None, "other_scan", "vertices_changed"])
@pytest.mark.parametrize("order", [("obj", "csv", "ply"), ("obj", "ply", "csv")])
@pytest.mark.parametrize("components", [(1, 2, 3), (3, 1, 2), (2, 2, 5)])
@pytest.mark.parametrize("case", CASES)
def test_shared_text_matches_reference(case, components, order, between, blocks,
                                       tmp_path):
    """OBJ, PLY and CSV of one surface equal the reference files in either
    order, also when another scan of the same shape is written after the
    first file, or when the mesh's vertices change after a first OBJ."""
    scan = CASES[case]
    attrs = {"residual": _attribute(scan)}
    mesh = mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    if between == "vertices_changed":
        write_obj(mesh, tmp_path / "first.obj", components=components)
        mesh.vertices *= -0.5
        scan = dataclasses.replace(scan, surface=scan.surface * -0.5)
    residuals = _residuals(scan)
    ref = ref_mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    writers = {
        "obj": (write_obj, ref_write_obj, {}),
        "ply": (write_ply, ref_write_ply, {"attribute": "residual"}),
    }
    for k, name in enumerate(order):
        got, want = tmp_path / f"got.{name}", tmp_path / f"want.{name}"
        if name == "csv":
            write_surface_csv(scan, got, residuals)
            ref_write_surface_csv(scan, want, residuals)
        else:
            write, ref_write, kwargs = writers[name]
            write(mesh, got, components=components, **kwargs)
            ref_write(ref, want, components=components, **kwargs)
        assert got.read_bytes() == want.read_bytes(), name
        if k == 0 and between == "other_scan":
            # the same shape, the coordinates reversed: some of its columns
            # have the bits of columns of the scan, others do not
            other = scan.surface[..., ::-1].copy()
            write_obj(mesh_from_grid(scan.valid, other), tmp_path / "other.obj",
                      components=components)


def _write_all(scan, outdir):
    """OBJ, CSV and PLY of a scan, as bytes."""
    outdir.mkdir()
    mesh = mesh_from_grid(scan.valid, scan.surface,
                          attributes={"residual": _attribute(scan)})
    write_obj(mesh, outdir / "s.obj")
    write_surface_csv(scan, outdir / "s.csv", _residuals(scan))
    write_ply(mesh, outdir / "s.ply", attribute="residual")
    return [(outdir / name).read_bytes() for name in ("s.obj", "s.csv", "s.ply")]


@pytest.mark.parametrize("case", ["rectangle", "disk"])
def test_output_does_not_depend_on_earlier_writes(case, tmp_path):
    """The writers keep no text between calls: the module's state is the
    same after a write as before, and a scan's files are the same whether
    written first or after other scans, among them one whose columns have
    the bits of the scan's columns."""
    scan = CASES[case]
    state = dict(vars(meshio))
    first = _write_all(scan, tmp_path / "first")
    assert vars(meshio).keys() == state.keys()
    assert all(vars(meshio)[name] is value for name, value in state.items())
    for k, other in enumerate([
        dataclasses.replace(scan, surface=scan.surface[..., ::-1].copy()),
        CASES["disk" if case == "rectangle" else "rectangle"],
    ]):
        _write_all(other, tmp_path / f"other{k}")
    assert _write_all(scan, tmp_path / "again") == first


def test_residual_text_is_formatted_per_block(monkeypatch, tmp_path):
    """Residual columns are formatted block by block: in blocks of 64
    rows, nine residual families over a 64x64 grid add less to the
    traced peak of the CSV writer than their own floats take."""
    scan = scan_grid(build_alpha_chain(["1+0.3*z", "0.8-0.2*z"]), 64, 64)
    values = np.linspace(1e-17, 3e-9, scan.zs.size).reshape(scan.shape)
    residuals = {f"family{k}": values * (k + 1) for k in range(9)}
    monkeypatch.setattr(meshio, "_BLOCK_ROWS", 64)
    peaks = []
    for res in (None, residuals):
        tracemalloc.start()
        try:
            write_surface_csv(scan, tmp_path / "s.csv", res)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    floats = sum(grid.nbytes for grid in residuals.values())
    assert peaks[1] - peaks[0] < floats


def test_large_scan_matches_reference(tmp_path):
    """A 128x128, n=4 scan at the default block size, so that its blocks
    take the vectorized path, with signed zeros in z and in a coordinate
    and NaN gaps in the residuals and the attribute: OBJ, PLY with the
    attribute and CSV equal the reference writers."""
    chain = build_alpha_chain(["1+0.3*z", "0.8-0.2*z", "1+0.2*i*z", "1-0.25*z"])
    scan = _edited(scan_grid(chain, 128, 128))
    attrs = {"residual": _attribute(scan)}
    mesh = mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    ref = ref_mesh_from_grid(scan.valid, scan.surface, attributes=attrs)
    assert 3 * meshio._BLOCK_ROWS >= meshio._VECTOR_FLOATS
    write_obj(mesh, tmp_path / "got.obj")
    ref_write_obj(ref, tmp_path / "want.obj")
    write_ply(mesh, tmp_path / "got.ply", attribute="residual")
    ref_write_ply(ref, tmp_path / "want.ply", attribute="residual")
    residuals = _residuals(scan)
    write_surface_csv(scan, tmp_path / "got.csv", residuals)
    ref_write_surface_csv(scan, tmp_path / "want.csv", residuals)
    for name in ("obj", "ply", "csv"):
        got, want = tmp_path / f"got.{name}", tmp_path / f"want.{name}"
        assert got.read_bytes() == want.read_bytes(), name


def test_csv_holds_no_text_for_the_whole_grid(monkeypatch, tmp_path):
    """z text is formatted block by block: in blocks of 256 rows, the CSV
    writer's traced peak grows by less than 8 bytes a grid point from a
    64x64 to a 256x256 grid, less than one reference per z text."""
    chain = build_alpha_chain(["1+0.3*z", "0.8-0.2*z"])
    monkeypatch.setattr(meshio, "_BLOCK_ROWS", 256)
    peaks = []
    for side in (64, 256):
        scan = scan_grid(chain, side, side)
        write_surface_csv(scan, tmp_path / "s.csv")  # first-call costs untraced
        tracemalloc.start()
        try:
            write_surface_csv(scan, tmp_path / "s.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (256**2 - 64**2) < 8


_WRITE_ALL = """
import sys, tempfile
from pathlib import Path
from holosphere import build_alpha_chain, scan_grid
from holosphere.meshio import (mesh_from_grid, write_obj, write_ply,
                               write_points_csv, write_surface_csv)
scan = scan_grid(build_alpha_chain(["1+0.3*z", "0.8-0.2*z"]), 20, 20)
mesh = mesh_from_grid(scan.valid, scan.surface, attributes={"r": scan.surface[..., 0]})
before = set(sys.modules)
with tempfile.TemporaryDirectory() as d:
    write_obj(mesh, Path(d) / "s.obj")
    write_ply(mesh, Path(d) / "s.ply", attribute="r")
    write_surface_csv(scan, Path(d) / "s.csv", {"a": scan.surface[..., 1]})
    write_points_csv(scan, Path(d) / "p.csv", "psi")
print(sorted(set(sys.modules) - before))
"""


def test_writers_load_no_module():
    """The writers load no module on their first call.  `np.unique`
    without an inverse loads numpy.ma, about 19 ms and 1 MB of resident
    memory, which a benchmark job then pays in its first timed pass."""
    env = dict(os.environ, PYTHONPATH=str(Path(meshio.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _WRITE_ALL], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# The float formatter against repr
# ---------------------------------------------------------------------------

def _cell_rows(cells):
    """The text of each row of a cell matrix, its NUL bytes dropped."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in cells]


def _assert_repr_rows(values, cols):
    """The rows of _float_cells equal sep.join(map(repr, row)) + end on
    values laid out in rows of cols, both as given and repeated to a
    block the vectorized path takes."""
    values = np.asarray(values, dtype=float).ravel()
    rows = -(-max(values.size, meshio._VECTOR_FLOATS) // cols)
    for block in (values[:values.size // cols * cols].reshape(-1, cols),
                  np.resize(values, (rows, cols))):
        for sep, end in ((" ", "\n"), (",", ","), (",", "")):
            want = [sep.join(map(repr, row)) + end for row in block.tolist()]
            cells = meshio._float_cells(block, sep, end)
            assert cells.shape == (len(block), 32 * cols)
            assert _cell_rows(cells) == want


@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=60),
       st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_float_rows_equal_repr(values, cols):
    _assert_repr_rows(values, cols)


def _adversarial_floats():
    """Floats where shortest-digit formatting goes wrong first: powers of
    two (a narrower gap below), short decimals (shorter than 15 digits),
    the ends of each decade, 17-digit roundings that carry, and floats
    exactly halfway between two 17-digit (or 16-digit) decimals."""
    rng = np.random.default_rng(19)
    halfway = [2.0 ** -17 * (2 * rng.integers(2**15, 2**16, 300) + 1)]
    for q in (17, 18, 19, 20):
        # odd multiples of 2**-(q+1) between 10**(16-q) and 10**(17-q)
        lo = 2**q // 10 ** (q - 16) + 1
        halfway.append(2.0 ** -(q + 1) * (2 * rng.integers(lo, 10 * lo - 10, 300) + 1))
    powers = 2.0 ** np.arange(-20, 1)
    digits = rng.integers(1, 17, 4000)
    short = rng.integers(1, 10 ** digits) / 10.0 ** (digits + rng.integers(0, 5, 4000))
    ends = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
    carries = np.array([np.nextafter(0.1, 0), 0.09999999999999999,
                        0.9999999999999999, 0.0009999999999999998])
    base = np.concatenate([powers, short, ends, carries, *halfway])
    near = [base, np.nextafter(base, 0), np.nextafter(base, 2)]
    for _ in range(3):
        near += [np.nextafter(near[-2], 0), np.nextafter(near[-1], 2)]
    values = np.concatenate(near)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("cols", [1, 3, 7])
def test_float_rows_equal_repr_on_adversarial_floats(cols):
    _assert_repr_rows(_adversarial_floats(), cols)


def test_surface_floats_take_the_vectorized_path(monkeypatch):
    """At least 99 % of the floats of a 128x128, n=4 scan are formatted
    without repr, so a silent slide back to repr fails here."""
    chain = build_alpha_chain(["1+0.3*z", "0.8-0.2*z", "1+0.2*i*z", "1-0.25*z"])
    scan = scan_grid(chain, 128, 128)
    calls = []

    def counting(x):
        calls.append(x)
        return repr(x)

    monkeypatch.setattr(meshio, "repr", counting, raising=False)
    vals = scan.surface[scan.valid]
    for a in range(0, len(vals), meshio._BLOCK_ROWS):
        meshio._float_cells(vals[a:a + meshio._BLOCK_ROWS], ",", "\n")
    assert vals.size > 100_000
    assert len(calls) <= 0.01 * vals.size


@pytest.mark.parametrize("components", [(1, 2), (1, 2, 3, 4)])
@pytest.mark.parametrize("write", [write_obj, write_ply])
def test_component_list_must_be_a_triple(write, components, tmp_path):
    coords = np.arange(20.0).reshape(2, 2, 5)
    mesh = mesh_from_grid(np.ones((2, 2), dtype=bool), coords)
    with pytest.raises(ValueError, match=f"got {len(components)}"):
        write(mesh, tmp_path / "m", components=components)
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("head", ["f", "4"])
def test_face_lines_equal_percent_d(head):
    """Face lines from the digit tables equal the %d template, across
    digit counts and in blocks that take the template."""
    edges = np.array([0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 10**4 + 1,
                      99999, 10**5, 1234567, 10**7, 10**8 - 1])
    rng = np.random.default_rng(4)
    rows = np.concatenate([edges, rng.integers(0, 10**8, 4000)]).reshape(-1, 4)
    for block in (rows, np.vstack([rows, [[10**8, 5, 0, 7]]]), rows[:, :3] - 1):
        fh = io.BytesIO()
        meshio._int_rows(fh, head, block)
        line = head + " %d" * block.shape[1] + "\n"
        want = (line * len(block)) % tuple(block.ravel().tolist())
        assert fh.getvalue() == want.encode()
