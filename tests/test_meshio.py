"""Mesh and table writers, compared byte for byte with per-row reference
writers: the row-at-a-time implementation the block writers replaced,
kept here as the oracle.  Every case runs at the default block size and
at a block size that splits the rows into uneven blocks.  The writers
share one memo of vertex text, so files are also compared after writes
of other surfaces and after vertices change in place."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

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
    write_points_csv(tmp_path / "got.csv", scan.zs, scan.valid, scan.surface, "psi")
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
# The shared vertex text
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
            # the same shape, the coordinates reversed: some columns of its
            # vertex text match columns of the scan, others do not
            other = scan.surface[..., ::-1].copy()
            write_obj(mesh_from_grid(scan.valid, other), tmp_path / "other.obj",
                      components=components)


@pytest.mark.parametrize("case", ["rectangle", "disk"])
def test_each_float_is_formatted_once(case, monkeypatch, tmp_path):
    """The mesh's vertex text, formatted for the OBJ, serves the PLY and
    the g_1..g_3 columns of the CSV."""
    scan = CASES[case]
    monkeypatch.setattr(meshio, "_memo", (np.zeros((0, 3)), []))
    formatted = []
    floats = meshio._floats

    def counting(arr):
        text = floats(arr)
        formatted.append(len(text))
        return text

    monkeypatch.setattr(meshio, "_floats", counting)
    mesh = mesh_from_grid(scan.valid, scan.surface)
    write_obj(mesh, tmp_path / "s.obj")
    write_surface_csv(scan, tmp_path / "s.csv")
    write_ply(mesh, tmp_path / "s.ply")
    distinct = sum(np.unique(np.ascontiguousarray(part).view(np.uint64)).size
                   for part in (scan.zs.real, scan.zs.imag))
    dim = scan.surface.shape[2]
    assert sum(formatted) == scan.valid.sum() * dim + distinct


@pytest.mark.parametrize("components", [(1, 2), (1, 2, 3, 4)])
@pytest.mark.parametrize("write", [write_obj, write_ply])
def test_component_list_must_be_a_triple(write, components, tmp_path):
    coords = np.arange(20.0).reshape(2, 2, 5)
    mesh = mesh_from_grid(np.ones((2, 2), dtype=bool), coords)
    with pytest.raises(ValueError, match=f"got {len(components)}"):
        write(mesh, tmp_path / "m", components=components)
    assert not (tmp_path / "m").exists()
