"""Mesh and table output for grid scans.

A grid scan becomes a quad mesh: one vertex per valid grid point, one
quad per grid cell whose four corners are all valid.  Faces are an
(F, 4) integer array in row-major cell order, each quad listing the
corners (r, c), (r, c+1), (r+1, c+1), (r+1, c) as indices into the
valid vertices.  Writers emit OBJ (3-component projection), CSV (full
coordinates plus residuals) and optionally PLY with a per-vertex scalar
attribute.

Floats are serialized with shortest round-trip formatting (`repr`), so
identical inputs produce byte-identical files.  That formatting is most
of a writer's cost, so each float of a surface is formatted once: a
grid's z columns from their distinct values, coordinates only on valid
rows, and one vertex text shared by OBJ, PLY and the CSV.  The module
keeps a one-entry memo, the last vertex text formatted together with a
copy of the (M, 3) floats it came from.  `MeshOutput.vertex_text`
reuses it when the floats have the same shape and bits, and the CSV
writers take from it every valid-row column whose bits equal one of its
columns.  The memo is keyed by content, so it cannot go stale; writing
OBJ or PLY before the CSV lets the CSV share the text.  Files are built
from whole arrays and written in blocks of `_BLOCK_ROWS` rows, which
bounds the text held in memory at once.
"""

from dataclasses import dataclass, field

import numpy as np

_BLOCK_ROWS = 2048
# CSV text of a 0/1 flag column
_FLAG_TEXT = np.array([",0", ",1"], dtype=object)
# The last vertex text formatted, as one (floats, text) pair: the (M, 3)
# floats and the 'x y z' text of each of their rows.
_memo = (np.zeros((0, 3)), [])


def _floats(arr):
    """Shortest round-trip text of every float of arr, in C order."""
    return list(map(repr, np.asarray(arr, dtype=float).ravel().tolist()))


def _rows(texts, width, sep):
    """Group a flat list of texts into rows of `width`, joined by sep."""
    it = iter(texts)
    return list(map(sep.join, zip(*[it] * width)))


def _same_bits(a, b):
    """Whether two float arrays have the same shape and bit patterns, so
    that -0.0 and 0.0 differ."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                  b.view(np.uint64))


def _blocks(count):
    """(start, stop) of each block of _BLOCK_ROWS rows out of count."""
    for start in range(0, count, _BLOCK_ROWS):
        yield start, min(start + _BLOCK_ROWS, count)


def _int_rows(fh, template, rows):
    """Write each row of an integer array through one %d template."""
    for a, b in _blocks(len(rows)):
        fh.write((template * (b - a)) % tuple(rows[a:b].ravel().tolist()))


@dataclass
class MeshOutput:
    """Vertices (full coordinates), quad connectivity over the grid, and
    per-vertex scalar attributes."""

    vertices: np.ndarray         # (M, dim) float
    faces: np.ndarray            # (F, 4) int quads, 0-based indices into vertices
    grid_shape: tuple
    valid: np.ndarray            # (R, C) bool
    attributes: dict = field(default_factory=dict)

    def component_triple(self, components):
        """A copy of the columns of a 1-based component triple."""
        dim = self.vertices.shape[1]
        if len(components) != 3:
            raise ValueError(f"components must be 3 indices, got {len(components)}")
        for c in components:
            if not 1 <= c <= dim:
                raise ValueError(f"component {c} out of range 1..{dim}")
        idx = [c - 1 for c in components]
        return self.vertices[:, idx]

    def vertex_text(self, components):
        """'x y z' text of every vertex for a component triple, taken from
        the memo when its floats have the same bits."""
        global _memo
        pts = np.asarray(self.component_triple(components), dtype=float)
        floats, text = _memo
        if not _same_bits(pts, floats):
            text = _rows(_floats(pts), 3, " ")
            _memo = (pts, text)
        return text


def mesh_from_grid(valid, coords, attributes=None):
    """Build a quad mesh from a (R, C) validity mask and (R, C, dim)
    coordinates.  Invalid points are dropped and indices remapped."""
    R, C = valid.shape
    mask = valid.ravel()
    index = np.full(R * C, -1)
    index[mask] = np.arange(np.count_nonzero(mask))
    index = index.reshape(R, C)
    corners = np.stack(
        [index[:-1, :-1], index[:-1, 1:], index[1:, 1:], index[1:, :-1]],
        axis=-1,
    ).reshape(-1, 4)
    attrs = {}
    if attributes:
        for name, grid_vals in attributes.items():
            attrs[name] = np.asarray(grid_vals).ravel()[mask]
    return MeshOutput(
        vertices=coords.reshape(R * C, coords.shape[2])[mask],
        faces=corners[(corners >= 0).all(axis=1)],
        grid_shape=(R, C),
        valid=valid,
        attributes=attrs,
    )


def write_obj(mesh, path, components=(1, 2, 3)):
    """OBJ with the chosen 1-based coordinate triple and quad faces."""
    text = mesh.vertex_text(components)
    with open(path, "w") as fh:
        if not text:
            fh.write("\n")  # an empty mesh is one blank line
        for a, b in _blocks(len(text)):
            fh.write(("v %s\n" * (b - a)) % tuple(text[a:b]))
        _int_rows(fh, "f %d %d %d %d\n", mesh.faces + 1)


def write_ply(mesh, path, components=(1, 2, 3), attribute=None):
    """ASCII PLY with an optional per-vertex scalar attribute."""
    text = mesh.vertex_text(components)
    attr = mesh.attributes.get(attribute) if attribute else None
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(text)}",
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
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for a, b in _blocks(len(text)):
            rows = text[a:b]
            if attr is not None:
                rows = map(" ".join, zip(rows, _floats(attr[a:b])))
            fh.write("\n".join(rows) + "\n")
        _int_rows(fh, "4 %d %d %d %d\n", mesh.faces)


def _distinct_text(values):
    """Text of every float of values, formatting each distinct bit
    pattern once (so -0.0 and 0.0 stay apart): an object array."""
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.uint64)
    uniq, inverse = np.unique(bits, return_inverse=True)
    return np.array(_floats(uniq.view(np.float64)), dtype=object)[inverse]


def _coord_rows(vals, memo_rows, shared):
    """Comma-joined text of each row of vals, taking column j from column
    shared[j] of the memo's row text where shared has it."""
    dim = vals.shape[1]
    if not shared or not len(vals):
        return _rows(_floats(vals), dim, ",")
    memo_cols = list(zip(*map(str.split, memo_rows)))
    cols = [memo_cols[shared[j]] if j in shared else _floats(vals[:, j])
            for j in range(dim)]
    return list(map(",".join, zip(*cols)))


def _write_grid_csv(path, header, zs, flags, valid, coords, extra=None):
    """Row-major grid table: z_re, z_im, the 0/1 flag columns, the
    coordinates on valid rows (blank elsewhere), then the per-row text
    of `extra` (an object array of ',...' suffixes) if given.  Every
    coordinate column with the bits of a memo column takes its text."""
    count = zs.size
    dim = coords.shape[-1]
    re_text = _distinct_text(zs.real)
    im_text = _distinct_text(zs.imag)
    flags = [np.asarray(f).ravel().astype(np.intp) for f in flags]
    valid = valid.ravel()
    vals = np.asarray(coords, dtype=float).reshape(count, dim)[valid]
    floats, memo = _memo
    shared = {}  # column -> a memo column with the same bits
    for j in range(dim):
        for i in range(3):
            if _same_bits(vals[:, j], floats[:, i]):
                shared[j] = i
                break
    blank = "," * dim
    stop = 0  # valid rows written so far
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a, b in _blocks(count):
            rows = re_text[a:b] + "," + im_text[a:b]
            for f in flags:
                rows += _FLAG_TEXT[f[a:b]]
            ok = valid[a:b]
            start, stop = stop, stop + np.count_nonzero(ok)
            tail = np.full(b - a, blank, dtype=object)
            text = _coord_rows(vals[start:stop], memo[start:stop], shared)
            tail[ok] = "," + np.array(text, dtype=object)
            rows += tail
            if extra is not None:
                rows += extra[a:b]
            fh.write("\n".join(rows.tolist()) + "\n")


def write_points_csv(path, zs, valid, coords, prefix):
    """One row per grid point (row-major): the point, its validity and
    the coordinates <prefix>_1.. where valid (blank elsewhere)."""
    header = ["z_re", "z_im", "valid"]
    header += [f"{prefix}_{k + 1}" for k in range(coords.shape[-1])]
    _write_grid_csv(path, header, zs, [valid], valid, coords)


def write_surface_csv(scan, path, residuals=None):
    """One row per grid point (row-major): the point, validity flags, the
    full surface coordinates, and any per-point residuals.

    `residuals` maps families to residual grids of the scan's shape (as
    `DiagnosticsReport.grids` returns them), NaN where a family has no
    value.  Every family with a value somewhere is written, in sorted
    order, as a res_<family> column, blank where NaN.
    """
    dim = scan.surface.shape[2]
    residuals = residuals or {}
    families = [fam for fam in sorted(residuals) if not np.isnan(residuals[fam]).all()]
    header = ["z_re", "z_im", "inside", "valid", "singular"]
    header += [f"g_{k + 1}" for k in range(dim)]
    header += [f"res_{fam}" for fam in families]
    extra = None
    for fam in families:
        values = np.ravel(residuals[fam])
        text = np.full(values.size, ",", dtype=object)
        found = ~np.isnan(values)
        text[found] = "," + np.array(_floats(values[found]), dtype=object)
        extra = text if extra is None else extra + text
    _write_grid_csv(path, header, scan.zs,
                    [scan.inside, scan.valid, scan.singular],
                    scan.valid, scan.surface, extra)
