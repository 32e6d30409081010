"""Mesh and table output for grid scans.

A grid scan becomes a quad mesh: one vertex per valid grid point, one
quad per grid cell whose four corners are all valid.  Faces are an
(F, 4) integer array in row-major cell order, each quad listing the
corners (r, c), (r, c+1), (r+1, c+1), (r+1, c) as indices into the
valid vertices.  Writers emit OBJ (3-component projection), CSV (full
coordinates plus residuals) and optionally PLY with a per-vertex scalar
attribute.

Floats are written as `repr` writes them, the shortest text that reads
back to the same float, so identical inputs produce byte-identical
files.  `_float_rows` makes those bytes for a whole block of floats with
array arithmetic instead of one `repr` call per float.  It is exact for
1e-4 <= |x| < 1, the floats `repr` writes as 0.ddd: Dekker's
error-free product gives |x| * 10**q exactly, for q = 17 - decpt with
10**q exact in binary, and the 14 to 17 digits that fit the
float's rounding interval are picked from it.  Every other float (zeros,
NaN, infinities, |x| >= 1 and |x| < 1e-4), and the rare one whose
shortest form has 13 digits or fewer or lies halfway between two
candidates, takes `repr`.  A block of fewer than `_VECTOR_FLOATS`
floats takes `repr` whole: below that the kernel's fixed cost is the
larger.  Face indices are written from the same digit tables.

Nothing is kept between calls: each writer formats the floats it is
given, so a file does not depend on what was written before it.  Text
is formatted and written in blocks of `_BLOCK_ROWS` rows: the vertex
rows, the CSV rows with their coordinate, flag and residual columns,
the PLY attribute and the face lines.  Only the z_re and z_im texts of
a grid stay whole, one string per grid point, formatted once from their
distinct values; beyond them, the text held in memory at once is
bounded by the block, whatever the size of the grid.
"""

from dataclasses import dataclass, field

import numpy as np

_BLOCK_ROWS = 2048
# Blocks of fewer floats take repr: the kernel's fixed cost of about
# 0.2 ms a call equals repr's cost at about 170 floats (shared 2-core VM).
_VECTOR_FLOATS = 200


def _digit_tables():
    """The byte tables of the kernels, built by array arithmetic.

    quads[k] holds the four ASCII digits of k < 10**4 as one uint32 (in
    memory order); trimmed[k] the same with leading zeros as NUL bytes,
    keeping the last digit.  prefix[40 * neg + 10 * (decpt + 3) + d] is
    the 8-byte start of a float's text, '-' if neg, '0.', -decpt zeros
    and the leading digit d, NUL-padded, as one uint64."""
    d = np.arange(10, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits[..., 0] = d[:, None, None, None]
    digits[..., 1] = d[:, None, None]
    digits[..., 2] = d[:, None]
    digits[..., 3] = d
    digits = digits.reshape(10**4, 4)
    keep = np.logical_or.accumulate(digits > 0, axis=1)
    keep[:, 3] = True
    text = digits + np.uint8(ord("0"))
    prefix = np.zeros((2, 4, 10, 8), dtype=np.uint8)
    for neg in range(2):
        for z in range(4):
            head = np.frombuffer(b"-" * neg + b"0." + b"0" * (3 - z), np.uint8)
            prefix[neg, z, :, :len(head)] = head
            prefix[neg, z, :, len(head)] = d + ord("0")
    return (text.view(np.uint32).ravel(), (text * keep).view(np.uint32).ravel(),
            prefix.view(np.uint64).ravel())


_QUADS, _TRIMMED, _PREFIX = _digit_tables()
# Dekker's splitting constant, 2**27 + 1
_SPLIT = 134217729.0
# Indexed by decpt + 3 (decpt -3..0): the scale exponent q = 17 - decpt,
# 10**q (exact in binary: 5**20 < 2**53) and 5**q.
_Q = np.array([20, 19, 18, 17])
_SCALE = 10.0 ** _Q
_FIVES = 5 ** _Q


def _word(text, dtype=np.uint64):
    """text, NUL-padded to the item size of dtype, as one item in memory
    order."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(text.encode().ljust(size, b"\0"), dtype=dtype)[0]


def _ascii(buf):
    """The text of a byte buffer with its NUL bytes dropped."""
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _split(v):
    """Dekker's split of v into halves of at most 26 significant bits,
    whose products are exact."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a, dec, shift):
    """a * 10**q exactly, as the int64 Q * 10**4 + L plus F units of
    2**-shift, 0 <= F < 2**shift."""
    scale = _SCALE[dec]
    # Dekker's TwoProduct: a * scale = p + err exactly; p >= 10**16 > 2**53
    # is an integer and err a multiple of 2**-shift with |err| <= 8
    p = a * scale
    (a_hi, a_lo), (s_hi, s_lo) = _split(a), _split(scale)
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    err = np.ldexp(err, shift).astype(np.int64)
    n = p.astype(np.int64) + (err >> shift)
    Q = n // 10**4
    return Q, n - Q * 10**4, err & ((1 << shift) - 1)


def _shortest(a):
    """Shortest round-trip digits of floats 1e-4 <= a < 1.

    Returns decpt + 3, the first 13 of the 17 digits Q, the last four L
    of the shortest form as int64, whether its 17th, 16th and 15th digit
    are dropped, and a mask of the floats that must take repr.  With
    V = a * 10**q exactly and u = 2**(e - 55 + q) (a = m * 2**(e - 53),
    m < 2**53), every quantity below is an integer multiple of u:
    V = (Q * 10**4 + L) + F * u, and the half-gap to either neighbouring
    float is 2 * 5**q units.  A multiple of 10**r is in the rounding
    interval iff the nearest one below or above V is, which integer
    comparisons decide exactly.

    Two rules of shortest-digit search cannot change a result here.  The
    gap below a power of two is half as wide, but a power of two in range
    has at most 10 significant digits, so V is a multiple of 10**4 and
    the float takes repr.  A point halfway between two floats below 1
    has at least 50 significant digits, so no candidate lies on the
    interval's ends, and whether they belong to it does not matter."""
    dec = ((a >= 1e-3).view(np.int8) + (a >= 1e-2).view(np.int8)
           + (a >= 1e-1).view(np.int8)).astype(np.intp)
    e = np.frexp(a)[1]
    shift = 55 - _Q[dec] - e  # 38..48: u = 2**-shift
    Q, L, F = _scaled(a, dec, shift)
    # V - R fits iff R * u + F <= the half-gap, and V + D iff D * u - F
    # <= the half-gap: R <= most_down and D <= most_up.
    half_gap = 2 * _FIVES[dec]
    most_down = (half_gap - F) >> shift
    most_up = (half_gap + F) >> shift
    lo, hi, L16 = (v.astype(np.int16) for v in (most_down, most_up, L))
    # The shortest form is the largest r with a multiple of 10**r in the
    # interval (a multiple of 10**(r+1) is one of 10**r): the one below V
    # is L mod 10**r down, the one above 10**r - that up.
    R = np.zeros_like(L16)
    ten = np.ones_like(L16)
    drops = []
    for t in (10, 100, 1000):
        R_t = L16 - L16 // t * t
        fit = (R_t <= lo) | (t - R_t <= hi)
        R += fit * (R_t - R)
        ten += fit * (t - ten)
        drops.append(fit)
    # A multiple of 10**4 fits: 13 digits or fewer, or a carry to 10**17.
    fallback = (L16 <= lo) | (10**4 - L16 <= hi)
    # Between the two candidates take the nearer, and repr on an exact tie.
    down, up = R <= lo, ten - R <= hi
    nearer = ((ten - 2 * R) << shift) - 2 * F  # distance up minus down, in u
    fallback |= down & up & (nearer == 0)
    up &= ~down | (nearer < 0)
    return dec, Q, L - R + up * ten, drops, fallback


def _float_rows(block, sep):
    """One string per row of a 2-D float block: the row's floats joined
    by sep, byte for byte `sep.join(map(repr, row))`."""
    block = np.asarray(block, dtype=float)
    if block.size < _VECTOR_FLOATS:
        return [sep.join(map(repr, row)) for row in block.tolist()]
    rows, cols = block.shape
    x = block.ravel()
    a = np.abs(x)
    slow = ~((a >= 1e-4) & (a < 1.0))
    a[slow] = 0.5  # no arithmetic on the values that take repr
    dec, Q, L, drops, fallback = _shortest(a)
    lead = Q // 10**12
    rest = Q - lead * 10**12
    g0 = rest // 10**8
    rest -= g0 * 10**8
    g1 = rest // 10**4
    # Per float 32 bytes: the prefix, 16 digits, the separator, NULs.
    words = np.empty((x.size, 4), dtype=np.uint64)
    words[:, 0] = _PREFIX[40 * (x < 0) + 10 * dec + lead]
    quads = words.view(np.uint32)
    quads[:, 2] = _QUADS[g0]
    quads[:, 3] = _QUADS[g1]
    quads[:, 4] = _QUADS[rest - g1 * 10**4]
    quads[:, 5] = _QUADS[np.minimum(L, 10**4 - 1)]  # 10**4 only on a fallback
    text = words.view(np.uint8)
    for k, drop in enumerate(drops):
        text[:, 23 - k] *= ~drop
    words[:, 3] = _word(sep)
    words.reshape(rows, cols, 4)[:, -1, 3] = _word("\n")
    idx = np.flatnonzero(slow | fallback)
    if idx.size:
        # a repr is at most 24 bytes, as '-2.2250738585072014e-308'
        reprs = np.array(list(map(repr, x[idx].tolist())), dtype="S24")
        text[idx, :24] = reprs.view(np.uint8).reshape(-1, 24)
    return _ascii(words).split("\n")[:-1]


def _blocks(count):
    """(start, stop) of each block of _BLOCK_ROWS rows out of count."""
    for start in range(0, count, _BLOCK_ROWS):
        yield start, min(start + _BLOCK_ROWS, count)


def _int_rows(fh, head, rows):
    """Write each row of an integer array as one line: head and the row's
    numbers, joined by spaces, as '%d' writes them.  Rows of numbers in
    0..10**8 - 1 are assembled from the digit tables."""
    cols = rows.shape[1]
    for a, b in _blocks(len(rows)):
        block = rows[a:b]
        if block.min() < 0 or block.max() >= 10**8:
            line = head + " %d" * cols + "\n"
            fh.write((line * (b - a)) % tuple(block.ravel().tolist()))
            continue
        hi = block // 10**4
        lo = block - hi * 10**4
        # Per number 12 bytes: the high and the low four digits, leading
        # zeros as NUL, then the separator; the head takes one such cell.
        cells = np.empty((b - a, cols + 1, 3), dtype=np.uint32)
        cells[:, 0] = [_word(head, np.uint32), 0, _word(" ", np.uint32)]
        cells[:, 1:, 0] = _TRIMMED[hi] * (hi > 0)
        cells[:, 1:, 1] = np.where(hi > 0, _QUADS[lo], _TRIMMED[lo])
        cells[:, 1:, 2] = _word(" ", np.uint32)
        cells[:, -1, 2] = _word("\n", np.uint32)
        fh.write(_ascii(cells))


@dataclass
class MeshOutput:
    """Vertices (full coordinates), quad connectivity over the grid, and
    per-vertex scalar attributes."""

    vertices: np.ndarray         # (M, dim) float
    faces: np.ndarray            # (F, 4) int quads, 0-based indices into vertices
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

    def vertex_text(self, components, attribute=None):
        """Text of the vertices, one list of row strings per block of
        _BLOCK_ROWS vertices: the floats of a 1-based component triple,
        then the named per-vertex attribute if the mesh has it, joined by
        spaces.  The text is formatted on every call from the vertices as
        they are; nothing is kept between calls.  The triple is checked
        at the call, the blocks are formatted as they are read."""
        pts = self.component_triple(components)
        attr = self.attributes.get(attribute) if attribute else None
        if attr is not None:
            pts = np.column_stack([pts, attr])
        return (_float_rows(pts[a:b], " ") for a, b in _blocks(len(pts)))


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
        attributes=attrs,
    )


def write_obj(mesh, path, components=(1, 2, 3)):
    """OBJ with the chosen 1-based coordinate triple and quad faces."""
    text = mesh.vertex_text(components)
    with open(path, "w") as fh:
        if not len(mesh.vertices):
            fh.write("\n")  # an empty mesh is one blank line
        for rows in text:
            fh.write(("v %s\n" * len(rows)) % tuple(rows))
        _int_rows(fh, "f", mesh.faces + 1)


def write_ply(mesh, path, components=(1, 2, 3), attribute=None):
    """ASCII PLY with an optional per-vertex scalar attribute."""
    text = mesh.vertex_text(components, attribute)
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property double x",
        "property double y",
        "property double z",
    ]
    if attribute and attribute in mesh.attributes:
        header.append(f"property double {attribute}")
    header += [
        f"element face {len(mesh.faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for rows in text:
            fh.write("\n".join(rows) + "\n")
        _int_rows(fh, "4", mesh.faces)


def _distinct_text(values, lead=""):
    """lead and the text of every float of values, formatting each
    distinct bit pattern once (so -0.0 and 0.0 stay apart): an object
    array."""
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.uint64)
    uniq, inverse = np.unique(bits, return_inverse=True)
    text = _float_rows(uniq.view(np.float64)[:, None], "")
    return (lead + np.array(text, dtype=object))[inverse]


def _optional_text(values):
    """',<float>' text of each value, ',' where NaN: an object array."""
    text = np.full(values.size, ",", dtype=object)
    found = ~np.isnan(values)
    text[found] = "," + np.array(_float_rows(values[found][:, None], ""),
                                 dtype=object)
    return text


def _write_grid_csv(path, header, zs, flags, valid, coords, extra=()):
    """Row-major grid table: z_re, z_im, the 0/1 flag columns, the
    coordinates on valid rows (blank elsewhere), then one column per
    flat float array of `extra` (blank where NaN)."""
    count = zs.size
    dim = coords.shape[-1]
    re_text = _distinct_text(zs.real)
    im_text = _distinct_text(zs.imag, ",")
    # ',b1,...,bk,' for the 0/1 flags of a row, by their bits as one code
    k = len(flags)
    flag_text = np.array([",".join(["", *format(c, f"0{k}b"), ""])
                          for c in range(2**k)], dtype=object)
    code = sum(np.asarray(f).ravel().astype(np.intp) << (k - 1 - j)
               for j, f in enumerate(flags))
    valid = valid.ravel()
    vals = np.asarray(coords, dtype=float).reshape(count, dim)[valid]
    blank = "," * (dim - 1)
    stop = 0  # valid rows written so far
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for a, b in _blocks(count):
            ok = valid[a:b]
            start, stop = stop, stop + np.count_nonzero(ok)
            tail = np.full(b - a, blank, dtype=object)
            tail[ok] = _float_rows(vals[start:stop], ",")
            rows = re_text[a:b] + im_text[a:b] + flag_text[code[a:b]] + tail
            for values in extra:
                rows += _optional_text(values[a:b])
            fh.write("\n".join(rows.tolist()) + "\n")


def write_points_csv(scan, path, prefix):
    """One row per grid point of a map's scan (row-major): the point, its
    validity and the map's coordinates <prefix>_1.. where valid (blank
    elsewhere)."""
    header = ["z_re", "z_im", "valid"]
    header += [f"{prefix}_{k + 1}" for k in range(scan.surface.shape[-1])]
    _write_grid_csv(path, header, scan.zs, [scan.valid], scan.valid, scan.surface)


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
    _write_grid_csv(path, header, scan.zs,
                    [scan.inside, scan.valid, scan.singular],
                    scan.valid, scan.surface,
                    [np.ravel(residuals[fam]) for fam in families])
