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
files.  `_float_cells` makes those bytes for a whole block of floats with
array arithmetic.  It is exact for 1e-4 <= |x| < 1, the floats `repr`
writes as 0.ddd: Dekker's error-free product gives |x| * 10**q exactly,
for q = 17 - decpt with 10**q exact in binary, and the 14 to 17 digits
that fit the float's rounding interval are picked from it.  Other
floats, the rare one whose shortest form has 13 digits or fewer or lies
halfway between two candidates, and calls with fewer than
`_VECTOR_FLOATS` floats take `repr`.

Each block of `_BLOCK_ROWS` lines is built as one uint8 matrix of
fixed-width columns, NUL-padded.  A float takes a 32-byte cell: 8 bytes
for its sign, '0.', zeros and first digit, 16 for its other digits (or
24 for its `repr`), and 8 for the separator after it, or the line end
after a row's last float.  The NULs are dropped once per block and the
bytes written to a file opened in binary mode; blocks of fewer
coordinate floats than `_VECTOR_FLOATS` are joined from `repr` texts
instead.  Nothing is kept between calls, and the text held at once is
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


def _split(v):
    """Dekker's split of v into halves of at most 26 significant bits,
    whose products are exact."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


_QUADS, _TRIMMED, _PREFIX = _digit_tables()
# Dekker's splitting constant, 2**27 + 1
_SPLIT = 134217729.0
# Indexed by decpt + 3 (decpt -3..0): the scale exponent q = 17 - decpt,
# 10**q (exact in binary: 5**20 < 2**53), its Dekker halves and 5**q.
_Q = np.array([20, 19, 18, 17])
_SCALE = 10.0 ** _Q
_SCALE_HI, _SCALE_LO = _split(_SCALE)
_FIVES = 5 ** _Q
# 2.0**shift for the shifts of _scaled (38..48), exact
_POW2 = 2.0 ** np.arange(49)


def _word(text, dtype=np.uint64):
    """text, NUL-padded to the item size of dtype, as one item in memory
    order."""
    size = np.dtype(dtype).itemsize
    return np.frombuffer(text.encode().ljust(size, b"\0"), dtype=dtype)[0]


def _scaled(a, dec, shift):
    """a * 10**q exactly, as the int64 Q * 10**4 + L plus F units of
    2**-shift, 0 <= F < 2**shift."""
    # Dekker's TwoProduct: a * scale = p + err exactly; p >= 10**16 > 2**53
    # is an integer and err a multiple of 2**-shift with |err| <= 8
    p = a * _SCALE[dec]
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _SCALE_HI[dec], _SCALE_LO[dec]
    err = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    err = (err * _POW2[shift]).astype(np.int64)
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


def _blank(rows, cols, sep, end):
    """The (rows, 32 * cols) cells of a float block with the floats left
    out: 24 NULs, then sep (end in a row's last cell) padded to 8 bytes."""
    words = np.zeros((rows, cols, 4), dtype=np.uint64)
    words[..., 3] = _word(sep)
    words[:, -1, 3] = _word(end)
    return words.view(np.uint8).reshape(rows, 32 * cols)


def _float_cells(block, sep, end):
    """The (rows, 32 * cols) uint8 cells of a 2-D float block: with the
    NULs dropped, a row is byte for byte `sep.join(map(repr, row)) + end`."""
    block = np.asarray(block, dtype=float)
    cells = _blank(*block.shape, sep, end)
    x = block.ravel()
    text = cells.reshape(x.size, 32)
    if x.size < _VECTOR_FLOATS:
        idx = slice(None)
    else:
        a = np.abs(x)
        slow = ~((a >= 1e-4) & (a < 1.0))
        a[slow] = 0.5  # no arithmetic on the values that take repr
        dec, Q, L, drops, fallback = _shortest(a)
        lead = Q // 10**12
        rest = Q - lead * 10**12
        g0 = rest // 10**8
        rest -= g0 * 10**8
        g1 = rest // 10**4
        text.view(np.uint64)[:, 0] = _PREFIX[40 * (x < 0) + 10 * dec + lead]
        quads = text.view(np.uint32)
        quads[:, 2] = _QUADS[g0]
        quads[:, 3] = _QUADS[g1]
        quads[:, 4] = _QUADS[rest - g1 * 10**4]
        quads[:, 5] = _QUADS[np.minimum(L, 10**4 - 1)]  # 10**4 only on a fallback
        for k, drop in enumerate(drops):
            text[:, 23 - k] *= ~drop
        idx = np.flatnonzero(slow | fallback)
    # a repr is at most 24 bytes, as '-2.2250738585072014e-308'
    reprs = np.array(list(map(repr, x[idx].tolist())), dtype="S24")
    text[idx, :24] = reprs.view(np.uint8).reshape(-1, 24)
    return cells


def _cells(values, found, sep, end, small):
    """The column of a block's float rows: each row's floats joined by sep
    and followed by end, a row where found is False its separators alone.
    A list of str if small, else uint8 cells."""
    if small:
        blank = sep * (values.shape[1] - 1) + end
        return [sep.join(map(repr, row)) + end if ok else blank
                for row, ok in zip(values.tolist(), found.tolist())]
    if found.all():
        return _float_cells(values, sep, end)
    cells = _blank(len(values), values.shape[1], sep, end)
    cells[found] = _float_cells(values[found], sep, end)
    return cells


def _table(texts, codes, small):
    """The column texts[c] for each code c (the texts of one length): a
    list of str if small, else uint8 rows."""
    if small:
        return [texts[c] for c in codes.tolist()]
    table = np.frombuffer("".join(texts).encode(), np.uint8)
    return table.reshape(len(texts), -1)[codes]


def _write_rows(fh, count, width, columns):
    """Write count lines by blocks, line i the row i of each column that
    columns(a, b, small) returns for rows a:b.  small: the block has fewer
    than _VECTOR_FLOATS floats at width a row, and its columns are str."""
    for a in range(0, count, _BLOCK_ROWS):
        b = min(a + _BLOCK_ROWS, count)
        small = (b - a) * width < _VECTOR_FLOATS
        cols = columns(a, b, small)
        if small:
            fh.write("".join(map("".join, zip(*cols))).encode())
        else:
            fh.write(np.hstack(cols).tobytes().translate(None, b"\0"))


def _int_rows(fh, head, rows):
    """Write each row of an integer array as one line: head and the row's
    numbers, joined by spaces, as '%d' writes them.  Rows of numbers in
    0..10**8 - 1 are assembled from the digit tables."""
    cols = rows.shape[1]
    for a in range(0, len(rows), _BLOCK_ROWS):
        block = rows[a:a + _BLOCK_ROWS]
        if block.min() < 0 or block.max() >= 10**8:
            line = head + " %d" * cols + "\n"
            fh.write(((line * len(block)) % tuple(block.ravel().tolist())).encode())
            continue
        hi = block // 10**4
        lo = block - hi * 10**4
        # Per number 12 bytes: the high and the low four digits, leading
        # zeros as NUL, then the separator; the head takes one such cell.
        cells = np.empty((len(block), cols + 1, 3), dtype=np.uint32)
        cells[:, 0] = [_word(head, np.uint32), 0, _word(" ", np.uint32)]
        cells[:, 1:, 0] = _TRIMMED[hi] * (hi > 0)
        cells[:, 1:, 1] = np.where(hi > 0, _QUADS[lo], _TRIMMED[lo])
        cells[:, 1:, 2] = _word(" ", np.uint32)
        cells[:, -1, 2] = _word("\n", np.uint32)
        fh.write(cells.tobytes().translate(None, b"\0"))


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
    pts = mesh.component_triple(components)
    with open(path, "wb") as fh:
        if not len(pts):
            fh.write(b"\n")  # an empty mesh is one blank line
        _write_rows(fh, len(pts), 3, lambda a, b, small: [
            _table(["v "], np.zeros(b - a, dtype=np.intp), small),
            _cells(pts[a:b], np.ones(b - a, bool), " ", "\n", small)])
        _int_rows(fh, "f", mesh.faces + 1)


def write_ply(mesh, path, components=(1, 2, 3), attribute=None):
    """ASCII PLY with an optional per-vertex scalar attribute."""
    pts = mesh.component_triple(components)
    props = ["x", "y", "z"]
    if attribute and attribute in mesh.attributes:
        props.append(attribute)
        pts = np.column_stack([pts, mesh.attributes[attribute]])
    header = "".join([f"ply\nformat ascii 1.0\nelement vertex {len(mesh.vertices)}\n",
                      *(f"property double {name}\n" for name in props),
                      f"element face {len(mesh.faces)}\n",
                      "property list uchar int vertex_indices\nend_header\n"])
    with open(path, "wb") as fh:
        fh.write(header.encode())
        _write_rows(fh, len(pts), pts.shape[1], lambda a, b, small: [
            _cells(pts[a:b], np.ones(b - a, bool), " ", "\n", small)])
        _int_rows(fh, "4", mesh.faces)


def _write_grid_csv(path, header, zs, flags, valid, coords, extra=()):
    """Row-major grid table: z_re, z_im, the 0/1 flag columns, the
    coordinates on valid rows (blank elsewhere), then one column per
    flat float array of `extra` (blank where NaN)."""
    count = zs.size
    dim = coords.shape[-1]
    z = np.ascontiguousarray(zs, dtype=complex).ravel().view(float).reshape(count, 2)
    # 'b1,...,bk,' for the 0/1 flags of a row, by their bits as one code
    k = len(flags)
    flag_text = [",".join(format(c, f"0{k}b")) + "," for c in range(2**k)]
    code = sum(np.asarray(f, dtype=np.uint8).ravel() << (k - 1 - j)
               for j, f in enumerate(flags))
    valid = valid.ravel()
    vals = np.asarray(coords, dtype=float).reshape(count, dim)
    ends = [","] * len(extra) + ["\n"]

    def columns(a, b, small):
        if small:
            cols = [_cells(z[a:b], np.ones(b - a, bool), ",", ",", small)]
        else:  # one cell per distinct bit pattern: -0.0 and 0.0 stay apart
            bits = z[a:b].ravel().view(np.uint64)
            uniq, inverse = np.unique(bits, return_inverse=True)
            cells = _float_cells(uniq.view(np.float64)[:, None], ",", ",")
            cols = [cells[inverse].reshape(b - a, 64)]
        cols += [_table(flag_text, code[a:b], small),
                 _cells(vals[a:b], valid[a:b], ",", ends[0], small)]
        for values, end in zip(extra, ends[1:]):
            block = values[a:b]
            cols.append(_cells(block[:, None], ~np.isnan(block), "", end, small))
        return cols

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, count, dim, columns)


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
