"""Finite-difference Wirtinger derivatives of plane fields.

A field is any callable accepting a numpy array of complex points and
returning values elementwise (scalars or coordinate vectors, shape (B,)
or (B, d)).  Derivatives in z and conj(z) are assembled from central
mixed partials:

    d/dz      = (d/dx - i d/dy) / 2
    d/dconj(z) = (d/dx + i d/dy) / 2

Central stencils are second-order accurate; one level of Richardson
extrapolation is applied for total order >= 2.  Step sizes grow with the
derivative order, balancing truncation against roundoff amplification
(~eps / h^order), which is what keeps fourth-order checks above the
double-precision noise floor.

`wirtinger` takes every order of one step h in one call and evaluates
the field once at h, and once at h/2 if an order of 2 or more needs it,
for all of them.  `derivatives` is the one read plan of the checks: it
takes every (margin, step, order) read of a set of centres, groups the
reads by step, and returns whole arrays, NaN where a read's stencil does
not fit.  `stencil_table` lists every point those reads evaluate the
field at, so that a caller can evaluate the field once at the centres
and all of them and hand `derivatives` a `replayed` field that answers
from those rows.  `chain.stencil_batch` is that caller: every derivative
of a chain takes one chain evaluation per block of centres, the one that
a grid scan without reads makes too.
"""

import functools
from math import comb

import numpy as np

# Central-difference stencils (offsets, weights); divide by h**order.
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}

# Relative step per derivative order (times the domain diameter).
_STEP_FRACTION = {1: 1e-4, 2: 1e-4, 3: 2e-3, 4: 8e-3}

MAX_ORDER = 4


def default_step(diameter, order):
    """Step size for a derivative of the given total order on a domain of
    the given diameter."""
    if order < 1 or order > MAX_ORDER:
        raise ValueError(f"unsupported derivative order {order}")
    return _STEP_FRACTION[order] * diameter


def stencil_halfwidth(order, h):
    """Radius of the sampling stencil around the expansion point."""
    reach = 2 if order >= 3 else 1
    return reach * h * np.sqrt(2.0)


@functools.cache
def _wirtinger_weights(holo_order, anti_order):
    """Mixed-partial weights for d^j/dz^j d^k/dconj(z)^k (excluding the
    overall 1/2^(j+k)), as ((ax, ay), weight) pairs in the order of first
    use."""
    weights = {}
    j, k = holo_order, anti_order
    for a in range(j + 1):
        for c in range(k + 1):
            w = comb(j, a) * comb(k, c) * ((-1j) ** (j - a)) * (1j ** (k - c))
            key = (a + c, (j - a) + (k - c))
            weights[key] = weights.get(key, 0) + w
    return tuple(weights.items())


def field_at(f, pts):
    """Values of the field f at an array of points of any shape, with one
    batched field evaluation; the field's value axes follow the point axes."""
    vals = np.asarray(f(pts.ravel()))
    return vals.reshape(pts.shape + vals.shape[1:])


@functools.cache
def _offsets(keys):
    """The stencil offsets (px, py) that the mixed partials (ax, ay) of
    the tuple `keys` read, in the order of their first use, and for each
    key its (offset index, weight) entries."""
    needed, entries = {}, []
    for ax, ay in keys:
        ox, cx = _STENCILS[ax]
        oy, cy = _STENCILS[ay]
        entries.append(tuple((needed.setdefault((px, py), len(needed)), cx[i] * cy[jj])
                             for i, px in enumerate(ox) for jj, py in enumerate(oy)))
    return tuple(needed), tuple(entries)


def _stencil(z, offsets, h):
    """The points z + (px + i py) h, one row per offset (px, py)."""
    return np.array([z + (px + 1j * py) * h for (px, py) in offsets], dtype=complex)


def _mixed_partials(f, z, keys, h):
    """Evaluate the requested mixed partials (ax, ay) of f at the centre z
    (a point or an array of points) with one batched field evaluation."""
    offsets, entries = _offsets(keys)
    vals = field_at(f, _stencil(z, offsets, h))
    out = {}
    for (ax, ay), terms in zip(keys, entries):
        acc = terms[0][1] * vals[terms[0][0]]
        for idx, w in terms[1:]:
            acc = acc + w * vals[idx]
        out[ax, ay] = acc / h ** (ax + ay)
    return out


def _steps(order, h):
    """The steps at which a derivative of the given total order is
    differenced: none for the value, h for order 1, and h and h/2 (for
    one level of Richardson extrapolation) from order 2 on."""
    return () if not order else (h,) if order == 1 else (h, 0.5 * h)


@functools.cache
def _partial_plan(orders):
    """((factor, the mixed partials (ax, ay) that the tuple of orders
    (j, k) reads at the step factor * h), ...) for the factors 1 and 1/2
    of `_steps`, each tuple in the order of first use."""
    keys = {}
    for j, k in orders:
        if j + k > MAX_ORDER:
            raise ValueError(f"derivative order {j + k} exceeds {MAX_ORDER}")
        weights = dict(_wirtinger_weights(j, k))
        for factor in _steps(j + k, 1.0):
            keys.setdefault(factor, {}).update(dict.fromkeys(weights))
    return tuple((factor, tuple(need)) for factor, need in keys.items())


def _partials(orders, h):
    """{step: the mixed partials (ax, ay) that the orders (j, k) read at
    that step}, each tuple in the order of first use."""
    return {factor * h: keys for factor, keys in _partial_plan(tuple(orders))}


def wirtinger(f, z, orders, h):
    """d^j/dz^j d^k/dconj(z)^k of the field f at the point z for each
    order (j, k) of `orders`, as a list in that order.

    An order of total j + k >= 1 is taken at the step h, from total 2 on
    with one level of Richardson extrapolation from half that step; order
    (0, 0) is the field's value.  The field is evaluated once at each of
    h and h/2 that an order needs, for all orders, and each order gets the
    arithmetic of a call with it alone.  z may be an array of centres:
    each result then carries the centre axes in front of the field's
    value axes, and each centre gets the arithmetic of a call with it
    alone.
    """
    z = np.asarray(z, dtype=complex)
    parts = {step: _mixed_partials(f, z, keys, step)
             for step, keys in _partials(orders, h).items()}

    def combine(weights, scale, step):
        (first, w), *rest = weights
        acc = w * parts[step][first]
        for key, w in rest:
            acc = acc + w * parts[step][key]
        return scale * acc

    out = []
    for j, k in orders:
        weights = _wirtinger_weights(j, k)
        d = [combine(weights, 0.5 ** (j + k), step) for step in _steps(j + k, h)]
        if len(d) == 2:    # at h and h/2
            d = [(4.0 * d[1] - d[0]) / 3.0]
        out.append(d[0] if d else field_at(f, z))
    return out


def _read_plan(reads):
    """{step h: (the smallest margin that reads h, the orders read at h)}
    of the (margin, h, order) reads, in the order of first use."""
    plan = {}
    for margin, h, order in reads:
        margins, orders = plan.setdefault(h, ([], {}))
        margins.append(margin)
        orders[order] = None
    return {h: (min(margins), list(orders)) for h, (margins, orders) in plan.items()}


def stencil_table(z, reads, domain):
    """The points of one field evaluation that serves every read of
    `derivatives` at the flat array of centres z, and the plan with which
    `replayed` answers from it: (points, (rows, centre)).

    `points` holds z, then every point the reads ask for at the centres
    that fit their margins, once.  A stencil point is z + d for the
    displacement d = (px + i py) step, so the points of two stencils of
    one centre with the bits of one d are one point (as the offsets 2 at
    h/2 and 1 at h of orders 3 and 4 are), and a point with the bits of
    its centre reads the centre's row: a stencil's (0, 0) offset z + 0j
    does, unless a part of z is a negative zero.  Without a mask, the
    i-th point that `derivatives` asks its field for is points[rows[i]],
    read for the centre z[centre[i]]."""
    z = np.asarray(z, dtype=complex)
    # each block of asked points: one row per displacement and one column
    # per centre, the centres' indices, and the displacements' numbers,
    # one number per distinct bits
    blocks = [(np.empty((0, 0), dtype=complex), np.empty(0, dtype=np.intp), [])]
    numbers = {}

    def number(key):
        return numbers.setdefault(key, len(numbers))

    for h, (margin, orders) in _read_plan(reads).items():
        idx = np.flatnonzero(domain.contains(z, margin=margin))
        for step, keys in _partials(orders, h).items():
            offsets = _offsets(keys)[0]
            moves = _displacements(offsets, step)
            blocks.append((_stencil(z[idx], offsets, step), idx, list(map(number, moves))))
        if (0, 0) in orders:    # the value at the centre, read after the partials
            blocks.append((z[idx][None], idx, [number("centre")]))
    asked = np.concatenate([pts.ravel() for pts, _, _ in blocks])
    centre = np.concatenate([np.tile(idx, len(n)) for _, idx, n in blocks])
    key = centre * len(numbers) + np.concatenate(
        [np.repeat(np.array(n, dtype=np.intp), idx.size) for _, idx, n in blocks])
    # the first entry of each centre and displacement holds their point
    first = np.full(z.size * len(numbers), key.size)
    np.minimum.at(first, key, np.arange(key.size))
    first = first[key]
    own = (_bits(asked) == _bits(z[centre])).all(axis=1)
    new = (first == np.arange(key.size)) & ~own
    rows = np.where(own, centre, z.size + np.cumsum(new)[first] - 1)
    return np.concatenate([z, asked[new]]), (rows, centre)


def _displacements(offsets, step):
    """The bits of the displacement (px + i py) step of each offset: the
    points of one centre with the bits of one displacement are one
    point."""
    return [np.complex128((px + 1j * py) * step).tobytes() for px, py in offsets]


def stencil_size(reads):
    """The number of points per centre that a `stencil_table` adds to the
    centres, at most: its distinct displacements, the zero one included,
    since a centre with a negative zero part gets its own z + 0j point."""
    return len({move for h, (_, orders) in _read_plan(reads).items()
                for step, keys in _partials(orders, h).items()
                for move in _displacements(_offsets(keys)[0], step)})


def _bits(points):
    """The two 64-bit words of each complex point, one row per point:
    points are told apart by their bits, as a field evaluation may tell
    z from z + 0j where z has a negative zero part."""
    return np.ascontiguousarray(points, dtype=complex).ravel().view(np.int64).reshape(-1, 2)


def replayed(points, values, plan, where=None):
    """The field that `derivatives` reads at the centres of a
    `stencil_table`, with the mask `where` over them: asked in turn for
    the points of the plan, it answers from `values`, the field at
    `points`.  A call for other points than the next of the plan raises
    ValueError."""
    rows, centre = plan
    if where is not None:
        rows = rows[where[centre]]
    start = 0

    def field(zs):
        nonlocal start
        part = rows[start:start + zs.size]
        if not np.array_equal(_bits(zs), _bits(points[part])):
            raise ValueError("the field is asked for points out of its plan's order")
        start += zs.size
        return values[part]

    return field


def derivatives(f, z, reads, domain, where=None):
    """The derivatives of the field f that the reads ask for, at a flat
    array of centres z: one array per read (margin, h, (j, k)), over all
    of z, NaN except at the centres of the mask `where` (all, by default)
    that lie in the domain shrunk by the margin.

    The field is differentiated with one `wirtinger` call per distinct
    step, over the centres of the smallest margin that reads the step.
    The centres of a larger margin are a subset, and `wirtinger` gives
    each centre the arithmetic of a call with it alone, so every read gets
    the bits of a one-order call at its own centres.
    """
    z = np.asarray(z, dtype=complex)
    if where is None:
        where = np.ones(z.shape, dtype=bool)
    found = {}
    for h, (margin, orders) in _read_plan(reads).items():
        idx = np.flatnonzero(where & domain.contains(z, margin=margin))
        derivs = wirtinger(f, z[idx], orders, h)
        found.update(((h, o), (idx, d)) for o, d in zip(orders, derivs))
    out = []
    for margin, h, order in reads:
        idx, d = found[h, order]
        values = np.full(z.shape + d.shape[1:], np.nan, dtype=d.dtype)
        fits = domain.contains(z[idx], margin=margin)
        values[idx[fits]] = d[fits]
        out.append(values)
    return out
