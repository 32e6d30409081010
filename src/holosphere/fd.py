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

`wirtinger` takes every order a check needs in one call and evaluates
the field once per distinct step for all of them, so the checks of a
chain surface share one evaluation per stencil step (see
`chain.stencil_field`).
"""

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


def _wirtinger_weights(holo_order, anti_order):
    """Mixed-partial weights for d^j/dz^j d^k/dconj(z)^k (excluding the
    overall 1/2^(j+k))."""
    weights = {}
    j, k = holo_order, anti_order
    for a in range(j + 1):
        for c in range(k + 1):
            w = comb(j, a) * comb(k, c) * ((-1j) ** (j - a)) * (1j ** (k - c))
            key = (a + c, (j - a) + (k - c))
            weights[key] = weights.get(key, 0) + w
    return weights


def field_at(f, pts):
    """Values of the field f at an array of points of any shape, with one
    batched field evaluation; the field's value axes follow the point axes."""
    vals = np.asarray(f(pts.ravel()))
    return vals.reshape(pts.shape + vals.shape[1:])


def _mixed_partials(f, z, keys, h):
    """Evaluate the requested mixed partials (ax, ay) of f at the centre z
    (a point or an array of points) with one batched field evaluation."""
    needed = {}
    plan = []
    for ax, ay in keys:
        ox, cx = _STENCILS[ax]
        oy, cy = _STENCILS[ay]
        entries = []
        for i, px in enumerate(ox):
            for jj, py in enumerate(oy):
                idx = needed.setdefault((px, py), len(needed))
                entries.append((idx, cx[i] * cy[jj]))
        plan.append(((ax, ay), entries, h ** (ax + ay)))
    pts = np.array([z + (px + 1j * py) * h for (px, py) in needed], dtype=complex)
    vals = field_at(f, pts)
    out = {}
    for key, entries, scale in plan:
        acc = entries[0][1] * vals[entries[0][0]]
        for idx, w in entries[1:]:
            acc = acc + w * vals[idx]
        out[key] = acc / scale
    return out


def wirtinger(f, z, orders, h=None, diameter=1.0):
    """d^j/dz^j d^k/dconj(z)^k of the field f at the point z for each
    order (j, k) of `orders`, as a list in that order.

    An order of total j + k >= 1 is taken at the step h (by default the
    per-order step for `diameter`), from total 2 on with one level of
    Richardson extrapolation from half that step; order (0, 0) is the
    field's value.  The field is evaluated once per distinct step for all
    orders, and each order gets the arithmetic of a call with it alone.
    z may be an array of centres: each result then carries the centre
    axes in front of the field's value axes, and each centre gets the
    arithmetic of a call with it alone.
    """
    z = np.asarray(z, dtype=complex)
    plan, keys = [], {}
    for j, k in orders:
        order = j + k
        if order > MAX_ORDER:
            raise ValueError(f"derivative order {order} exceeds {MAX_ORDER}")
        steps = ()
        if order:
            step = h if h is not None else default_step(diameter, order)
            steps = (step, 0.5 * step) if order >= 2 else (step,)
        weights = _wirtinger_weights(j, k)
        for step in steps:
            keys.setdefault(step, {}).update(dict.fromkeys(weights))
        plan.append((weights, 0.5 ** order, steps))
    parts = {step: _mixed_partials(f, z, list(need), step)
             for step, need in keys.items()}

    def combine(weights, scale, step):
        first, *rest = weights
        acc = weights[first] * parts[step][first]
        for key in rest:
            acc = acc + weights[key] * parts[step][key]
        return scale * acc

    out = []
    for weights, scale, steps in plan:
        d = [combine(weights, scale, step) for step in steps]   # at h, h/2
        if len(d) == 2:
            d = [(4.0 * d[1] - d[0]) / 3.0]
        out.append(d[0] if d else field_at(f, z))
    return out
