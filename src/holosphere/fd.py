"""Finite-difference Wirtinger derivatives of plane fields.

A field is any callable accepting a numpy array of complex points and
returning values elementwise (scalars or coordinate vectors, shape (B,)
or (B, d)).  Derivatives in z and conj(z) are assembled from central
mixed partials:

    d/dz      = (d/dx - i d/dy) / 2
    d/dconj(z) = (d/dx + i d/dy) / 2

Central stencils are second-order accurate; one level of Richardson
extrapolation is applied by default for total order >= 2.  Step sizes
grow with the derivative order, balancing truncation against roundoff
amplification (~eps / h^order), which is what keeps fourth-order checks
above the double-precision noise floor.
"""

from math import comb

import numpy as np

from .errors import DomainError

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


def stencil_halfwidth(order, h, richardson=True):
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


def wirtinger(f, z, holo_order, anti_order=0, h=None, diameter=1.0,
              richardson=None, domain=None):
    """d^j/dz^j d^k/dconj(z)^k of the field f at the point z.

    z may also be an array of centres: the field is then evaluated once
    per stencil for all of them, and the result carries the centre axes
    in front of the field's value axes.  Each centre gets the same
    arithmetic as a call with that centre alone.

    When h is omitted it follows the per-order default for `diameter`.
    With `domain` given, the full stencil is required to stay inside it.
    """
    z = np.asarray(z, dtype=complex)
    order = holo_order + anti_order
    if order == 0:
        return field_at(f, z)
    if order > MAX_ORDER:
        raise ValueError(f"derivative order {order} exceeds {MAX_ORDER}")
    if h is None:
        h = default_step(diameter, order)
    if richardson is None:
        richardson = order >= 2
    if domain is not None:
        margin = stencil_halfwidth(order, h, richardson)
        inside = np.asarray(domain.contains(z, margin=margin))
        if not inside.all():
            bad = complex(z.ravel()[np.argmin(inside.ravel())])
            raise DomainError(
                f"finite-difference stencil at z={bad} leaves the domain"
            )
    weights = _wirtinger_weights(holo_order, anti_order)
    keys = list(weights)
    scale = 0.5 ** order

    def combine(parts):
        acc = weights[keys[0]] * parts[keys[0]]
        for key in keys[1:]:
            acc = acc + weights[key] * parts[key]
        return scale * acc

    d_h = combine(_mixed_partials(f, z, keys, h))
    if not richardson:
        return d_h
    d_h2 = combine(_mixed_partials(f, z, keys, 0.5 * h))
    return (4.0 * d_h2 - d_h) / 3.0
