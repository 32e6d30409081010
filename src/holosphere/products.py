"""Symmetric and Hermitian products on complex coordinate vectors.

The symmetric product is the plain bilinear sum (no conjugation); a
vector is isotropic when its symmetric self-product vanishes.  The
Hermitian product, `_dot(u, conj(v))`, conjugates its second argument.

The underscore helpers reduce stacked rows (the last axis) in plain
array arithmetic.
"""

import numpy as np


def _pair_minors_max(u, v):
    """Largest absolute 2x2 minor of every row pair of u and v (B, d);
    zero iff the pair is collinear."""
    minors = np.abs(u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None])
    return minors.max(axis=(1, 2))


def _dot(u, v):
    """The bilinear sum(u_k * v_k) of every row pair: `vecdot` conjugates
    its first argument, so u is conjugated first."""
    return np.vecdot(np.conj(u), v)


def _max0(values):
    """max(0.0, ...) over the last axis; NaN entries never replace the
    running value."""
    return np.fmax.reduce(values, axis=-1, initial=0.0)
