"""Symmetric and Hermitian products on complex coordinate vectors.

The symmetric product is the plain bilinear sum (no conjugation); a
vector is isotropic when its symmetric self-product vanishes.  The
Hermitian product conjugates its second argument.  Subspace comparisons
go through principal angles of orthonormalized bases.

The underscore helpers reduce stacked rows (the last axis) and give every
row the bits of the one-vector numpy or Python call named in each; the
array forms that look the same (`np.abs` on complex arrays, array
complex products, `**` on float arrays) round differently in the last
bit, and the recorded outputs depend on those bits.
"""

import numpy as np


def _check_pair(u, v):
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return u, v


def symmetric_product(u, v):
    """Bilinear sum(u_k * v_k), no conjugation."""
    u, v = _check_pair(u, v)
    return complex(np.dot(u, v))


def hermitian_product(u, v):
    """sum(u_k * conj(v_k)); conjugate-symmetric, positive on u == v."""
    u, v = _check_pair(u, v)
    return complex(np.dot(u, np.conj(v)))


def norm_sq(u):
    """Hermitian self-product, as a real number."""
    u = np.asarray(u, dtype=complex)
    return float(np.real(np.dot(u, np.conj(u))))


def pair_minors_max(u, v):
    """Largest absolute 2x2 minor of the pair (u, v); zero iff collinear."""
    u, v = _check_pair(u, v)
    return float(_pair_minors_max(u[None], v[None])[0])


def _pair_minors_max(u, v):
    """`pair_minors_max` of every row pair of u and v (B, d)."""
    minors = np.abs(u[:, :, None] * v[:, None, :] - u[:, None, :] * v[:, :, None])
    return minors.max(axis=(1, 2))


def _dot(u, v):
    """np.dot(u[i], v[i]) of every row pair: `vecdot` conjugates its
    first argument, and conjugating u first gives np.dot's bits."""
    return np.vecdot(np.conj(u), v)


def _norm(v):
    """np.linalg.norm of every row.  A complex norm sums the squares of
    the real and imaginary views; a real one reduces a contiguous copy,
    as np.linalg.norm does for a strided row."""
    if np.iscomplexobj(v):
        return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    v = np.ascontiguousarray(v)
    return np.sqrt(np.vecdot(v, v))


def _abs(c):
    """Python abs() of every complex entry: the hypot of its parts."""
    return np.hypot(c.real, c.imag)


def _square(x):
    """x ** 2 of every float entry as Python computes it on a float: the C
    library's pow, which rounds a few squares unlike x * x.  An object
    array applies the Python operator entry by entry."""
    return (np.asarray(x).astype(object) ** 2).astype(float)


def _cmul(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi) as a Python or
    numpy complex scalar product rounds them, without the fused
    multiply-adds of numpy's array product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re, im):
    """The complex array with the given parts, signed zeros kept."""
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def _max0(values):
    """The running max(0.0, ...) of the one-point loops over the last
    axis: NaN entries never replace the running value."""
    return np.fmax.reduce(values, axis=-1, initial=0.0)


def principal_angles(basis_a, basis_b):
    """Principal angles (radians, ascending) between the column spans of
    two bases of the same complex coordinate space.

    Small angles come from the sine of the residual projection rather
    than arccos, which loses half the significant digits near zero.
    """
    a = np.asarray(basis_a, dtype=complex)
    b = np.asarray(basis_b, dtype=complex)
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    m = qa.conj().T @ qb
    cosines = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    sines = np.sort(
        np.clip(np.linalg.svd(qb - qa @ m, compute_uv=False), 0.0, 1.0)
    )
    return np.where(
        cosines**2 < 0.5, np.arccos(cosines), np.arcsin(sines)
    )
