"""Symmetric and Hermitian products on complex coordinate vectors.

The symmetric product is the plain bilinear sum (no conjugation); a
vector is isotropic when its symmetric self-product vanishes.  The
Hermitian product conjugates its second argument.  Subspace comparisons
go through principal angles of orthonormalized bases.

The underscore helpers reduce stacked rows (the last axis) in plain
array arithmetic.
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
    """The bilinear sum(u_k * v_k) of every row pair: `vecdot` conjugates
    its first argument, so u is conjugated first."""
    return np.vecdot(np.conj(u), v)


def _max0(values):
    """max(0.0, ...) over the last axis; NaN entries never replace the
    running value."""
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
