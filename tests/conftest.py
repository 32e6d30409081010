import itertools
import json
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from holosphere import Domain, build_alpha_chain, f_chain_eval, geometry, reconstruct
from holosphere.applications import (
    _RANK_THRESHOLD,
    KaehlerRegularityReport,
    _kaehler_base,
    _normal_terms,
)
from holosphere.chain import require_regular, stencil_batch, stencil_rows
from holosphere.cli import _json_text
from holosphere.errors import SingularPointError
from holosphere.expr import _canonical, _poly_integral
from holosphere.fd import default_step, wirtinger
from holosphere.geometry import SurfaceEvaluator


@pytest.fixture(scope="session")
def chain_n1():
    return build_alpha_chain(["1"])


@pytest.fixture(scope="session")
def chain_n2():
    return build_alpha_chain(["1", "1"])


@pytest.fixture(scope="session")
def chain_n3():
    return build_alpha_chain(["1", "1", "1"])


@pytest.fixture(scope="session")
def surface_n1(chain_n1):
    return SurfaceEvaluator.from_chain(chain_n1)


@pytest.fixture(scope="session")
def surface_n2(chain_n2):
    return SurfaceEvaluator.from_chain(chain_n2)


@pytest.fixture(scope="session")
def small_sphere_surface():
    """A round but non-great 2-sphere inside S^4: minimal it is not.

    Image of z -> (c, N(z), 0) / sqrt(1 + c^2) with N the inverse
    stereographic projection; its mean curvature residual is c/4.
    """
    c = 0.5

    def func(zs):
        out = np.empty((zs.size, 5))
        D = 1 + np.abs(zs) ** 2
        out[:, 0] = c
        out[:, 1] = 2 * zs.real / D
        out[:, 2] = 2 * zs.imag / D
        out[:, 3] = (np.abs(zs) ** 2 - 1) / D
        out[:, 4] = 0.0
        return out / np.sqrt(1 + c * c)

    return SurfaceEvaluator(
        func=func, domain=Domain.rectangle(-1 - 1j, 1 + 1j), dim=5, n=2
    )


def oracle_surface_n1(phi, dphi):
    """Closed form for the n=1 surface, derived independently by expanding
    the orthogonalization of (1 - p^2, i(1 + p^2), 2p) by hand:

        F_2 = -(2 p' / (1+|p|^2)) * (2 Re p, 2 Im p, |p|^2 - 1),

    so the normalized real part is -sign(Re p') times the inverse
    stereographic image of p.
    """
    D = 1 + abs(phi) ** 2
    sign = 1.0 if dphi.real > 0 else -1.0
    return -sign * np.array([2 * phi.real, 2 * phi.imag, abs(phi) ** 2 - 1]) / D


# gamma(x, y) of the Kaehler map with its partials (gamma, gamma_x,
# gamma_y), written out by hand
GAMMA_ORACLES = {
    "1+x^2+y^2": lambda x, y: (1 + x**2 + y**2, 2 * x, 2 * y),
    "2+x-0.5*y^2": lambda x, y: (2 + x - 0.5 * y**2, np.ones_like(x), -y),
    "exp(x)*cos(y)+1": lambda x, y: (np.exp(x) * np.cos(y) + 1,
                                     np.exp(x) * np.cos(y), -np.exp(x) * np.sin(y)),
    "(1+x)^3/(2+y)": lambda x, y: ((1 + x) ** 3 / (2 + y), 3 * (1 + x) ** 2 / (2 + y),
                                   -(1 + x) ** 3 / (2 + y) ** 2),
    "sin(x*y)-x^5/(3+y^2)": lambda x, y: (
        np.sin(x * y) - x**5 / (3 + y**2),
        y * np.cos(x * y) - 5 * x**4 / (3 + y**2),
        x * np.cos(x * y) + 2 * y * x**5 / (3 + y**2) ** 2),
}


# ---------------------------------------------------------------------------
# Oracles: independent constructions that the tests compare the package
# against.  Each takes its derivatives by finite differences of its own.
# ---------------------------------------------------------------------------

def stencil_field(chain):
    """The chain's `stencil_rows` as a plain field: from a flat array of
    points to the rows of their own chain evaluation.  The oracle for the
    reads that `chain.stencil_batch` replays from one evaluation."""
    return lambda zs: stencil_rows(f_chain_eval(chain, zs))


def sweep_block(chain, centres, h, calabi_order, perturb=None):
    """The `geometry._Sweep` of the centres as one block of `verify_all`
    at the FD step h: their chain batch and the reader of their
    `stencil_batch` for the sweep's reads."""
    reads = geometry._sweep_reads(chain.domain, h, calabi_order)
    batch, derivs = stencil_batch(chain, centres, reads)
    return geometry._Sweep(chain, batch[:centres.size], calabi_order, perturb, derivs)


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


def isotropic_surface_form_residual(chain, z):
    """Check, by finite differences, that twice the second fundamental
    form of the auxiliary isotropic map f = Re(antiderivative of the top
    chain map) along the repeated z-direction equals the second chain
    vector.

    f is a minimal surface in flat space whose complexified tangent is
    spanned by the first chain vector and its conjugate; the identity is
    the s = 1 case of the normal-bundle ladder (higher orders follow
    from the orthogonalization itself).  Returns the relative residual.
    """
    antis = [
        _poly_integral(_canonical(c), 0j, chain.domain.base_point)
        for c in chain.alpha_coeffs[chain.n]
    ]

    def f_field(zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        out = np.empty((zs.size, chain.dim))
        for c, a in enumerate(antis):
            out[:, c] = npoly.polyval(zs, a).real
        return out

    h = default_step(chain.domain.diameter, 1)
    batch = f_chain_eval(chain, np.array([z]))
    if batch.singular[0]:
        raise SingularPointError("chain degenerates", z)
    v = 2.0 * wirtinger(f_field, z, [(2, 0)], h=h)[0]
    F1 = batch.F[0, 0]
    F1bar = np.conj(F1)
    nsq = batch.norms_sq[0, 0]
    v = v - (np.dot(v, F1bar) / nsq) * F1 - (np.dot(v, F1) / nsq) * F1bar
    ref = batch.F[0, 1]
    return float(np.linalg.norm(v - ref) / np.linalg.norm(ref))


def second_normal_space_angle(chain, z):
    """Largest principal angle between the FD second-order normal space
    of the surface and the span of the (n-1)-th chain vector and its
    conjugate.  Requires n >= 2."""
    if chain.n < 2:
        raise ValueError("second normal space needs n >= 2")
    g = SurfaceEvaluator.from_chain(chain)
    dg, d2 = wirtinger(g, z, [(1, 0), (2, 0)], default_step(chain.domain.diameter, 1))
    basis = np.stack([g(np.array([z]))[0], 2.0 * dg.real, -2.0 * dg.imag], axis=1)
    q, _ = np.linalg.qr(basis)
    v1 = d2 - q.astype(complex) @ (q.T.astype(complex) @ d2)
    F = f_chain_eval(chain, np.array([z])).F[0]
    fd_basis = np.stack([v1, np.conj(v1)], axis=1)
    chain_basis = np.stack([F[chain.n - 2], np.conj(F[chain.n - 2])], axis=1)
    return float(principal_angles(fd_basis, chain_basis).max())


def kaehler_point_reference(chain, params, z):
    """Independent assembly of the Kaehler map at (z, w): gamma g +
    pushforward of the metric gradient of gamma (from a finite-difference
    tangent vector) plus the normal term.  Cross-checks the closed
    formula of `applications.kaehler_point`."""
    g_eval = SurfaceEvaluator.from_chain(chain)
    batch = f_chain_eval(chain, np.array([z]))
    require_regular(batch)
    gamma, gamma_z = params.gamma_values(complex(z))
    dg, = wirtinger(g_eval, z, [(1, 0)], default_step(chain.domain.diameter, 1))
    metric = float(np.sum(np.abs(dg) ** 2))
    grad_push = (2.0 / metric) * np.real(np.conj(gamma_z) * dg)
    w = np.array(params.w, dtype=complex)
    return gamma * batch.g[0] + grad_push + _normal_terms(batch.F[0], w)


def ref_kaehler_immersion_check(chain, params, z_grid, w_box, w_samples):
    """The Kaehler regularity check over the whole z-grid at once: the
    chain on the five-point stencils {z, z+-h, z+-ih} of every centre in
    one batch, central differences taken by hand and every (centre, cell)
    Jacobian in one array.  The reference for the blocked
    `applications.kaehler_immersion_check`."""
    n = chain.n
    expected = 2 * n
    h_z = 1e-5 * chain.domain.diameter
    zs, inside = chain.domain.grid(*z_grid, margin=4 * h_z)
    centres = zs[inside]
    w_vals = np.linspace(w_box[0], w_box[1], w_samples)
    axis = [complex(u, v) for u in w_vals for v in w_vals]
    w = np.array(list(itertools.product(axis, repeat=n - 1)), dtype=complex)

    # stencil rows: z, z + h, z - h, z + ih, z - ih
    pts = np.stack([centres, centres + h_z, centres - h_z,
                    centres + 1j * h_z, centres - 1j * h_z])
    batch = f_chain_eval(chain, pts.ravel())
    base = _kaehler_base(batch, params).reshape(pts.shape + (-1,))
    F = batch.F.reshape(pts.shape + batch.F.shape[1:])[:, :, :n - 1]
    degenerate = np.isnan(base[..., 0]).any(axis=0)

    cols = []
    for plus, minus in ((1, 2), (3, 4)):   # d/dx, d/dy
        dbase = (base[plus] - base[minus]) / (2 * h_z)
        dF = (F[plus] - F[minus]) / (2 * h_z)
        cols.append(dbase[:, None] + _normal_terms(dF[:, None], w[None]))
    for j in range(n - 1):                 # d/du_j, d/dv_j
        for part in (F[0, :, j].real, -F[0, :, j].imag):
            cols.append(np.broadcast_to(part[:, None], cols[0].shape))
    jac = np.stack(cols, axis=-1)          # (centre, cell, dim, 2n)
    sigmas = np.zeros(jac.shape[:2] + (expected,))
    if not degenerate.all():
        sigmas[~degenerate] = np.linalg.svd(jac[~degenerate], compute_uv=False)

    # degenerate cells keep all-zero singular values, hence rank 0
    top = np.where(sigmas[..., 0] > 0, sigmas[..., 0], 1.0)
    ranks = np.sum(sigmas > _RANK_THRESHOLD * top[..., None], axis=-1)
    return KaehlerRegularityReport(expected_rank=expected, centres=centres, w=w,
                                   ranks=ranks)


def ref_jet(top, n):
    """The jet array (deg+1, n+1, 2n+1) of the map with components top,
    each derivative matrix from `npoly.polyder` of the one before: the
    reference for the chain's one-product-per-derivative `_jet`."""
    jet = np.zeros((max(len(c) for c in top), n + 1, 2 * n + 1), dtype=complex)
    for c, col in enumerate(top):
        jet[: len(col), 0, c] = col
    mat = jet[:, 0]
    for k in range(1, n + 1):
        mat = npoly.polyder(mat, axis=0)
        jet[: len(mat), k] = mat
    return jet


# ---------------------------------------------------------------------------
# The spectral products of `reconstruct._Grid` as complex products, the
# form that its real products are compared against.
# ---------------------------------------------------------------------------

def ref_grid_wirtinger(grid, V, anti=False):
    """d/dz (d/dconj(z) when anti) of a `reconstruct._Grid`'s polynomial
    at its nodes, from complex `tensordot` products with the
    differentiation matrices: the reference for the grid's real
    products."""
    dx = np.tensordot(grid._Dx, V, axes=(1, 0))
    dy = np.moveaxis(np.tensordot(grid._Dy, V, axes=(1, 1)), 0, 1)
    return 0.5 * (dx + 1j * dy if anti else dx - 1j * dy)


def ref_grid_at(grid, V, zs):
    """A `reconstruct._Grid`'s polynomial at the points zs, from a
    complex `tensordot` with the x-axis Lagrange basis and a complex
    product with the y-axis one: the reference for `_Grid.at`."""
    Lx = reconstruct._basis(grid.xs, grid._wx, zs.real)
    Ly = reconstruct._basis(grid.ys, grid._wy, zs.imag)
    flat = V.reshape(V.shape[:2] + (-1,))
    out = np.sum(np.tensordot(Lx, flat, axes=(1, 0)) * Ly[:, :, None], axis=1)
    return out.reshape(zs.shape + V.shape[2:])


# ---------------------------------------------------------------------------
# One-point reads that the package's batched reads are compared against.
# ---------------------------------------------------------------------------

def holomorphy_residual(xi, z):
    """|d(xi)/dconj(z)| / |xi| of a sampled field at the one point z,
    from two one-row reads of its interpolant: the per-point form of
    `XiField.holomorphy_residuals`."""
    zs = np.array([z], dtype=complex)
    dbar = xi._grid.at(xi._dbar, zs)[0]
    return float(np.linalg.norm(dbar) / max(np.linalg.norm(xi(zs)[0]), 1e-300))


# ---------------------------------------------------------------------------
# Reference encoder of diagnostics.json: a dict per point, the walk that
# turns non-finite floats into None, and json's indenting encoder.  The
# package builds the same text from the report's arrays.
# ---------------------------------------------------------------------------

def calabi_table(pairs, row):
    """The symmetric table {(j, k): value} of one row of Calabi entries,
    ordered as `calabi_check` returns it."""
    table = {}
    for (j, k), val in zip(pairs, np.asarray(row).tolist()):
        table[j, k] = table[k, j] = val
    return table


def reference_points(report):
    """The record of every inside point of the report's scan, as dicts."""
    inside = report.scan.inside
    zs = report.scan.zs[inside]
    columns = [(fam, values.tolist(), (~np.isnan(values)).tolist())
               for fam, values in report.residuals.items()]
    pairs, values = report.calabi
    tables = [{f"{j},{k}": v for (j, k), v in calabi_table(pairs, row).items()}
              if found else {}
              for row, found in zip(values, ~np.isnan(values).all(axis=1))]
    return [
        {
            "z": [re, im],
            "singular": singular,
            "residuals": {fam: col[i] for fam, col, keep in columns if keep[i]},
            "calabi": tables[i],
        }
        for i, (re, im, singular) in enumerate(zip(
            zs.real.tolist(), zs.imag.tolist(), report.scan.singular[inside].tolist()))
    ]


def _reference_finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _reference_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_finite(v) for v in obj]
    return obj


def reference_text(report):
    """diagnostics.json of the report by the reference encoder."""
    doc = dict(report.to_dict(), points=reference_points(report))
    return json.dumps(_reference_finite(doc), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def report_text(report):
    """diagnostics.json of the report as the command line writes it."""
    return _json_text(report.to_dict(), {"points": report.points_json()})
