"""Recovering holomorphic data from a black-box spherical surface.

Starting from the surface alone, nested finite-difference Wirtinger
derivatives build the descending sequence

    G_0 = g,   G_{s+1} = dG_s/dz - (<dG_s/dz, conj G_s> / |G_s|^2) G_s.

For a pseudoholomorphic surface the sequence terminates: G_{n+1} = 0 up
to FD noise, and xi = conj(G_n)/|G_n|^2 is holomorphic.  Sampling xi on
a grid, interpolating (tensor cubic), and feeding its jet through the
forward Gram-Schmidt construction reproduces the surface up to sign;
`roundtrip` measures the sup distance.  Surfaces that fail the
termination test are refused.

Nested FD of order n+1 is meaningless in double precision for large n;
reconstruction is capped at n <= MAX_RECONSTRUCT_N.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .chain import _gram_schmidt
from .errors import (
    DegenerateSurfaceError,
    DomainError,
    NotPseudoholomorphicError,
)
from .fd import wirtinger
from .products import norm_sq

MAX_RECONSTRUCT_N = 3

_DEGENERATE_RATIO = 1e-18


def _descend_field(g, level, h):
    """Batched evaluator of the level-th chain field of the surface g."""
    if level == 0:
        return lambda zs: np.asarray(g(zs), dtype=complex)
    inner = _descend_field(g, level - 1, h)

    def field(zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        vals = inner(zs)
        dG = wirtinger(inner, zs, 1, 0, h=h, richardson=True)
        nsq = np.sum(np.abs(vals) ** 2, axis=1)
        safe = np.where(nsq > 0, nsq, 1.0)
        coef = np.einsum("bd,bd->b", dG, np.conj(vals)) / safe
        return dG - coef[:, None] * vals

    return field


def _chain_margin(n, h):
    """Clearance needed by n+1 nested first-order stencils."""
    return 3.0 * (n + 2) * h


@dataclass
class GChainSample:
    """Descending chain of a surface at one point: G_0 = g(z) through
    G_n, their squared norms, and the relative size of G_{n+1} (zero for
    pseudoholomorphic surfaces)."""

    z: complex
    G: np.ndarray          # (n+1, dim): rows G_0..G_n
    norms_sq: np.ndarray   # (n+1,)
    residual: float        # ||G_{n+1}|| / ||G_n||

    @property
    def n(self):
        return self.G.shape[0] - 1


def g_chain_at(g, z, n=None, fd_step=None):
    """Evaluate the descending chain at one point by nested FD.

    Raises DegenerateSurfaceError when a chain norm collapses (e.g. the
    constant map at level 1), DomainError when the nested stencil does
    not fit.
    """
    if n is None:
        n = g.n
    if n is None:
        raise ValueError("chain depth n is required for a black-box surface")
    h = fd_step if fd_step is not None else g.step(1)
    if not g.domain.contains(z, margin=_chain_margin(n, h)):
        raise DomainError(f"nested stencil at z={z} leaves the domain")
    zs = np.array([z], dtype=complex)
    G = np.empty((n + 2, g.dim), dtype=complex)
    norms = np.empty(n + 2)
    for level in range(n + 2):
        G[level] = _descend_field(g, level, h)(zs)[0]
        norms[level] = norm_sq(G[level])
        if level <= n and level > 0 and norms[level] < _DEGENERATE_RATIO * norms[level - 1]:
            raise DegenerateSurfaceError(
                f"chain norm collapses at level {level}, z={z}"
            )
    residual = float(np.sqrt(norms[n + 1] / norms[n]))
    return GChainSample(z=z, G=G[: n + 1], norms_sq=norms[: n + 1], residual=residual)


def extract_xi(sample):
    """conj(G_n)/|G_n|^2: the holomorphic generator recovered from the
    chain bottom."""
    nsq = sample.norms_sq[-1]
    if nsq < _DEGENERATE_RATIO:
        raise DegenerateSurfaceError(f"degenerate chain bottom at z={sample.z}")
    return np.conj(sample.G[-1]) / nsq


def conjugate_descent_residual(g, z, s, fd_step=None):
    """FD residual of the conjugate-descent identity for the surface
    chain: d(conj G_s)/dz + (|G_s|^2/|G_{s-1}|^2) conj G_{s-1} = 0 for
    s >= 1 (at s = 1 the right side involves the position vector itself).
    Returns the residual normalized by the identity's own scale."""
    if s < 1:
        raise ValueError("the descent identity needs s >= 1")
    h = fd_step if fd_step is not None else g.step(1)
    if not g.domain.contains(z, margin=_chain_margin(s, h)):
        raise DomainError(f"nested stencil at z={z} leaves the domain")
    zs = np.array([z], dtype=complex)
    field_s = _descend_field(g, s, h)
    below = _descend_field(g, s - 1, h)(zs)[0]
    Gs = field_s(zs)[0]
    dGbar = wirtinger(lambda pts: np.conj(field_s(pts)), zs, 1, 0, h=h,
                      richardson=True)[0]
    ratio = norm_sq(Gs) / norm_sq(below)
    resid = np.linalg.norm(dGbar + ratio * np.conj(below))
    scale = norm_sq(Gs) / np.sqrt(norm_sq(below))
    return float(resid / scale)


# ---------------------------------------------------------------------------
# Sampled holomorphic fields
# ---------------------------------------------------------------------------

class XiField:
    """A vector-valued holomorphic field sampled on a rectangular grid,
    interpolated by tensor-product splines (cubic by default)."""

    def __init__(self, xs, ys, values, order=3):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=complex)
        if values.shape[:2] != (xs.size, ys.size):
            raise ValueError("values must have shape (len(xs), len(ys), dim)")
        if xs.size < order + 1 or ys.size < order + 1:
            raise ValueError(
                f"grid too sparse for order-{order} interpolation: "
                f"need at least {order + 1} samples per axis"
            )
        self.xs = xs
        self.ys = ys
        self.values = values
        self.order = order
        self.dim = values.shape[2]
        self._splines = [
            (
                RectBivariateSpline(xs, ys, values[:, :, c].real, kx=order, ky=order),
                RectBivariateSpline(xs, ys, values[:, :, c].imag, kx=order, ky=order),
            )
            for c in range(self.dim)
        ]

    @property
    def spacing(self):
        return max(
            float(np.diff(self.xs).max()), float(np.diff(self.ys).max())
        )

    def __call__(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        out = np.empty((zs.size, self.dim), dtype=complex)
        for c, (sre, sim) in enumerate(self._splines):
            out[:, c] = sre(zs.real, zs.imag, grid=False) + 1j * sim(
                zs.real, zs.imag, grid=False
            )
        return out

    def jet(self, zs, max_order, h=None):
        """Iterated d/dz of the interpolant at the points zs, orders
        0..max_order, via small-step central differences (the accuracy is
        limited by the spline, so no extrapolation is attempted)."""
        zs = np.asarray(zs, dtype=complex).ravel()
        if h is None:
            h = self.spacing / 10.0
        jets = np.empty((zs.size, max_order + 1, self.dim), dtype=complex)
        jets[:, 0] = self(zs)
        for k in range(1, max_order + 1):
            jets[:, k] = _jet_derivative(self, zs, k, h)
        return jets

    def holomorphy_residual(self, z, h=None):
        """|d(xi)/dconj(z)| / |xi| at z."""
        if h is None:
            h = self.spacing / 10.0
        dbar = wirtinger(self, z, 0, 1, h=h, richardson=False)
        return float(
            np.linalg.norm(dbar) / max(np.linalg.norm(self(np.array([z]))[0]), 1e-300)
        )


def _jet_derivative(field, zs, order, h):
    """order-th d/dz of the interpolated field by iterated central
    differences with step h."""
    if order == 0:
        return field(zs)

    def inner(pts):
        return _jet_derivative(field, pts, order - 1, h)

    return wirtinger(inner, zs, 1, 0, h=h, richardson=False)


def _sampling_box(g, n, h, box=None):
    margin = _chain_margin(n, h)
    x0, x1, y0, y1 = g.domain.bounds if box is None else box
    x0, x1 = x0 + margin, x1 - margin
    y0, y1 = y0 + margin, y1 - margin
    if x1 <= x0 or y1 <= y0:
        raise DomainError("domain too small for the nested stencil margin")
    return x0, x1, y0, y1


def probe_termination(g, n=None, fd_step=None, samples=5, box=None):
    """Relative size of G_{n+1} against G_n on a coarse probe grid: the
    termination test that certifies pseudoholomorphicity."""
    if n is None:
        n = g.n
    h = fd_step if fd_step is not None else g.step(1)
    x0, x1, y0, y1 = _sampling_box(g, n, h, box)
    xs = np.linspace(x0, x1, samples)
    ys = np.linspace(y0, y1, samples)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    top = _descend_field(g, n + 1, h)(zs)
    bot = _descend_field(g, n, h)(zs)
    bot_nsq = np.sum(np.abs(bot) ** 2, axis=1)
    top_nsq = np.sum(np.abs(top) ** 2, axis=1)
    safe = np.where(bot_nsq > 0, bot_nsq, 1.0)
    ratios = np.sqrt(top_nsq / safe)
    ratios[bot_nsq == 0] = np.inf
    return ratios


def sample_xi(g, n=None, rows=41, cols=41, fd_step=None, box=None):
    """Sample the recovered holomorphic field on a grid inset far enough
    from the boundary for the nested stencils.

    Returns (XiField, residual_ratios) where the ratios come from the
    coarse termination probe.
    """
    if n is None:
        n = g.n
    if n is None:
        raise ValueError("chain depth n is required for a black-box surface")
    if n > MAX_RECONSTRUCT_N:
        raise ValueError(
            f"unsupported n for reconstruction: {n} (max {MAX_RECONSTRUCT_N})"
        )
    h = fd_step if fd_step is not None else g.step(1)
    ratios = probe_termination(g, n=n, fd_step=fd_step, box=box)
    x0, x1, y0, y1 = _sampling_box(g, n, h, box)
    xs = np.linspace(x0, x1, cols)
    ys = np.linspace(y0, y1, rows)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()

    bottom = _descend_field(g, n, h)(zs)
    nsq = np.sum(np.abs(bottom) ** 2, axis=1)
    if np.any(nsq < _DEGENERATE_RATIO):
        raise DegenerateSurfaceError("chain bottom degenerates on the grid")
    xi_vals = (np.conj(bottom) / nsq[:, None]).reshape(xs.size, ys.size, -1)
    return XiField(xs, ys, xi_vals), ratios


def integrate_to_f(xi, domain):
    """Real part of the componentwise path antiderivative of the field,
    from the domain base point: an isotropic surface evaluator."""
    from .quadrature import integrate_segment

    base = domain.base_point
    cache = {}

    def f(z):
        z = complex(z)
        hit = cache.get(z)
        if hit is not None:
            return hit
        out = np.empty(xi.dim)
        for c in range(xi.dim):
            out[c] = integrate_segment(
                lambda w, _c=c: xi(w)[:, _c], base, z, abs_tol=1e-10
            ).real
        cache[z] = out
        return out

    return f


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

@dataclass
class RoundtripResult:
    n: int
    sup_distance: float
    distances: np.ndarray       # (rows, cols)
    eval_points: np.ndarray     # (rows, cols) complex
    termination_residual: float  # median relative G_{n+1}
    holomorphy_residual: float   # median relative dbar(xi)
    xi: XiField

    def to_dict(self):
        return {
            "n": self.n,
            "sup_distance": self.sup_distance,
            "termination_residual": self.termination_residual,
            "holomorphy_residual": self.holomorphy_residual,
            "eval_grid": list(self.distances.shape),
        }


def roundtrip(
    g,
    grid=(8, 8),
    n=None,
    sample_grid=(41, 41),
    fd_step=None,
    gauge=None,
    refusal_threshold=1e-2,
):
    """Reconstruct the surface from itself and measure the sup distance.

    The recovered field is sampled, optionally multiplied by a gauge
    factor (any nowhere-zero holomorphic function; the surface must not
    care), interpolated, differentiated, and pushed through the forward
    orthogonalization.  Per-point distances use min over the sign
    ambiguity of the normalized real part.  Surfaces whose chain fails to
    terminate are refused.
    """
    if n is None:
        n = g.n
    if n is None:
        raise ValueError("chain depth n is required for a black-box surface")
    if n > MAX_RECONSTRUCT_N:
        raise ValueError(
            f"unsupported n for reconstruction: {n} (max {MAX_RECONSTRUCT_N})"
        )
    rows, cols = grid
    srows, scols = sample_grid
    ratios = probe_termination(g, n=n, fd_step=fd_step)
    termination = float(np.median(ratios))
    if termination > refusal_threshold:
        raise NotPseudoholomorphicError(
            "surface chain does not terminate; input is not pseudoholomorphic",
            termination,
        )
    xi, _ = sample_xi(g, n=n, rows=srows, cols=scols, fd_step=fd_step)

    if gauge is not None:
        zs_grid = (xi.xs[:, None] + 1j * xi.ys[None, :]).ravel()
        factors = np.asarray(gauge(zs_grid), dtype=complex).reshape(
            xi.xs.size, xi.ys.size, 1
        )
        xi = XiField(xi.xs, xi.ys, xi.values * factors, order=xi.order)

    inset = 2.0 * xi.spacing
    x0, x1 = xi.xs[0] + inset, xi.xs[-1] - inset
    y0, y1 = xi.ys[0] + inset, xi.ys[-1] - inset
    exs = np.linspace(x0, x1, cols)
    eys = np.linspace(y0, y1, rows)
    eval_pts = exs[None, :] + 1j * eys[:, None]
    flat = eval_pts.ravel()

    jets = xi.jet(flat, n)
    F, norms, scale_sq, singular = _gram_schmidt(jets, 1e-12)
    if np.any(singular):
        raise DegenerateSurfaceError("reconstructed jet degenerates on the grid")
    re = F[:, -1, :].real
    nrm = np.linalg.norm(re, axis=1)
    ghat = re / nrm[:, None]
    gtrue = g(flat)
    dplus = np.linalg.norm(ghat - gtrue, axis=1)
    dminus = np.linalg.norm(ghat + gtrue, axis=1)
    dist = np.minimum(dplus, dminus).reshape(rows, cols)

    holo = float(
        np.median(
            [
                xi.holomorphy_residual(complex(z))
                for z in flat[:: max(1, flat.size // 16)]
            ]
        )
    )
    return RoundtripResult(
        n=n,
        sup_distance=float(dist.max()),
        distances=dist,
        eval_points=eval_pts,
        termination_residual=termination,
        holomorphy_residual=holo,
        xi=xi,
    )
