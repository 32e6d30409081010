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

from .chain import DEFAULT_EPS_SINGULAR, _gram_schmidt
from .errors import (
    DegenerateSurfaceError,
    DomainError,
    NotPseudoholomorphicError,
)
from .fd import wirtinger
from .products import norm_sq

MAX_RECONSTRUCT_N = 3

_DEGENERATE_RATIO = 1e-18


def _descend(g, zs, depth, h, keep=True):
    """Rows G_0..G_depth of the descending chain at the points zs, from
    one nested FD sweep: level L-1 at the points is computed once and
    reused for level L, whose stencils evaluate level L-1 around them.

    Returns the list of (B, dim) levels; with keep=False only the top
    level is kept (what the stencil evaluations pass up).
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    levels = [np.asarray(g(zs), dtype=complex)]
    for level in range(depth):
        below = levels[-1]
        dG = wirtinger(lambda pts, s=level: _descend(g, pts, s, h, keep=False)[-1],
                       zs, 1, 0, h=h, richardson=True)
        nsq = np.sum(np.abs(below) ** 2, axis=1)
        safe = np.where(nsq > 0, nsq, 1.0)
        coef = np.einsum("bd,bd->b", dG, np.conj(below)) / safe
        top = dG - coef[:, None] * below
        levels = levels + [top] if keep else [top]
    return levels


def _chain_margin(n, h):
    """Clearance needed by n+1 nested first-order stencils."""
    return 3.0 * (n + 2) * h


def _one_point(g, z, depth, h, nested):
    """Levels G_0..G_depth at the single point z, where the caller nests
    `nested` first-order stencils that must fit in the domain."""
    if not g.domain.contains(z, margin=_chain_margin(nested - 1, h)):
        raise DomainError(f"nested stencil at z={z} leaves the domain")
    return [G[0] for G in _descend(g, [z], depth, h)]


def _xi_rows(bottom, where):
    """conj(G_n)/|G_n|^2 for rows of chain bottoms: the holomorphic
    generator recovered from the surface."""
    nsq = np.sum(np.abs(bottom) ** 2, axis=1)
    if np.any(nsq < _DEGENERATE_RATIO):
        raise DegenerateSurfaceError(f"degenerate chain bottom {where}")
    return np.conj(bottom) / nsq[:, None]


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


def g_chain_at(g, z, n=None):
    """Evaluate the descending chain at one point by nested FD.

    Raises DegenerateSurfaceError when a chain norm collapses (e.g. the
    constant map at level 1), DomainError when the nested stencil does
    not fit.
    """
    if n is None:
        n = g.n
    if n is None:
        raise ValueError("chain depth n is required for a black-box surface")
    G = np.array(_one_point(g, z, n + 1, g.step(1), n + 1))
    norms = np.array([norm_sq(row) for row in G])
    for level in range(1, n + 1):
        if norms[level] < _DEGENERATE_RATIO * norms[level - 1]:
            raise DegenerateSurfaceError(
                f"chain norm collapses at level {level}, z={z}"
            )
    residual = float(np.sqrt(norms[n + 1] / norms[n]))
    return GChainSample(z=z, G=G[: n + 1], norms_sq=norms[: n + 1], residual=residual)


def extract_xi(sample):
    """conj(G_n)/|G_n|^2: the holomorphic generator recovered from the
    chain bottom."""
    return _xi_rows(sample.G[-1:], f"at z={sample.z}")[0]


def conjugate_descent_residual(g, z, s):
    """FD residual of the conjugate-descent identity for the surface
    chain: d(conj G_s)/dz + (|G_s|^2/|G_{s-1}|^2) conj G_{s-1} = 0 for
    s >= 1 (at s = 1 the right side involves the position vector itself).
    Returns the residual normalized by the identity's own scale."""
    if s < 1:
        raise ValueError("the descent identity needs s >= 1")
    h = g.step(1)
    below, Gs = _one_point(g, z, s, h, s + 1)[-2:]
    dGbar = wirtinger(lambda pts: np.conj(_descend(g, pts, s, h, keep=False)[-1]),
                      np.array([z], dtype=complex), 1, 0, h=h, richardson=True)[0]
    ratio = norm_sq(Gs) / norm_sq(below)
    resid = np.linalg.norm(dGbar + ratio * np.conj(below))
    scale = norm_sq(Gs) / np.sqrt(norm_sq(below))
    return float(resid / scale)


# ---------------------------------------------------------------------------
# Sampled holomorphic fields
# ---------------------------------------------------------------------------

class XiField:
    """A vector-valued holomorphic field sampled on a rectangular grid,
    interpolated by tensor-product cubic splines."""

    def __init__(self, xs, ys, values):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=complex)
        if values.shape[:2] != (xs.size, ys.size):
            raise ValueError("values must have shape (len(xs), len(ys), dim)")
        if xs.size < 4 or ys.size < 4:
            raise ValueError(
                "grid too sparse for cubic interpolation: "
                "need at least 4 samples per axis"
            )
        self.xs = xs
        self.ys = ys
        self.values = values
        self.dim = values.shape[2]
        self._splines = [
            (
                RectBivariateSpline(xs, ys, values[:, :, c].real),
                RectBivariateSpline(xs, ys, values[:, :, c].imag),
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


def _sampling_box(g, n, h):
    """The largest axis-aligned box inside the domain (the rectangle
    itself, the inscribed square of a disk), inset by the clearance of
    the nested stencils."""
    domain = g.domain
    if domain.shape == "disk":
        c, half = domain.center, domain.radius / np.sqrt(2.0)
        x0, x1, y0, y1 = c.real - half, c.real + half, c.imag - half, c.imag + half
    else:
        x0, x1, y0, y1 = domain.bounds
    margin = _chain_margin(n, h)
    x0, x1 = x0 + margin, x1 - margin
    y0, y1 = y0 + margin, y1 - margin
    if x1 <= x0 or y1 <= y0:
        raise DomainError("domain too small for the nested stencil margin")
    return x0, x1, y0, y1


def probe_termination(g, n=None, samples=5):
    """Relative size of G_{n+1} against G_n on a coarse probe grid: the
    termination test that certifies pseudoholomorphicity."""
    if n is None:
        n = g.n
    h = g.step(1)
    x0, x1, y0, y1 = _sampling_box(g, n, h)
    xs = np.linspace(x0, x1, samples)
    ys = np.linspace(y0, y1, samples)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    bot, top = _descend(g, zs, n + 1, h)[-2:]
    bot_nsq = np.sum(np.abs(bot) ** 2, axis=1)
    top_nsq = np.sum(np.abs(top) ** 2, axis=1)
    safe = np.where(bot_nsq > 0, bot_nsq, 1.0)
    ratios = np.sqrt(top_nsq / safe)
    ratios[bot_nsq == 0] = np.inf
    return ratios


def sample_xi(g, n=None, rows=41, cols=41):
    """Sample the recovered holomorphic field on a grid inset far enough
    from the boundary for the nested stencils; returns the XiField."""
    if n is None:
        n = g.n
    if n is None:
        raise ValueError("chain depth n is required for a black-box surface")
    if n > MAX_RECONSTRUCT_N:
        raise ValueError(
            f"unsupported n for reconstruction: {n} (max {MAX_RECONSTRUCT_N})"
        )
    h = g.step(1)
    x0, x1, y0, y1 = _sampling_box(g, n, h)
    xs = np.linspace(x0, x1, cols)
    ys = np.linspace(y0, y1, rows)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    bottom = _descend(g, zs, n, h)[-1]
    xi_vals = _xi_rows(bottom, "on the grid").reshape(xs.size, ys.size, -1)
    return XiField(xs, ys, xi_vals)


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
    ratios = probe_termination(g, n=n)
    termination = float(np.median(ratios))
    if termination > refusal_threshold:
        raise NotPseudoholomorphicError(
            "surface chain does not terminate; input is not pseudoholomorphic",
            termination,
        )
    xi = sample_xi(g, n=n, rows=srows, cols=scols)

    if gauge is not None:
        zs_grid = (xi.xs[:, None] + 1j * xi.ys[None, :]).ravel()
        factors = np.asarray(gauge(zs_grid), dtype=complex).reshape(
            xi.xs.size, xi.ys.size, 1
        )
        xi = XiField(xi.xs, xi.ys, xi.values * factors)

    inset = 2.0 * xi.spacing
    x0, x1 = xi.xs[0] + inset, xi.xs[-1] - inset
    y0, y1 = xi.ys[0] + inset, xi.ys[-1] - inset
    exs = np.linspace(x0, x1, cols)
    eys = np.linspace(y0, y1, rows)
    eval_pts = exs[None, :] + 1j * eys[:, None]
    flat = eval_pts.ravel()

    jets = xi.jet(flat, n)
    F, norms, scale_sq, singular = _gram_schmidt(jets, DEFAULT_EPS_SINGULAR)
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
