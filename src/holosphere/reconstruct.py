"""Recovering holomorphic data from a black-box spherical surface.

The surface is evaluated once on a tensor grid of Chebyshev points
spanning the largest axis-aligned box in the domain.  Products with the
differentiation matrices of the nodes (Trefethen, *Spectral Methods in
MATLAB*, ch. 6) then build the descending sequence on that grid:

    G_0 = g,   G_{s+1} = dG_s/dz - (<dG_s/dz, conj G_s> / |G_s|^2) G_s.

For a pseudoholomorphic surface the sequence terminates: G_{n+1} = 0 up
to roundoff, and xi = conj(G_n)/|G_n|^2 is holomorphic.  xi is
represented by the tensor-product polynomial through its samples, whose
jets are exact derivatives; feeding the jet through the forward
Gram-Schmidt construction reproduces the surface up to sign, and
`roundtrip` measures the sup distance.  Surfaces that fail the
termination test are refused.

Every product of a real matrix (a differentiation matrix, or a Lagrange
basis that reads the interpolant at other points) with complex samples
runs as one real matmul on the interleaved real and imaginary parts of
the samples, so that no real matrix is cast to complex.

Each level of the descent amplifies roundoff by roughly the squared node
count; reconstruction is capped at n <= MAX_RECONSTRUCT_N.
"""

from dataclasses import dataclass

import numpy as np

from .chain import FChainBatch
from .errors import (
    DegenerateSurfaceError,
    NotPseudoholomorphicError,
)

MAX_RECONSTRUCT_N = 3
# Fewest sample nodes per axis: a cubic jet needs four
MIN_SAMPLE_NODES = 4

_DEGENERATE_RATIO = 1e-18

# Median termination ratio above which `roundtrip` refuses a surface
_REFUSAL_THRESHOLD = 1e-2


def _barycentric(x):
    """Barycentric weights of the nodes x and their differentiation
    matrix: D @ f holds, at the nodes, the derivative of the polynomial
    through the values f."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    # scaled by the capacity (length / 4) of the interval, so the
    # products stay near 1 for many nodes on short intervals
    w = 1.0 / np.prod(diff * (4.0 / (x[-1] - x[0])), axis=1)
    D = w[None, :] / w[:, None] / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return w, D


def _basis(x, w, p):
    """(len(p), len(x)) values of the Lagrange basis of the nodes x at
    the abscissae p."""
    d = p[:, None] - x[None, :]
    hit = d == 0
    c = w / np.where(hit, 1.0, d)
    on_node = hit.any(axis=1)
    c[on_node] = hit[on_node]
    return c / c.sum(axis=1, keepdims=True)


def _real_product(M, V):
    """M @ V over the first axis of the complex samples V, for a real
    matrix M: one real matmul on the interleaved real and imaginary parts
    of V, so that M is never cast to complex."""
    flat = np.ascontiguousarray(V, dtype=complex).reshape(len(V), -1).view(float)
    return (M @ flat).view(complex).reshape((len(M),) + V.shape[1:])


class _Grid:
    """The tensor grid xs (axis 0) by ys (axis 1), acting on values
    (len(xs), len(ys), ...) through the tensor-product polynomial that
    interpolates them."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys
        self.zs = xs[:, None] + 1j * ys[None, :]
        self._wx, self._Dx = _barycentric(xs)
        self._wy, self._Dy = _barycentric(ys)

    def wirtinger(self, V, anti=False):
        """d/dz (d/dconj(z) when anti) of the polynomial, at the nodes."""
        dx = _real_product(self._Dx, V)
        dy = _real_product(self._Dy, V.swapaxes(0, 1)).swapaxes(0, 1)
        return 0.5 * (dx + 1j * dy if anti else dx - 1j * dy)

    def at(self, V, zs):
        """The polynomial at the points zs: (len(zs),) + V.shape[2:]."""
        Lx = _basis(self.xs, self._wx, zs.real)
        Ly = _basis(self.ys, self._wy, zs.imag)
        # (len(zs), len(ys), 2 * the values per node) after the x-axis
        part = _real_product(Lx, V.reshape(V.shape[:2] + (-1,))).view(float)
        out = np.matmul(Ly[:, None, :], part)[:, 0].view(complex)
        return out.reshape(zs.shape + V.shape[2:])


def _chebyshev(a, b, count):
    """count Chebyshev points of the second kind on [a, b], ascending."""
    return 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * np.arange(count) / (count - 1))


def _sampling_grid(g, rows, cols):
    """Chebyshev nodes, cols along x and rows along y, spanning the
    largest axis-aligned box inside the domain (the rectangle itself,
    the inscribed square of a disk)."""
    domain = g.domain
    if domain.shape == "disk":
        c, half = domain.center, domain.radius / np.sqrt(2.0)
        x0, x1, y0, y1 = c.real - half, c.real + half, c.imag - half, c.imag + half
    else:
        x0, x1, y0, y1 = domain.bounds
    return _Grid(_chebyshev(x0, x1, cols), _chebyshev(y0, y1, rows))


def _descend(g, grid, depth):
    """Levels G_0..G_depth of the descending chain on the grid, each
    (len(xs), len(ys), dim): one surface evaluation at the nodes, then
    one spectral d/dz per level."""
    values = g(grid.zs.ravel())
    levels = [np.asarray(values, dtype=complex).reshape(grid.zs.shape + (-1,))]
    for _ in range(depth):
        below = levels[-1]
        dG = grid.wirtinger(below)
        nsq = np.sum(np.abs(below) ** 2, axis=-1, keepdims=True)
        coef = np.sum(dG * np.conj(below), axis=-1, keepdims=True)
        levels.append(dG - coef / np.where(nsq > 0, nsq, 1.0) * below)
    return levels


def _termination_ratios(bottom, top):
    """|G_{n+1}| / |G_n| per grid point, flattened; inf where G_n = 0."""
    bot_nsq = np.sum(np.abs(bottom) ** 2, axis=-1).ravel()
    top_nsq = np.sum(np.abs(top) ** 2, axis=-1).ravel()
    ratios = np.sqrt(top_nsq / np.where(bot_nsq > 0, bot_nsq, 1.0))
    ratios[bot_nsq == 0] = np.inf
    return ratios


def _xi_rows(bottom, zs):
    """conj(G_n)/|G_n|^2 for the chain bottoms at the grid nodes zs (rows
    along the last axis): the holomorphic generator recovered from the
    surface."""
    nsq = np.sum(np.abs(bottom) ** 2, axis=-1, keepdims=True)
    low = np.flatnonzero(nsq < _DEGENERATE_RATIO)
    if low.size:
        raise DegenerateSurfaceError(
            f"degenerate chain bottom on the grid: |G_n|^2 = {nsq.flat[low[0]]:.3e} "
            f"< {_DEGENERATE_RATIO:g} at z={zs.flat[low[0]]}")
    return np.conj(bottom) / nsq


def _depth(g):
    n = g.n
    if n is None:
        raise ValueError("chain depth n is required for a black-box surface")
    if n > MAX_RECONSTRUCT_N:
        raise ValueError(
            f"unsupported n for reconstruction: {n} (max {MAX_RECONSTRUCT_N})"
        )
    return n


# ---------------------------------------------------------------------------
# Sampled holomorphic fields
# ---------------------------------------------------------------------------

class XiField:
    """A vector-valued holomorphic field sampled on a tensor grid (any
    distinct nodes; Chebyshev points keep high degrees well conditioned),
    represented by the tensor-product polynomial through the samples."""

    def __init__(self, xs, ys, values):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=complex)
        if values.shape[:2] != (xs.size, ys.size):
            raise ValueError("values must have shape (len(xs), len(ys), dim)")
        if min(xs.size, ys.size) < MIN_SAMPLE_NODES:
            raise ValueError("grid too sparse for a cubic jet: need at least "
                             f"{MIN_SAMPLE_NODES} samples per axis")
        self.xs = xs
        self.ys = ys
        self.values = values
        self.dim = values.shape[2]
        self._grid = _Grid(xs, ys)
        self._dbar = self._grid.wirtinger(values, anti=True)

    @property
    def spacing(self):
        return max(
            float(np.diff(self.xs).max()), float(np.diff(self.ys).max())
        )

    def __call__(self, zs):
        return self._grid.at(self.values, np.asarray(zs, dtype=complex).ravel())

    def jet(self, zs, max_order):
        """d^k/dz^k of the interpolant at the points zs, k = 0..max_order,
        as (len(zs), max_order+1, dim): exact derivatives of the
        polynomial."""
        fields = [self.values]
        for _ in range(max_order):
            fields.append(self._grid.wirtinger(fields[-1]))
        return self._grid.at(np.stack(fields, axis=2),
                             np.asarray(zs, dtype=complex).ravel())

    def holomorphy_residuals(self, zs):
        """|d(xi)/dconj(z)| / |xi| at each of the points zs, from one read
        of the interpolant."""
        both = self._grid.at(np.stack([self._dbar, self.values], axis=2),
                             np.asarray(zs, dtype=complex).ravel())
        dbar, xi = np.linalg.norm(both, axis=-1).T
        return dbar / np.maximum(xi, 1e-300)


def probe_termination(g, samples=33):
    """Relative size of G_{n+1} against G_n at the samples x samples
    grid points: the termination test that certifies
    pseudoholomorphicity."""
    n = _depth(g)
    grid = _sampling_grid(g, samples, samples)
    return _termination_ratios(*_descend(g, grid, n + 1)[-2:])


def sample_xi(g, rows=41, cols=41):
    """The recovered holomorphic field on a rows x cols sampling grid."""
    n = _depth(g)
    grid = _sampling_grid(g, rows, cols)
    bottom = _descend(g, grid, n)[-1]
    return XiField(grid.xs, grid.ys, _xi_rows(bottom, grid.zs))


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
    holomorphy_residual: float   # median |dbar(xi)|/|xi| over the probes
    xi: XiField

    def to_dict(self):
        return {
            "n": self.n,
            "sup_distance": self.sup_distance,
            "termination_residual": self.termination_residual,
            "holomorphy_residual": self.holomorphy_residual,
            "eval_grid": list(self.distances.shape),
        }


def roundtrip(g, grid=(8, 8), sample_grid=(41, 41), gauge=None):
    """Reconstruct the surface from itself and measure the sup distance.

    The chain depth n is the surface's own, `g.n`.  One sweep of the
    sampling grid to level n+1 gives the termination ratios and the
    recovered field.  The field is optionally multiplied by a gauge
    factor (any nowhere-zero holomorphic function; the surface must not
    care), interpolated, differentiated, and pushed through the forward
    orthogonalization of `chain.FChainBatch` at the default degeneracy
    threshold (the recovered jets belong to no chain), whose surface is
    the normalized real part, as for every chain surface.  Per-point
    distances use min over its sign ambiguity.  The holomorphy residual
    is the median of |d(xi)/dconj(z)| / |xi| over every
    max(1, P // 16)-th of the P evaluation points, read from the
    interpolant in one call.  Surfaces whose chain fails to terminate
    (median ratio above _REFUSAL_THRESHOLD) are refused with
    NotPseudoholomorphicError, and reconstructed jets that degenerate,
    or whose real part collapses, raise DegenerateSurfaceError naming
    the first such evaluation point.
    """
    n = _depth(g)
    rows, cols = grid
    srows, scols = sample_grid
    nodes = _sampling_grid(g, srows, scols)
    levels = _descend(g, nodes, n + 1)
    termination = float(np.median(_termination_ratios(levels[n], levels[n + 1])))
    if termination > _REFUSAL_THRESHOLD:
        raise NotPseudoholomorphicError(
            "surface chain does not terminate; input is not pseudoholomorphic",
            termination,
        )
    xi_vals = _xi_rows(levels[n], nodes.zs)
    if gauge is not None:
        factors = np.asarray(gauge(nodes.zs.ravel()), dtype=complex)
        xi_vals = xi_vals * factors.reshape(nodes.zs.shape + (1,))
    xi = XiField(nodes.xs, nodes.ys, xi_vals)

    inset = 2.0 * xi.spacing
    x0, x1 = xi.xs[0] + inset, xi.xs[-1] - inset
    y0, y1 = xi.ys[0] + inset, xi.ys[-1] - inset
    exs = np.linspace(x0, x1, cols)
    eys = np.linspace(y0, y1, rows)
    eval_pts = exs[None, :] + 1j * eys[:, None]
    flat = eval_pts.ravel()

    batch = FChainBatch(flat, xi.jet(flat, n))
    if not batch.ok.all():
        first = np.argmin(batch.ok)
        cause = ("the chain is singular" if batch.singular[first]
                 else "the real part of F_{n+1} collapses")
        raise DegenerateSurfaceError(
            f"reconstructed jet degenerates on the grid: {cause} at z={flat[first]}")
    ghat = batch.g
    gtrue = g(flat)
    dplus = np.linalg.norm(ghat - gtrue, axis=1)
    dminus = np.linalg.norm(ghat + gtrue, axis=1)
    dist = np.minimum(dplus, dminus).reshape(rows, cols)

    probes = flat[:: max(1, flat.size // 16)]
    holo = float(np.median(xi.holomorphy_residuals(probes)))
    return RoundtripResult(
        n=n,
        sup_distance=float(dist.max()),
        distances=dist,
        eval_points=eval_pts,
        termination_residual=termination,
        holomorphy_residual=holo,
        xi=xi,
    )
