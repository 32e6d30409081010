"""Parametrizations built on top of a chain surface.

Two constructions ride on the chain data of a generating surface g:

* a hypersurface map into R^(2n+1), affine in the normal-bundle
  parameters, whose regular points carry a Kaehler-inducing metric:

      Psi = gamma g + (pushforward of the gradient of gamma) + w,

  with gamma an arbitrary smooth weight in the surface coordinates and w
  ranging over the higher normal spaces (spanned by the real and
  imaginary parts of the lower chain vectors);

* a unit-sphere ruled map obtained by following sphere geodesics from
  g(z) in the directions of a normal subbundle: cos(|w|) g + sinc(|w|) w.

Both evaluate pointwise from the chain data at a point.  Regularity is
probed by a Jacobian with exact w-columns and finite-difference
z-columns, minimality by finite differences in the full parameter space.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .chain import f_chain_eval, require_regular, stencil_field
from .errors import DomainError
from .expr import HoloExpr, differentiate, eval_env, parse_expr
from .fd import default_step, wirtinger
from .geometry import SurfaceEvaluator, _normal_part
from .products import _abs, _cmul, _complex, _dot, _norm, _square

_RANK_THRESHOLD = 1e-8   # Kaehler Jacobian rank: sigma > this * largest sigma
_DET_THRESHOLD = 1e-10   # ruled probe metric: det > this * product of diagonal
_GEODESIC_STEP = 1e-4    # w-step of the ruling geodesic's second difference


def _as_gamma(gamma):
    if isinstance(gamma, str):
        return parse_expr(gamma, variables=("x", "y"))
    return gamma


@dataclass
class KaehlerParams:
    """Weight function gamma(x, y) with its symbolic partials, plus the
    n-1 complex normal-bundle parameters."""

    gamma: HoloExpr
    w: tuple
    gamma_x: HoloExpr = None
    gamma_y: HoloExpr = None

    @classmethod
    def create(cls, gamma, w):
        gamma = _as_gamma(gamma)
        gx = differentiate(gamma, "x")
        gy = differentiate(gamma, "y")
        return cls(
            gamma=gamma,
            w=tuple(complex(c) for c in w),
            gamma_x=gx,
            gamma_y=gy,
        )

    def gamma_values(self, z):
        """(gamma, d gamma/dz) at the point z, or at every point of an
        array z.

        The arithmetic is that of Python floats and complex numbers at
        each point: an array is evaluated as an object array of them,
        since numpy's array power and complex product round differently.
        """
        z = np.asarray(z, dtype=complex)
        env = {"x": z.real.astype(object), "y": z.imag.astype(object)}
        val, gx, gy = (
            np.broadcast_to(np.asarray(eval_env(e, env), dtype=complex), z.shape)
            .real.astype(object)
            for e in (self.gamma, self.gamma_x, self.gamma_y)
        )
        gamma_z = np.asarray(0.5 * (gx - 1j * gy), dtype=complex)
        if z.ndim == 0:
            return float(val), complex(gamma_z)
        return val.astype(float), gamma_z


@dataclass
class RuledParams:
    """The n-2 complex parameters of the ruling directions (needs n >= 3)."""

    w: tuple

    @classmethod
    def create(cls, w):
        return cls(w=tuple(complex(c) for c in w))


def _normal_terms(F, w):
    """sum_j (u_j Re F_j - v_j Im F_j) over the complex parameters w,
    pairing w[j-1] with the chain vector F_j: chain vectors F
    (..., m, dim) and parameters w (..., k), broadcast against each other."""
    shape = np.broadcast_shapes(F.shape[:-2], w.shape[:-1]) + F.shape[-1:]
    out = np.zeros(shape)
    for j in range(w.shape[-1]):
        out += (w[..., j, None].real * F[..., j, :].real
                - w[..., j, None].imag * F[..., j, :].imag)
    return out


def kaehler_point(chain, params, z):
    """Closed-form evaluation of the hypersurface map at (z, w).

    Requires n >= 2 and len(w) == n-1.  The middle (gradient) term uses
    the tangent formula of the chain, so everything comes from the chain
    data at z plus symbolic partials of gamma.
    """
    values, batch = _kaehler(chain, params, np.array([z]))
    require_regular(batch)
    return values[0]


def kaehler_points(chain, params, zs):
    """`kaehler_point` at a flat array of points, with one chain
    evaluation.  Returns (values, valid): the rows of degenerate points
    are NaN and `valid` is False there."""
    values, batch = _kaehler(chain, params, zs)
    return values, batch.ok


def _kaehler(chain, params, zs):
    """The hypersurface map at the flat array zs, NaN rows at degenerate
    points, with the chain batch it was built from."""
    n = chain.n
    if n < 2:
        raise ValueError("the hypersurface map requires n >= 2")
    if len(params.w) != n - 1:
        raise ValueError(f"w needs {n - 1} entries, got {len(params.w)}")
    batch = f_chain_eval(chain, zs)
    w = np.array(params.w, dtype=complex)
    return _kaehler_base(batch, params) + _normal_terms(batch.F, w), batch


def _kaehler_base(batch, params):
    """The w-independent part of the map, gamma g + gradient term, at each
    point of the batch; NaN rows at degenerate points."""
    n = batch.F.shape[1] - 1
    base = np.full(batch.g.shape, np.nan)
    idx = np.flatnonzero(batch.ok)
    F, norms_sq, g = batch.F[idx], batch.norms_sq[idx, n - 1], batch.g[idx]
    gamma, gamma_z = params.gamma_values(batch.z[idx])
    top = F[:, -1]
    pairing = _dot(g.astype(complex), top)
    metric = _square(_abs(pairing)) / norms_sq
    corr = _dot(top.real.astype(complex), np.conj(top))
    # gamma_z * corr was a product of two Python complex numbers
    lead = _complex(*_cmul(gamma_z.real, gamma_z.imag, corr.real, corr.imag))
    scale = -(2.0 / (metric * norms_sq * _norm(top.real)))
    middle = scale[:, None] * np.real(lead[:, None] * F[:, n - 1])
    base[idx] = gamma[:, None] * g + middle
    return base


def kaehler_point_reference(chain, params, z):
    """Independent assembly of the same map: gamma g + pushforward of the
    metric gradient of gamma (from a finite-difference tangent vector)
    plus the normal term.  Used to cross-check the closed formula."""
    g_eval = SurfaceEvaluator.from_chain(chain)
    batch = f_chain_eval(chain, np.array([z]))
    require_regular(batch)
    gamma, gamma_z = params.gamma_values(complex(z))
    dg, = wirtinger(g_eval, z, [(1, 0)], default_step(chain.domain.diameter, 1))
    metric = float(np.sum(np.abs(dg) ** 2))
    grad_push = (2.0 / metric) * np.real(np.conj(gamma_z) * dg)
    w = np.array(params.w, dtype=complex)
    return gamma * batch.g[0] + grad_push + _normal_terms(batch.F[0], w)


@dataclass
class KaehlerRegularityReport:
    """The result of `kaehler_immersion_check`: the Jacobian rank at every
    (z, w) cell, `ranks[i, k]` at the z-centre `centres[i]` and the
    parameters `w[k]`; the cells are regular where the rank is the
    expected one."""

    expected_rank: int
    centres: np.ndarray   # (C,) complex
    w: np.ndarray         # (cells, n-1) complex
    ranks: np.ndarray     # (C, cells) int

    @property
    def total(self):
        return self.ranks.size

    @property
    def regular_count(self):
        return int(np.count_nonzero(self.ranks == self.expected_rank))

    @property
    def fraction_regular(self):
        return self.regular_count / max(1, self.total)

    def to_dict(self):
        centres, w = self.centres.tolist(), self.w.tolist()
        return {
            "expected_rank": self.expected_rank,
            "total": self.total,
            "regular": self.regular_count,
            "fraction_regular": self.fraction_regular,
            "flagged": [
                {"z": [centres[i].real, centres[i].imag],
                 "w": [[c.real, c.imag] for c in w[k]],
                 "rank": int(self.ranks[i, k])}
                for i, k in np.argwhere(self.ranks != self.expected_rank).tolist()
            ],
        }


def kaehler_immersion_check(chain, params, z_grid=(5, 5), w_box=(-0.1, 0.1),
                            w_samples=3):
    """Rank of the Jacobian over a (z, w) sample box.

    The Jacobian is taken in the map's 2n real parameters (x, y, u_1,
    v_1, ..., u_{n-1}, v_{n-1}).  The map is affine in w, so its
    w-columns are exactly Re F_j and -Im F_j at the centre; its
    z-columns are central differences of the base map and of
    F_1..F_{n-1}, once per centre.  A cell is regular when the rank
    equals 2n (full parameter count), counting the singular values
    above _RANK_THRESHOLD times the largest; cells below full rank are
    flagged, and so are all cells at a z whose stencil touches a
    degenerate point.  The z-grid is shrunk slightly so the z-stencil
    stays inside the domain, and a z-grid with no point inside it (a
    coarse grid on a disk) raises DomainError.  The chain is evaluated
    once on the z-stencils of the whole grid.
    """
    n = chain.n
    if n < 2:
        raise ValueError("the hypersurface map requires n >= 2")
    expected = 2 * n
    h_z = 1e-5 * chain.domain.diameter
    zs, inside = chain.domain.grid(*z_grid, margin=4 * h_z)
    centres = zs[inside]
    if not centres.size:
        raise DomainError(f"no point of the {z_grid[0]}x{z_grid[1]} z_grid lies "
                          "inside the domain")
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


# ---------------------------------------------------------------------------
# Ruled minimal submanifolds
# ---------------------------------------------------------------------------

def ruled_point(chain, params, z):
    """Sphere-exponential of the normal vector w at g(z):
    cos(|w|) g + sinc(|w|) w.  Unit norm by construction."""
    values, batch = _ruled(chain, params, np.array([z]))
    require_regular(batch)
    return values[0]


def ruled_points(chain, params, zs):
    """`ruled_point` at a flat array of points, with one chain evaluation;
    returns (values, valid) as `kaehler_points` does."""
    values, batch = _ruled(chain, params, zs)
    return values, batch.ok


def _ruled(chain, params, zs):
    """The ruled map at the flat array zs, as `_kaehler` returns it."""
    n = chain.n
    if n < 3:
        raise ValueError("the ruled map requires n >= 3")
    if len(params.w) != n - 2:
        raise ValueError(f"w needs {n - 2} entries, got {len(params.w)}")
    batch = f_chain_eval(chain, zs)
    values = np.full(batch.g.shape, np.nan)
    idx = np.flatnonzero(batch.ok)
    values[idx] = _ruled_values(batch.F[idx], batch.g[idx],
                                np.array(params.w, dtype=complex))
    return values, batch


def _ruled_values(F, g, w):
    """The ruled map at chain vectors F (..., m, d), surface vectors g
    (..., d) and parameters w (..., k), broadcast against each other."""
    wvec = _normal_terms(F, w)
    t = _norm(wvec)[..., None]
    return np.cos(t) * g + np.sinc(t / np.pi) * wvec


@dataclass
class RuledProbeResult:
    z: complex
    w: tuple
    residual: float      # None when flagged
    gram_det: float      # None when the stencil touches a degenerate point
    degenerate: bool


def ruled_minimality_probe(chain, params, z):
    """Mean curvature (inside the sphere) of the 4-parameter ruled map at
    one point, estimated by central differences over (x, y, u, v) with
    the step 1e-3 times the domain diameter.

    Only the n = 3 case is supported; the result is invariant under
    rescaling the parameters.  Near-degenerate induced metrics (Gram
    determinant below _DET_THRESHOLD times the product of its diagonal),
    and stencils that touch a point where the chain or the surface
    normalization degenerates, are flagged instead of returning a
    number.

    z may also be an array of centres: the result is then a list with
    one RuledProbeResult per centre, each as a call with that centre
    alone would return it.  The chain is evaluated once, at the 9
    z-offsets of every stencil.
    """
    if chain.n != 3:
        raise ValueError("the minimality probe supports n = 3 only")
    if len(params.w) != 1:
        raise ValueError("w needs exactly 1 entry for n = 3")
    h = 1e-3 * chain.domain.diameter
    scalar = np.ndim(z) == 0
    zs = np.asarray(z, dtype=complex).ravel()
    centres = [z] if scalar else zs.tolist()
    inside = chain.domain.contains(zs, margin=2.5 * h)
    if not np.all(inside):
        bad = centres[np.argmin(inside)]
        raise DomainError(f"probe stencil at z={bad} leaves the domain")
    offsets = [(dx, dy) for dx in (-h, 0.0, h) for dy in (-h, 0.0, h)]
    steps = np.array([dx + 1j * dy for dx, dy in offsets])
    batch = f_chain_eval(chain, (zs[:, None] + steps).ravel())
    F = batch.F.reshape((zs.size, len(offsets)) + batch.F.shape[1:])
    g = batch.g.reshape(zs.size, len(offsets), -1)
    degenerate = ~batch.ok.reshape(zs.size, len(offsets)).all(axis=1)
    results = [RuledProbeResult(c, params.w, None, None, True) for c in centres]
    regular = np.flatnonzero(~degenerate)
    if regular.size:
        found = _ruled_probe(F[regular], g[regular], params.w[0], h, offsets)
        for k, (residual, det, flagged) in zip(regular, zip(*found)):
            results[k] = RuledProbeResult(centres[k], params.w, residual, det, flagged)
    return results[0] if scalar else results


def _ruled_probe(F, g, w0, h, offsets):
    """Residuals, Gram determinants and flags of the probe at P centres
    with the chain vectors F (P, 9, m, d) and surface vectors g (P, 9, d)
    at their z-offsets, all nine regular; the residual is None where the
    induced metric is near-degenerate."""
    # the ruled map at every stencil cell (steps in x, y, u, v) in one
    # stacked call
    cells = [_cell()] + [_cell(i, si) for i in range(4) for si in (h, -h)]
    cells += [_cell(i, si, j, sj) for i in range(4) for j in range(i + 1, 4)
              for si in (h, -h) for sj in (h, -h)]
    index = {cell: k for k, cell in enumerate(cells)}
    row = {offset: k for k, offset in enumerate(offsets)}
    rows = [row[(dx, dy)] for dx, dy, _, _ in cells]
    w = np.array([[complex(w0.real + du, w0.imag + dv)] for _, _, du, dv in cells])
    values = _ruled_values(F[:, rows], g[:, rows], w)   # (P, cells, d)

    def X(*steps):
        return values[:, index[_cell(*steps)]]

    center = X()
    tangents = np.stack([(X(a, h) - X(a, -h)) / (2 * h) for a in range(4)],
                        axis=1)                        # (P, 4, d)
    P, _, d = tangents.shape
    second = np.empty((P, 4, 4, d))
    for i in range(4):
        second[:, i, i] = (X(i, h) - 2 * center + X(i, -h)) / (h * h)
        for j in range(i + 1, 4):
            second[:, i, j] = (X(i, h, j, h) - X(i, h, j, -h) - X(i, -h, j, h)
                               + X(i, -h, j, -h)) / (4 * h * h)
            second[:, j, i] = second[:, i, j]

    gram = tangents @ np.swapaxes(tangents, 1, 2)
    det = np.linalg.det(gram)
    norm_scale = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    norm_scale[norm_scale == 0] = 1.0
    flagged = det < _DET_THRESHOLD * norm_scale
    residual = [None] * det.size
    ok = np.flatnonzero(~flagged)
    if ok.size:
        trace_vec = np.einsum("pij,pijd->pd", np.linalg.inv(gram[ok]), second[ok])
        basis = np.concatenate([center[ok, None], tangents[ok]], axis=1)
        q = np.linalg.qr(np.swapaxes(basis, 1, 2))[0]
        for k, value in zip(ok, (_norm(_normal_part(q, trace_vec)) / 4.0).tolist()):
            residual[k] = value
    return residual, det.tolist(), flagged.tolist()


def _cell(*steps):
    """The stencil point (dx, dy, du, dv) with the given (axis, step)
    pairs set and the other steps 0.0."""
    cell = [0.0] * 4
    for axis, step in zip(steps[::2], steps[1::2]):
        cell[axis] = step
    return tuple(cell)


def ruling_geodesic_residual(chain, z):
    """Normal component of the second derivative along a ruling direction
    at w = 0: zero means the rulings are geodesic circles.  None where
    the chain or the surface normalization degenerates at z or on the
    stencil of the surface derivative."""
    if chain.n < 3:
        raise ValueError("the ruled map requires n >= 3")
    zero = tuple(0j for _ in range(chain.n - 2))
    batch = f_chain_eval(chain, np.array([z]))
    dfield, = wirtinger(stencil_field(chain), z, [(1, 0)],
                        h=default_step(chain.domain.diameter, 1))
    dg = dfield[0]   # the surface part
    if not batch.ok[0] or np.isnan(dg).any():
        return None
    F, g = batch.F[0], batch.g[0]

    h = _GEODESIC_STEP
    w = np.array([(complex(t, 0.0),) + zero[1:] for t in (0.0, h, -h)])
    center, plus, minus = _ruled_values(F, g, w)
    acc = (plus - 2 * center + minus) / (h * h)
    gx, gy = 2 * dg.real, -2 * dg.imag
    du = F[0].real  # tangent of the ruling at w = 0
    dv = -F[0].imag
    basis = np.stack([center, gx, gy, du, dv], axis=1)
    q, _ = np.linalg.qr(basis)
    resid = acc - q @ (q.T @ acc)
    return float(np.linalg.norm(resid))
