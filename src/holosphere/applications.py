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

Both evaluate pointwise from the chain data at a point, as reads of a
chain batch that `chain.scan_grid` sweeps over a grid.  Regularity is
probed by a Jacobian with exact w-columns and finite-difference
z-columns, minimality by finite differences in the full parameter space.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .chain import (_SCAN_BLOCK, _sweep, f_chain_eval, require_regular,
                    stencil_batch, stencil_rows)
from .errors import DomainError, ParseError
from .expr import HoloExpr, _eval, _tokenize, parse_expr
from .fd import default_step
from .geometry import _normal_part
from .products import _dot

_RANK_THRESHOLD = 1e-8   # Kaehler Jacobian rank: sigma > this * largest sigma
_DET_THRESHOLD = 1e-10   # ruled probe metric: det > this * product of diagonal
_GEODESIC_STEP = 1e-4    # w-step of the ruling geodesic's second difference
_COMPLEX_STEP = 1e-20    # imaginary step of gamma's partials


def _as_gamma(text):
    """The parsed weight gamma(x, y).  Its partials are complex steps,
    which need a real function, so the imaginary unit (the grammar's
    only non-real constant) is refused where it first appears."""
    gamma = parse_expr(text, variables=("x", "y"))
    for kind, name, offset in _tokenize(text):
        if (kind, name) == ("name", "i"):
            raise ParseError("gamma must be real: 'i' is not allowed", offset)
    return gamma


@dataclass
class KaehlerParams:
    """Real weight function gamma(x, y), plus the n-1 complex
    normal-bundle parameters."""

    gamma: HoloExpr
    w: tuple

    @classmethod
    def create(cls, gamma, w):
        return cls(gamma=_as_gamma(gamma), w=tuple(complex(c) for c in w))

    def gamma_values(self, z):
        """(gamma, d gamma/dz) at the point z, or at every point of an
        array z.

        gamma is evaluated at (x, y) first, so that a zero denominator
        raises there; its partials are complex steps: gamma_x is
        Im gamma(x + ih, y) / h, and gamma_y likewise, exact to roundoff.
        """
        z = np.asarray(z, dtype=complex)
        x, y, h = z.real, z.imag, _COMPLEX_STEP
        val, gx, gy = (
            np.broadcast_to(_eval(self.gamma, {"x": xs, "y": ys}), z.shape)
            for xs, ys in ((x, y), (x + 1j * h, y), (x, y + 1j * h))
        )
        gamma_z = 0.5 * (gx.imag - 1j * gy.imag) / h
        if z.ndim == 0:
            return float(val.real), complex(gamma_z)
        return val.real, gamma_z


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


def kaehler_map(chain, params):
    """The hypersurface map at (z, w) as a read of `scan_grid`: from a
    chain batch to its flags `ok` and the map at each point, NaN rows at
    degenerate points.  Requires n >= 2 and len(w) == n-1.  The middle
    (gradient) term uses the tangent formula of the chain, so everything
    comes from the chain data at z plus the partials of gamma.
    """
    n = chain.n
    if n < 2:
        raise ValueError("the hypersurface map requires n >= 2")
    if len(params.w) != n - 1:
        raise ValueError(f"w needs {n - 1} entries, got {len(params.w)}")
    w = np.array(params.w, dtype=complex)

    def read(batch):
        return batch.ok, _kaehler_base(batch, params) + _normal_terms(batch.F, w)

    return read


def kaehler_point(chain, params, z):
    """The read of `kaehler_map` at the one point z; SingularPointError
    where the chain or the surface normalization degenerates there."""
    read = kaehler_map(chain, params)
    batch = f_chain_eval(chain, np.array([z]))
    require_regular(batch)
    return read(batch)[1][0]


def _kaehler_base(batch, params):
    """The w-independent part of the map, gamma g + gradient term, at each
    point of the batch; NaN rows at degenerate points."""
    n = batch.F.shape[1] - 1
    base = np.full(batch.g.shape, np.nan)
    idx = np.flatnonzero(batch.ok)
    F, norms_sq, g = batch.F[idx], batch.norms_sq[idx, n - 1], batch.g[idx]
    gamma, gamma_z = params.gamma_values(batch.z[idx])
    top = F[:, -1]
    pairing = _dot(g, top)
    metric = np.abs(pairing) ** 2 / norms_sq
    corr = _dot(top.real, np.conj(top))
    scale = -(2.0 / (metric * norms_sq * np.linalg.norm(top.real, axis=-1)))
    middle = scale[:, None] * np.real((gamma_z * corr)[:, None] * F[:, n - 1])
    base[idx] = gamma[:, None] * g + middle
    return base


@dataclass
class KaehlerRegularityReport:
    """The result of `kaehler_immersion_check`: the Jacobian rank at every
    (z, w) cell, `ranks[i, k]` at the z-centre `centres[i]` and the
    parameters `w[k]`; the cells are regular where the rank is the
    expected one."""

    expected_rank: int
    centres: np.ndarray   # (C,) complex
    w: np.ndarray         # (cells, n-1) complex
    ranks: np.ndarray     # (C, cells) uint8

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
    z-columns are one read of the real field (base map, Re F_j, Im F_j)
    per centre: d/dx = 2 Re d/dz, d/dy = -2 Im d/dz, from the reader of
    the block's `chain.stencil_batch`, as in `geometry.verify_all`.  A
    cell is regular when the rank equals 2n (full parameter count),
    counting the singular values above _RANK_THRESHOLD times the largest;
    cells below full rank are flagged, and so are all cells at a z whose
    stencil touches a degenerate point.  `chain._sweep` runs the check
    over the z-grid, shrunk so the stencils stay inside the domain, in
    blocks of a fixed cell budget (and of the chain point budget), and
    refuses a z-grid with no point inside the domain or only singular
    ones.
    """
    n = chain.n
    if n < 2:
        raise ValueError("the hypersurface map requires n >= 2")
    h_z = 1e-5 * chain.domain.diameter
    w_vals = np.linspace(w_box[0], w_box[1], w_samples)
    axis = [complex(u, v) for u in w_vals for v in w_vals]
    w = np.array(list(itertools.product(axis, repeat=n - 1)), dtype=complex)

    reads = [(4 * h_z, h_z, (1, 0))]

    def rows(evaluated):    # (B, 2n-1, 2n+1): the base map, Re F_j, Im F_j
        F = evaluated.F[:, :n - 1]
        return np.hstack([_kaehler_base(evaluated, params)[:, None], F.real, F.imag])

    def read(batch, derivs):
        dz, = derivs(rows)
        cols = []
        for d in (2 * dz.real, -2 * dz.imag):        # d/dx, d/dy
            dF = d[:, 1:n] + 1j * d[:, n:]
            cols.append(d[:, :1] + _normal_terms(dF[:, None], w[None]))
        F = batch.F[:, :n - 1]
        for j in range(n - 1):                       # d/du_j, d/dv_j
            for part in (F[:, j].real, -F[:, j].imag):
                cols.append(np.broadcast_to(part[:, None], cols[0].shape))
        jac = np.stack(cols, axis=-1)                # (centre, cell, dim, 2n)
        # a NaN read marks a degenerate centre or a stencil touching one;
        # their cells keep all-zero singular values, hence rank 0
        ok = ~np.isnan(dz[:, 0, 0])
        sigmas = np.zeros(jac.shape[:2] + (2 * n,))
        sigmas[ok] = np.linalg.svd(jac[ok], compute_uv=False)
        top = np.where(sigmas[..., 0] > 0, sigmas[..., 0], 1.0)
        return (np.sum(sigmas > _RANK_THRESHOLD * top[..., None], axis=-1,
                       dtype=np.uint8),)

    zs, inside, (ranks,) = _sweep(chain, *z_grid, read, margin=4 * h_z, name="z_grid",
                                  reads=reads, centres=max(1, _SCAN_BLOCK // len(w)))
    return KaehlerRegularityReport(expected_rank=2 * n, centres=zs[inside], w=w,
                                   ranks=ranks)


# ---------------------------------------------------------------------------
# Ruled minimal submanifolds
# ---------------------------------------------------------------------------

def ruled_map(chain, params):
    """The sphere-exponential of the normal vector w at g(z),
    cos(|w|) g + sinc(|w|) w, as a read of `scan_grid`: (ok, values) as
    `kaehler_map` reads them.  Unit norm by construction."""
    n = chain.n
    if n < 3:
        raise ValueError("the ruled map requires n >= 3")
    if len(params.w) != n - 2:
        raise ValueError(f"w needs {n - 2} entries, got {len(params.w)}")
    w = np.array(params.w, dtype=complex)

    def read(batch):
        values = np.full(batch.g.shape, np.nan)
        idx = np.flatnonzero(batch.ok)
        values[idx] = _ruled_values(batch.F[idx], batch.g[idx], w)
        return batch.ok, values

    return read


def ruled_point(chain, params, z):
    """The read of `ruled_map` at the one point z, as `kaehler_point`
    reads its map."""
    read = ruled_map(chain, params)
    batch = f_chain_eval(chain, np.array([z]))
    require_regular(batch)
    return read(batch)[1][0]


def _ruled_values(F, g, w):
    """The ruled map at chain vectors F (..., m, d), surface vectors g
    (..., d) and parameters w (..., k), broadcast against each other."""
    wvec = _normal_terms(F, w)
    t = np.linalg.norm(wvec, axis=-1)[..., None]
    return np.cos(t) * g + np.sinc(t / np.pi) * wvec


def ruled_minimality_probe(chain, params, zs):
    """Mean curvature (inside the sphere) of the 4-parameter ruled map at
    each centre of the flat array zs, estimated by central differences
    over (x, y, u, v) with the step 1e-3 times the domain diameter.

    Only the n = 3 case is supported; the result is invariant under
    rescaling the parameters.  It is one float per centre, NaN where the
    stencil touches a point where the chain or the surface normalization
    degenerates, or where the induced metric is near-degenerate (Gram
    determinant below _DET_THRESHOLD times the product of its diagonal).
    The chain is evaluated once, at the 9 z-offsets of every stencil.
    """
    if chain.n != 3:
        raise ValueError("the minimality probe supports n = 3 only")
    if len(params.w) != 1:
        raise ValueError("w needs exactly 1 entry for n = 3")
    h = 1e-3 * chain.domain.diameter
    zs = np.asarray(zs, dtype=complex).ravel()
    inside = chain.domain.contains(zs, margin=2.5 * h)
    if not np.all(inside):
        bad = zs[np.argmin(inside)]
        raise DomainError(f"probe stencil at z={bad} leaves the domain")
    d = np.array([-h, 0.0, h])
    steps = d[:, None] + 1j * d               # (x, y) offsets, x along axis 0
    batch = f_chain_eval(chain, (zs[:, None] + steps.ravel()).ravel())
    F = batch.F.reshape((zs.size, 3, 3) + batch.F.shape[1:])
    g = batch.g.reshape(zs.size, 3, 3, -1)
    regular = np.flatnonzero(batch.ok.reshape(zs.size, 9).all(axis=1))
    residuals = np.full(zs.size, np.nan)
    if regular.size:
        residuals[regular] = _ruled_probe(F[regular], g[regular], params.w[0], h)
    return residuals


def _ruled_probe(F, g, w0, h):
    """Residuals of the probe at P centres with the chain vectors F (P, 3,
    3, m, d) and surface vectors g (P, 3, 3, d) at their (x, y) offsets,
    all nine regular; NaN where the induced metric is near-degenerate."""
    s = np.array([-h, 0.0, h])
    w = (w0.real + s)[:, None] + 1j * (w0.imag + s)     # (u, v) offsets
    # the ruled map on the 3^4 grid of steps in (x, y, u, v) in one
    # broadcast call: index 0, 1, 2 of an axis is the step -h, 0, h
    values = _ruled_values(F[:, :, :, None, None], g[:, :, :, None, None],
                           w[..., None])                # (P, 3, 3, 3, 3, d)
    center = values[:, 1, 1, 1, 1]
    lines = np.stack([values[:, :, 1, 1, 1], values[:, 1, :, 1, 1],
                      values[:, 1, 1, :, 1], values[:, 1, 1, 1, :]],
                     axis=1)                            # (P, 4, 3, d)
    tangents = (lines[:, :, 2] - lines[:, :, 0]) / (2 * h)   # (P, 4, d)
    P, _, d = tangents.shape
    second = np.empty((P, 4, 4, d))
    diag = np.arange(4)
    second[:, diag, diag] = (lines[:, :, 2] - 2 * center[:, None]
                             + lines[:, :, 0]) / (h * h)
    for i, j in itertools.combinations(range(4), 2):
        corners = [1] * 4
        corners[i] = corners[j] = slice(None, None, 2)  # the steps -h, h
        plane = values[(slice(None), *corners)]         # (P, 2, 2, d)
        second[:, i, j] = (plane[:, 1, 1] - plane[:, 1, 0] - plane[:, 0, 1]
                           + plane[:, 0, 0]) / (4 * h * h)
        second[:, j, i] = second[:, i, j]

    gram = tangents @ np.swapaxes(tangents, 1, 2)
    det = np.linalg.det(gram)
    norm_scale = np.prod(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    norm_scale[norm_scale == 0] = 1.0
    residual = np.full(det.size, np.nan)
    ok = np.flatnonzero(det >= _DET_THRESHOLD * norm_scale)
    if ok.size:
        trace_vec = np.einsum("pij,pijd->pd", np.linalg.inv(gram[ok]), second[ok])
        basis = np.concatenate([center[ok, None], tangents[ok]], axis=1)
        q = np.linalg.qr(np.swapaxes(basis, 1, 2))[0]
        residual[ok] = np.linalg.norm(_normal_part(q, trace_vec), axis=-1) / 4.0
    return residual


def ruling_geodesic_residual(chain, z):
    """Normal component of the second derivative along a ruling direction
    at w = 0: zero means the rulings are geodesic circles.  None where
    the chain or the surface normalization degenerates at z or on the
    stencil of the surface derivative."""
    if chain.n < 3:
        raise ValueError("the ruled map requires n >= 3")
    zero = tuple(0j for _ in range(chain.n - 2))
    batch, derivs = stencil_batch(chain, np.array([z]),
                                  [(0.0, default_step(chain.domain.diameter, 1), (1, 0))])
    dfield, = derivs(stencil_rows)
    dg = dfield[0, 0]   # the surface part, NaN where z is not `ok`
    if np.isnan(dg).any():
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
