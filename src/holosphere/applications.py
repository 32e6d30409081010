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

Both evaluate pointwise from a single chain sample; regularity and
minimality are probed by finite differences in the full parameter space.
"""

from dataclasses import dataclass

import numpy as np

from .chain import DEFAULT_EPS_SINGULAR, f_chain_at, f_chain_eval, surface_at
from .errors import DomainError, SingularPointError
from .expr import HoloExpr, differentiate, eval_env, parse_expr
from .fd import wirtinger
from .geometry import SurfaceEvaluator


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
        # second partials must also exist (smoothness contract)
        differentiate(gx, "x"), differentiate(gy, "y")
        return cls(
            gamma=gamma,
            w=tuple(complex(c) for c in w),
            gamma_x=gx,
            gamma_y=gy,
        )

    def gamma_values(self, z):
        env = {"x": z.real, "y": z.imag}
        val = complex(eval_env(self.gamma, env)).real
        gx = complex(eval_env(self.gamma_x, env)).real
        gy = complex(eval_env(self.gamma_y, env)).real
        return val, 0.5 * (gx - 1j * gy)  # (gamma, d gamma/dz)


@dataclass
class RuledParams:
    """The n-2 complex parameters of the ruling directions (needs n >= 3)."""

    w: tuple

    @classmethod
    def create(cls, w):
        return cls(w=tuple(complex(c) for c in w))


def _normal_combination(sample, w):
    """sum_j (u_j Re F_j - v_j Im F_j) over the given complex parameters,
    pairing w[j-1] with the chain vector F_j."""
    return _normal_terms(sample.F, np.array(w, dtype=complex))


def _normal_terms(F, w):
    """`_normal_combination` for stacks: chain vectors F (..., m, dim) and
    parameters w (..., k), broadcast against each other."""
    shape = np.broadcast_shapes(F.shape[:-2], w.shape[:-1]) + F.shape[-1:]
    out = np.zeros(shape)
    for j in range(w.shape[-1]):
        out += (w[..., j, None].real * F[..., j, :].real
                - w[..., j, None].imag * F[..., j, :].imag)
    return out


def _chain_surface(chain, zs, eps_singular):
    """One chain evaluation at the flat array zs: the batch, and per point
    its surface vector or, at a degenerate point, the SingularPointError
    that `surface_at` raises there."""
    batch = f_chain_eval(chain, zs, eps_singular)
    surface = []
    for i in range(batch.z.size):
        try:
            surface.append(surface_at(batch.sample(i), eps_singular))
        except SingularPointError as exc:
            surface.append(exc)
    return batch, surface


def _errors(surface):
    return [g if isinstance(g, SingularPointError) else None for g in surface]


def kaehler_point(chain, params, z, eps_singular=DEFAULT_EPS_SINGULAR):
    """Closed-form evaluation of the hypersurface map at (z, w).

    Requires n >= 2 and len(w) == n-1.  The middle (gradient) term uses
    the tangent formula of the chain, so everything comes from one chain
    sample plus symbolic partials of gamma.
    """
    values, errors = kaehler_points(chain, params, np.array([z]), eps_singular)
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def kaehler_points(chain, params, zs, eps_singular=DEFAULT_EPS_SINGULAR):
    """`kaehler_point` at a flat array of points, with one chain
    evaluation.  Returns (values, errors): the rows of degenerate points
    are NaN and `errors` holds their SingularPointError, None elsewhere."""
    n = chain.n
    if n < 2:
        raise ValueError("the hypersurface map requires n >= 2")
    if len(params.w) != n - 1:
        raise ValueError(f"w needs {n - 1} entries, got {len(params.w)}")
    batch, surface = _chain_surface(chain, zs, eps_singular)
    base = _kaehler_base(batch, surface, params)
    w = np.array(params.w, dtype=complex)
    return base + _normal_terms(batch.F, w), _errors(surface)


def _kaehler_base(batch, surface, params):
    """The w-independent part of the map, gamma g + gradient term, at each
    point of the batch; NaN rows at degenerate points."""
    n = batch.F.shape[1] - 1
    base = np.full((batch.z.size, batch.F.shape[2]), np.nan)
    for i, g in enumerate(surface):
        if isinstance(g, SingularPointError):
            continue
        sample = batch.sample(i)
        gamma, gamma_z = params.gamma_values(sample.z)
        re_top = sample.F[-1].real
        re_norm = float(np.linalg.norm(re_top))
        pairing = complex(np.dot(g.astype(complex), sample.F[-1]))
        metric = abs(pairing) ** 2 / sample.norms_sq[n - 1]
        corr = complex(np.dot(re_top.astype(complex), np.conj(sample.F[-1])))
        middle = -(2.0 / (metric * sample.norms_sq[n - 1] * re_norm)) * np.real(
            gamma_z * corr * sample.F[n - 1]
        )
        base[i] = gamma * g + middle
    return base


def kaehler_point_reference(chain, params, z, h=None,
                            eps_singular=DEFAULT_EPS_SINGULAR):
    """Independent assembly of the same map: gamma g + pushforward of the
    metric gradient of gamma (from a finite-difference tangent vector)
    plus the normal term.  Used to cross-check the closed formula."""
    g_eval = SurfaceEvaluator.from_chain(chain, eps_singular)
    if h is None:
        h = g_eval.step(1)
    sample = f_chain_at(chain, z, eps_singular)
    g = surface_at(sample, eps_singular)
    gamma, gamma_z = params.gamma_values(complex(z))
    dg = wirtinger(g_eval, z, 1, 0, h=h)
    metric = float(np.sum(np.abs(dg) ** 2))
    grad_push = (2.0 / metric) * np.real(np.conj(gamma_z) * dg)
    return gamma * g + grad_push + _normal_combination(sample, params.w)


@dataclass
class RegularityRecord:
    z: complex
    w: tuple
    rank: int
    singular_values: np.ndarray


@dataclass
class KaehlerRegularityReport:
    expected_rank: int
    records: list
    regular_count: int
    flagged: list  # records with rank < expected

    @property
    def total(self):
        return len(self.records)

    @property
    def fraction_regular(self):
        return self.regular_count / max(1, self.total)

    def to_dict(self):
        return {
            "expected_rank": self.expected_rank,
            "total": self.total,
            "regular": self.regular_count,
            "fraction_regular": self.fraction_regular,
            "flagged": [
                {"z": [r.z.real, r.z.imag], "w": [[c.real, c.imag] for c in r.w],
                 "rank": r.rank}
                for r in self.flagged
            ],
        }


def kaehler_immersion_check(chain, params, z_grid=(5, 5), w_box=(-0.1, 0.1),
                            w_samples=3, rank_threshold=1e-8,
                            eps_singular=DEFAULT_EPS_SINGULAR):
    """Rank of the FD Jacobian over a (z, w) sample box.

    The Jacobian is central-difference in the map's 2n real parameters
    (x, y, u_1, v_1, ..., u_{n-1}, v_{n-1}).  A cell is regular when the
    rank equals 2n (full parameter count); cells below full rank are
    flagged, and so are all cells at a z whose stencil touches a
    degenerate point.  The z-grid is shrunk slightly so the z-stencil
    stays inside the domain.  The chain is evaluated once on the
    z-stencils of the whole grid; the map is affine in w, so the
    w-differences reuse those values.
    """
    n = chain.n
    if n < 2:
        raise ValueError("the hypersurface map requires n >= 2")
    expected = 2 * n
    h_z = 1e-5 * chain.domain.diameter
    h_w = 1e-5
    zs, inside = chain.domain.interior_margin_grid(
        z_grid[0], z_grid[1], margin=4 * h_z
    )
    centres = zs[inside]
    w_vals = np.linspace(w_box[0], w_box[1], w_samples)
    w_axes = [(u, v) for u in w_vals for v in w_vals]
    combos = _w_combinations(w_axes, n - 1)
    w = np.array(combos, dtype=complex)

    # stencil rows: z, z + h, z - h, z + ih, z - ih
    pts = np.stack([centres, centres + h_z, centres - h_z,
                    centres + 1j * h_z, centres - 1j * h_z])
    batch, surface = _chain_surface(chain, pts.ravel(), eps_singular)
    base = _kaehler_base(batch, surface, params).reshape(pts.shape + (-1,))
    F = batch.F.reshape(pts.shape + batch.F.shape[1:])
    degenerate = np.isnan(base[..., 0]).any(axis=0)

    def psi(row, w):  # (centre, cell, dim)
        return base[row][:, None] + _normal_terms(F[row][:, None], w[None])

    cols = [(psi(1, w) - psi(2, w)) / (2 * h_z),
            (psi(3, w) - psi(4, w)) / (2 * h_z)]
    for j in range(n - 1):
        for part in (1.0, 1j):
            wp, wm = w.copy(), w.copy()
            wp[:, j] += part * h_w
            wm[:, j] -= part * h_w
            cols.append((psi(0, wp) - psi(0, wm)) / (2 * h_w))
    jac = np.stack(cols, axis=-1)
    sigmas = np.zeros(jac.shape[:2] + (expected,))
    if not degenerate.all():
        sigmas[~degenerate] = np.linalg.svd(jac[~degenerate], compute_uv=False)

    records = []
    flagged = []
    regular = 0
    for k, z in enumerate(centres):
        for c, combo in enumerate(combos):
            if degenerate[k]:
                rec = RegularityRecord(complex(z), combo, 0, np.zeros(expected))
                records.append(rec)
                flagged.append(rec)
                continue
            sigma = sigmas[k, c]
            top = sigma[0] if sigma[0] > 0 else 1.0
            rank = int(np.sum(sigma > rank_threshold * top))
            rec = RegularityRecord(complex(z), combo, rank, sigma)
            records.append(rec)
            if rank == expected:
                regular += 1
            else:
                flagged.append(rec)
    return KaehlerRegularityReport(
        expected_rank=expected,
        records=records,
        regular_count=regular,
        flagged=flagged,
    )


def _w_combinations(w_axes, count):
    """Tensor product of per-parameter (u, v) samples, as complex tuples."""
    if count == 1:
        return [(complex(u, v),) for (u, v) in w_axes]
    out = []
    for head in w_axes:
        for tail in _w_combinations(w_axes, count - 1):
            out.append((complex(*head),) + tail)
    return out


# ---------------------------------------------------------------------------
# Ruled minimal submanifolds
# ---------------------------------------------------------------------------

def ruled_point(chain, params, z, eps_singular=DEFAULT_EPS_SINGULAR):
    """Sphere-exponential of the normal vector w at g(z):
    cos(|w|) g + sinc(|w|) w.  Unit norm by construction."""
    values, errors = ruled_points(chain, params, np.array([z]), eps_singular)
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def ruled_points(chain, params, zs, eps_singular=DEFAULT_EPS_SINGULAR):
    """`ruled_point` at a flat array of points, with one chain evaluation;
    returns (values, errors) as `kaehler_points` does."""
    n = chain.n
    if n < 3:
        raise ValueError("the ruled map requires n >= 3")
    if len(params.w) != n - 2:
        raise ValueError(f"w needs {n - 2} entries, got {len(params.w)}")
    batch, surface = _chain_surface(chain, zs, eps_singular)
    values = np.full((batch.z.size, chain.dim), np.nan)
    for i, g in enumerate(surface):
        if not isinstance(g, SingularPointError):
            values[i] = _ruled_value(batch.sample(i), g, params.w)
    return values, _errors(surface)


def _ruled_value(sample, g, w):
    wvec = _normal_combination(sample, w)
    t = float(np.linalg.norm(wvec))
    return np.cos(t) * g + np.sinc(t / np.pi) * wvec


@dataclass
class RuledProbeResult:
    z: complex
    w: tuple
    residual: float      # None when flagged
    gram_det: float
    degenerate: bool


def ruled_minimality_probe(chain, params, z, fd_step=None,
                           det_threshold=1e-10,
                           eps_singular=DEFAULT_EPS_SINGULAR):
    """Mean curvature (inside the sphere) of the 4-parameter ruled map at
    one point, estimated by central differences over (x, y, u, v).

    Only the n = 3 case is supported; the result is invariant under
    rescaling the parameters.  Near-degenerate induced metrics are
    flagged instead of returning a number.  The chain is evaluated once,
    at the 9 z-offsets of the stencil.
    """
    if chain.n != 3:
        raise ValueError("the minimality probe supports n = 3 only")
    if len(params.w) != 1:
        raise ValueError("w needs exactly 1 entry for n = 3")
    if fd_step is None:
        fd_step = 1e-3 * chain.domain.diameter
    h = fd_step
    if not chain.domain.contains(z, margin=2.5 * h):
        raise DomainError(f"probe stencil at z={z} leaves the domain")
    u0, v0 = params.w[0].real, params.w[0].imag
    offsets = [(dx, dy) for dx in (-h, 0.0, h) for dy in (-h, 0.0, h)]
    batch, surface = _chain_surface(
        chain, np.array([z + (dx + 1j * dy) for dx, dy in offsets]), eps_singular
    )
    row = {offset: i for i, offset in enumerate(offsets)}

    def X(dx=0.0, dy=0.0, du=0.0, dv=0.0):
        i = row[(dx, dy)]
        if isinstance(surface[i], SingularPointError):
            raise surface[i]
        w = (complex(u0 + du, v0 + dv),)
        return _ruled_value(batch.sample(i), surface[i], w)

    axes = ("dx", "dy", "du", "dv")
    center = X()
    first = []
    for a in axes:
        p = X(**{a: h})
        m = X(**{a: -h})
        first.append((p - m) / (2 * h))
    second = np.empty((4, 4, center.size))
    for i, ai in enumerate(axes):
        for j, aj in enumerate(axes):
            if j < i:
                second[i, j] = second[j, i]
                continue
            if i == j:
                p = X(**{ai: h})
                m = X(**{ai: -h})
                second[i, i] = (p - 2 * center + m) / (h * h)
            else:
                pp = X(**{ai: h, aj: h})
                pm = X(**{ai: h, aj: -h})
                mp = X(**{ai: -h, aj: h})
                mm = X(**{ai: -h, aj: -h})
                second[i, j] = (pp - pm - mp + mm) / (4 * h * h)

    tangents = np.stack(first, axis=0)          # (4, dim)
    gram = tangents @ tangents.T
    det = float(np.linalg.det(gram))
    norm_scale = float(np.prod(np.diag(gram))) or 1.0
    if det < det_threshold * norm_scale:
        return RuledProbeResult(z, params.w, None, det, True)
    ginv = np.linalg.inv(gram)
    trace_vec = np.einsum("ij,ijd->d", ginv, second)
    basis = np.concatenate([center[None, :], tangents], axis=0).T  # (dim, 5)
    q, _ = np.linalg.qr(basis)
    normal_part = trace_vec - q @ (q.T @ trace_vec)
    residual = float(np.linalg.norm(normal_part)) / 4.0
    return RuledProbeResult(z, params.w, residual, det, False)


def ruling_geodesic_residual(chain, z, h=1e-4,
                             eps_singular=DEFAULT_EPS_SINGULAR):
    """Normal component of the second derivative along a ruling direction
    at w = 0: zero means the rulings are geodesic circles."""
    if chain.n < 3:
        raise ValueError("the ruled map requires n >= 3")
    zero = tuple(0j for _ in range(chain.n - 2))
    sample = f_chain_at(chain, z, eps_singular)
    g = surface_at(sample, eps_singular)

    def along(t):
        return _ruled_value(sample, g, (complex(t, 0.0),) + zero[1:])

    center = along(0.0)
    acc = (along(h) - 2 * center + along(-h)) / (h * h)
    g_eval = SurfaceEvaluator.from_chain(chain, eps_singular)
    dg = wirtinger(g_eval, z, 1, 0, h=1e-4 * chain.domain.diameter)
    gx, gy = 2 * dg.real, -2 * dg.imag
    du = sample.F[0].real  # tangent of the ruling at w = 0
    dv = -sample.F[0].imag
    basis = np.stack([center, gx, gy, du, dv], axis=1)
    q, _ = np.linalg.qr(basis)
    resid = acc - q @ (q.T @ acc)
    return float(np.linalg.norm(resid))
