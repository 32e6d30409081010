"""Isotropic holomorphic chains and the spherical surfaces they generate.

Starting from n nonzero holomorphic functions on a convex domain, an
inductive family of isotropic vector-valued maps is built by repeated
antidifferentiation::

    alpha_0 = beta_0 (scalar),
    alpha_{r+1} = beta_{r+1} * (1 - q_r, i (1 + q_r), 2 phi_r),

where phi_r is the componentwise antiderivative of alpha_r (with caller
supplied integration constants), q_r its symmetric self-product, and the
last multiplier is fixed to 1.  Each step raises the dimension from
2r+1 to 2r+3; the final map lands in C^(2n+1).

At a point, the holomorphic jet of the final map is orthogonalized under
the Hermitian product (modified Gram-Schmidt with one reorthogonalization
pass), producing the chain F_1..F_{n+1}.  This is analytically identical
to the recursion

    F_{s+1} = dF_s/dz - (<dF_s/dz, conj F_s> / |F_s|^2) F_s,

but keeps every derivative symbolic; the literal recursion is retained as
a finite-difference cross-check.  The unit vector in the direction of
Re(F_{n+1}) parametrizes a minimal spherical surface away from the
(isolated) points where the chain degenerates.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .domain import Domain
from .errors import DomainError, EvaluationError, SingularPointError
from .expr import (
    Add,
    Const,
    Mul,
    Sub,
    antiderivative,
    differentiate,
    eval_expr,
    parse_expr,
    poly_to_expr,
    simplify,
)

DEFAULT_EPS_SINGULAR = 1e-12

_I = Const(1j)
_TWO = Const(2 + 0j)
_ONE = Const(1 + 0j)


@dataclass
class AlphaChain:
    """The full symbolic chain; immutable after construction.

    alpha_exprs[r] holds the 2r+1 component trees of the r-th map; for
    all-polynomial input the jet of the final map is additionally cached
    as coefficient matrices for fast batched evaluation.
    """

    n: int
    betas: tuple
    constants: tuple
    domain: Domain
    alpha_exprs: tuple
    phi_exprs: tuple
    is_polynomial: bool
    jet_coeffs: tuple = None  # (n+1) matrices (deg+1, 2n+1), ascending
    jet_exprs: tuple = None   # (n+1) tuples of differentiated trees

    @property
    def dim(self):
        return 2 * self.n + 1

    def jets_at(self, zs):
        """Holomorphic jet of the final chain map: array (B, n+1, 2n+1)
        of the k-th derivatives at each point of the flat array zs."""
        zs = np.asarray(zs, dtype=complex).ravel()
        m, d = self.n + 1, self.dim
        out = np.empty((zs.size, m, d), dtype=complex)
        if self.jet_coeffs is not None:
            for k, coeffs in enumerate(self.jet_coeffs):
                out[:, k, :] = npoly.polyval(zs, coeffs).T
        else:
            for k, comps in enumerate(self.jet_exprs):
                for c, e in enumerate(comps):
                    out[:, k, c] = eval_expr(e, zs)
        if not np.all(np.isfinite(out)):
            bad = np.argwhere(~np.isfinite(out))[0][0]
            raise EvaluationError("non-finite chain value", complex(zs[bad]))
        return out


def _as_expr(b):
    return parse_expr(b) if isinstance(b, str) else b


def build_alpha_chain(betas, constants=None, domain=None):
    """Construct the chain from n holomorphic functions.

    betas: sequence of n expression trees or strings (beta_0..beta_{n-1}).
    constants: per-step integration constants, constants[r] a sequence of
    2r+1 complex numbers (defaults to all zeros).  The final multiplier
    is always the constant 1.
    """
    betas = tuple(_as_expr(b) for b in betas)
    n = len(betas)
    if n < 1:
        raise ValueError("need at least one holomorphic function")
    if domain is None:
        domain = Domain.rectangle(-1 - 1j, 1 + 1j, base_point=0j)
    if constants is None:
        constants = tuple(tuple(0j for _ in range(2 * r + 1)) for r in range(n))
    else:
        constants = tuple(tuple(complex(c) for c in row) for row in constants)
        if len(constants) != n:
            raise ValueError(f"constants needs {n} rows, got {len(constants)}")
        for r, row in enumerate(constants):
            if len(row) != 2 * r + 1:
                raise ValueError(
                    f"constants[{r}] needs {2 * r + 1} entries, got {len(row)}"
                )

    alpha_exprs = [(betas[0],)]
    alpha_coeffs = None
    phi_exprs = []
    poly_path = all(e.is_polynomial for e in betas)
    if poly_path:
        from .expr import poly_coeffs

        alpha_coeffs = [[poly_coeffs(betas[0])]]

    for r in range(n):
        antis = [
            antiderivative(e, c, domain)
            for e, c in zip(alpha_exprs[r], constants[r])
        ]
        phis = tuple(a.as_expr() for a in antis)
        phi_exprs.append(phis)
        beta_next = betas[r + 1] if r + 1 < n else _ONE

        if poly_path:
            from .expr import poly_coeffs

            phi_cs = [a._coeffs for a in antis]
            q = np.array([0j])
            for pc in phi_cs:
                q = _padded_sum(q, np.convolve(pc, pc))
            bc = poly_coeffs(beta_next)
            comps = [
                np.convolve(bc, _padded_sum(np.array([1 + 0j]), -q)),
                np.convolve(bc, 1j * _padded_sum(np.array([1 + 0j]), q)),
            ]
            comps.extend(np.convolve(bc, 2 * pc) for pc in phi_cs)
            alpha_coeffs.append(comps)
            alpha_exprs.append(tuple(poly_to_expr(c) for c in comps))
        else:
            q = None
            for p in phis:
                term = Mul(p, p)
                q = term if q is None else Add(q, term)
            comps = [
                Mul(beta_next, Sub(_ONE, q)),
                Mul(beta_next, Mul(_I, Add(_ONE, q))),
            ]
            comps.extend(Mul(_TWO, Mul(beta_next, p)) for p in phis)
            alpha_exprs.append(tuple(simplify(c) for c in comps))

    chain = AlphaChain(
        n=n,
        betas=betas,
        constants=constants,
        domain=domain,
        alpha_exprs=tuple(alpha_exprs),
        phi_exprs=tuple(phi_exprs),
        is_polynomial=poly_path,
    )
    if poly_path:
        top = alpha_coeffs[n]
        width = max(len(c) for c in top)
        mat = np.zeros((width, 2 * n + 1), dtype=complex)
        for c, col in enumerate(top):
            mat[: len(col), c] = col
        mats = [mat]
        for _ in range(n):
            mat = npoly.polyder(mat, axis=0)
            if mat.shape[0] == 0:
                mat = np.zeros((1, 2 * n + 1), dtype=complex)
            mats.append(mat)
        chain.jet_coeffs = tuple(mats)
    else:
        jet = [tuple(alpha_exprs[n])]
        for _ in range(n):
            jet.append(tuple(differentiate(e) for e in jet[-1]))
        chain.jet_exprs = tuple(jet)
    return chain


def _padded_sum(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a.astype(complex).copy()
    out[: len(b)] += b
    return out


# ---------------------------------------------------------------------------
# Pointwise chain evaluation
# ---------------------------------------------------------------------------

@dataclass
class FChainSample:
    """Chain data at one point: the holomorphic jet, the orthogonalized
    vectors F_1..F_{n+1}, their squared norms, and a degeneracy flag."""

    z: complex
    jets: np.ndarray      # (n+1, 2n+1)
    F: np.ndarray         # (n+1, 2n+1), row s-1 is F_s
    norms_sq: np.ndarray  # (n+1,)
    singular: bool
    scale_sq: float       # largest squared jet norm, reference scale

    @property
    def n(self):
        return self.jets.shape[0] - 1


class FChainBatch:
    """Vectorized chain data over a flat array of points."""

    __slots__ = ("z", "jets", "F", "norms_sq", "singular", "scale_sq")

    def __init__(self, z, jets, F, norms_sq, singular, scale_sq):
        self.z = z
        self.jets = jets
        self.F = F
        self.norms_sq = norms_sq
        self.singular = singular
        self.scale_sq = scale_sq

    def __len__(self):
        return self.z.size

    def take(self, idx):
        """The sub-batch at the given indices."""
        return FChainBatch(
            self.z[idx], self.jets[idx], self.F[idx], self.norms_sq[idx],
            self.singular[idx], self.scale_sq[idx],
        )

    def sample(self, i):
        return FChainSample(
            z=complex(self.z[i]),
            jets=self.jets[i],
            F=self.F[i],
            norms_sq=self.norms_sq[i],
            singular=bool(self.singular[i]),
            scale_sq=float(self.scale_sq[i]),
        )


def _gram_schmidt(jets, eps_singular):
    """Hermitian modified Gram-Schmidt over a batch of jets (B, m, d),
    with one reorthogonalization pass.  Rows with collapsed norms are
    flagged singular instead of raising."""
    B, m, d = jets.shape
    F = np.zeros_like(jets)
    norms = np.zeros((B, m))
    scale_sq = np.max(np.sum(np.abs(jets) ** 2, axis=2), axis=1)
    F[:, 0] = jets[:, 0]
    norms[:, 0] = np.sum(np.abs(F[:, 0]) ** 2, axis=1)
    for s in range(1, m):
        v = jets[:, s].copy()
        for _ in range(2):
            for j in range(s):
                nj = norms[:, j]
                safe = np.where(nj > 0, nj, 1.0)
                coef = np.einsum("bd,bd->b", v, np.conj(F[:, j])) / safe
                coef = np.where(nj > 0, coef, 0.0)
                v -= coef[:, None] * F[:, j]
        F[:, s] = v
        norms[:, s] = np.sum(np.abs(v) ** 2, axis=1)
    singular = np.any(norms <= eps_singular * scale_sq[:, None], axis=1)
    return F, norms, scale_sq, singular


def f_chain_eval(chain, zs, eps_singular=DEFAULT_EPS_SINGULAR):
    """Batched chain evaluation at a flat array of in-domain points."""
    zs = np.asarray(zs, dtype=complex).ravel()
    slack = -1e-12 * chain.domain.diameter
    inside = chain.domain.contains(zs, margin=slack)
    if not np.all(inside):
        bad = zs[np.argmin(inside)]
        raise DomainError(f"point {bad} is outside the chain domain")
    jets = chain.jets_at(zs)
    F, norms, scale_sq, singular = _gram_schmidt(jets, eps_singular)
    return FChainBatch(zs, jets, F, norms, singular, scale_sq)


def f_chain_at(chain, z, eps_singular=DEFAULT_EPS_SINGULAR):
    """Chain data at a single point of the domain."""
    return f_chain_eval(chain, np.array([z]), eps_singular).sample(0)


def recursion_crosscheck(chain, z, h=None, eps_singular=DEFAULT_EPS_SINGULAR):
    """Maximum relative deviation between the Gram-Schmidt chain vectors
    and the literal first-order recursion evaluated with a 4-point
    finite-difference Wirtinger derivative of each (non-holomorphic)
    chain field.  The first step is holomorphic, so its derivative comes
    from the symbolic jet and agrees to roundoff.
    """
    if h is None:
        h = 1e-4 * chain.domain.diameter
    base = f_chain_eval(chain, np.array([z]), eps_singular)
    if base.singular[0]:
        raise SingularPointError("chain degenerates", z)
    stencil = np.array([z + h, z - h, z + 1j * h, z - 1j * h])
    if not np.all(chain.domain.contains(stencil)):
        raise DomainError(f"crosscheck stencil at z={z} leaves the domain")
    worst = recursion_residuals(chain, base, h, eps_singular)[0]
    if np.isnan(worst):
        raise SingularPointError("chain degenerates on the stencil", z)
    return float(worst)


def recursion_residuals(chain, base, h, eps_singular=DEFAULT_EPS_SINGULAR):
    """`recursion_crosscheck` at every point of the non-singular batch
    `base`, with one chain evaluation for all four stencils.  Points
    whose stencil touches a singular point get NaN."""
    zs = base.z
    stencil = f_chain_eval(
        chain, np.stack([zs + h, zs - h, zs + 1j * h, zs - 1j * h]).ravel(),
        eps_singular,
    )
    F = stencil.F.reshape((4, zs.size) + stencil.F.shape[1:])
    touched = stencil.singular.reshape(4, zs.size).any(axis=0)
    derivs = [base.jets[:, 1]]
    for idx in range(1, chain.n):
        dx = (F[0, :, idx] - F[1, :, idx]) / (2 * h)
        dy = (F[2, :, idx] - F[3, :, idx]) / (2 * h)
        derivs.append(0.5 * (dx - 1j * dy))

    out = np.full(zs.size, np.nan)
    for b in np.flatnonzero(~touched):
        worst = 0.0
        for idx, dF in enumerate(derivs):
            dFs = dF[b]
            Fs = base.F[b, idx]
            coef = np.dot(dFs, np.conj(Fs)) / base.norms_sq[b, idx]
            literal = dFs - coef * Fs
            ref = base.F[b, idx + 1]
            dev = np.linalg.norm(literal - ref) / np.linalg.norm(ref)
            worst = max(worst, float(dev))
        out[b] = worst
    return out


def surface_at(sample, eps=DEFAULT_EPS_SINGULAR):
    """Unit vector along the real part of the last chain vector.

    Raises SingularPointError when the sample is degenerate or the real
    part collapses below the relative threshold.
    """
    if sample.singular:
        raise SingularPointError("chain degenerates", sample.z)
    re = sample.F[-1].real
    nsq = float(np.dot(re, re))
    if nsq <= eps * sample.scale_sq:
        raise SingularPointError("surface normalization degenerates", sample.z)
    g = re / np.sqrt(nsq)
    return g


@dataclass
class GridScan:
    """Row-major chain evaluation over a rectangular sample grid.

    `surface` holds NaN rows wherever `valid` is False; `singular` marks
    degeneracies of the chain or of the surface normalization, `inside`
    membership in the domain (relevant for disks, whose grid spans the
    bounding box).
    """

    zs: np.ndarray        # (R, C) complex
    inside: np.ndarray    # (R, C) bool
    singular: np.ndarray  # (R, C) bool
    valid: np.ndarray     # (R, C) bool: inside, non-singular, normalizable
    surface: np.ndarray   # (R, C, 2n+1) float
    norms_sq: np.ndarray  # (R, C, n+1)
    samples: list         # row-major FChainSample for inside points, else None

    @property
    def shape(self):
        return self.zs.shape


def scan_grid(chain, rows, cols, eps_singular=DEFAULT_EPS_SINGULAR):
    """Evaluate chain and surface over a rows x cols grid of the domain.

    Grid order is row-major and the result is deterministic for fixed
    inputs.  Degenerate points are masked, never raised.
    """
    if rows < 2 or cols < 2:
        raise DomainError("grid too small: need at least 2x2")
    zs, inside = chain.domain.grid(rows, cols)
    R, C = zs.shape
    d = chain.dim
    flat_idx = np.flatnonzero(inside.ravel())
    surface = np.full((R * C, d), np.nan)
    singular = np.zeros(R * C, dtype=bool)
    valid = np.zeros(R * C, dtype=bool)
    norms = np.full((R * C, chain.n + 1), np.nan)
    samples = [None] * (R * C)

    if flat_idx.size:
        batch = f_chain_eval(chain, zs.ravel()[flat_idx], eps_singular)
        norms[flat_idx] = batch.norms_sq
        singular[flat_idx] = batch.singular
        for pos, i in enumerate(flat_idx):
            s = batch.sample(pos)
            samples[i] = s
            if s.singular:
                continue
            try:
                surface[i] = surface_at(s, eps_singular)
                valid[i] = True
            except SingularPointError:
                singular[i] = True
    return GridScan(
        zs=zs,
        inside=inside,
        singular=singular.reshape(R, C),
        valid=valid.reshape(R, C),
        surface=surface.reshape(R, C, d),
        norms_sq=norms.reshape(R, C, chain.n + 1),
        samples=samples,
    )
