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

Every map is held as ascending coefficient arrays in z.  A polynomial
beta enters with its exact coefficients; any other beta is replaced by
its Taylor polynomial about z = 0, taken by the trapezoid rule (an FFT)
on the circle |z| = rho that encloses the domain and accepted only when
its error on that circle is within the tolerance.

At a point, the holomorphic jet of the final map is orthogonalized under
the Hermitian product (modified Gram-Schmidt with one reorthogonalization
pass), producing the chain F_1..F_{n+1}.  This is analytically identical
to the recursion

    F_{s+1} = dF_s/dz - (<dF_s/dz, conj F_s> / |F_s|^2) F_s,

but takes every derivative from the coefficients; the literal recursion
is retained as a finite-difference cross-check.  The unit vector in the
direction of Re(F_{n+1}) parametrizes a minimal spherical surface away
from the (isolated) points where the chain degenerates.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .domain import Domain
from .errors import DomainError, EvaluationError, SingularPointError
from .expr import (
    _canonical,
    _poly_integral,
    eval_expr,
    parse_expr,
    poly_coeffs,
    to_string,
)
from .fd import wirtinger

DEFAULT_EPS_SINGULAR = 1e-12

# A Taylor surrogate is accepted when its error on the circle is at most
# this times max(1, max|beta|), the absolute tolerance of the path
# quadrature in `expr.Antiderivative`
_SURROGATE_TOL = 1e-12
# Circle sample counts tried in turn; the surrogate degree stays below
# half the last one
_FFT_SIZES = (64, 128, 256, 512, 1024, 2048)


@dataclass
class AlphaChain:
    """The full chain as coefficient arrays; immutable after construction.

    alpha_coeffs[r] holds the ascending coefficients of the 2r+1
    components of the r-th map, jet_coeffs the n+1 derivative matrices
    (deg+1, 2n+1) of the final map.  surrogates describes the Taylor
    surrogate of every non-polynomial beta: its index, text, degree,
    rho and measured circle error.
    """

    n: int
    betas: tuple
    constants: tuple
    domain: Domain
    alpha_coeffs: tuple
    jet_coeffs: tuple
    surrogates: tuple

    @property
    def dim(self):
        return 2 * self.n + 1

    def jets_at(self, zs):
        """Holomorphic jet of the final chain map: array (B, n+1, 2n+1)
        of the k-th derivatives at each point of the flat array zs."""
        zs = np.asarray(zs, dtype=complex).ravel()
        out = np.empty((zs.size, self.n + 1, self.dim), dtype=complex)
        for k, coeffs in enumerate(self.jet_coeffs):
            out[:, k, :] = npoly.polyval(zs, coeffs).T
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
    is always the constant 1.  A non-polynomial beta must be analytic on
    the disk |z| <= rho around the domain; one whose Taylor surrogate
    misses the tolerance raises DomainError.  A chain whose coefficients
    leave double range raises EvaluationError at the first such level.
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

    rho = _taylor_radius(domain)
    multipliers, surrogates = [], []
    for index, beta in enumerate(betas):
        if beta.is_polynomial:
            multipliers.append(poly_coeffs(beta))
        else:
            coeffs, report = _taylor_surrogate(beta, rho)
            multipliers.append(coeffs)
            surrogates.append({"index": index, **report})
    multipliers.append(np.array([1 + 0j]))

    # beta_0 is integrated as it is, every later map in canonical form.
    # Overflow is refused level by level below, so numpy's warnings for
    # it are silenced
    alphas = [(multipliers[0],)]
    level = alphas[0]
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(level, "chain level 0")
        for r in range(n):
            phis = [
                _poly_integral(c, k, domain.base_point)
                for c, k in zip(level, constants[r])
            ]
            q = np.array([0j])
            for p in phis:
                q = _padded_sum(q, np.convolve(p, p))
            bc = multipliers[r + 1]
            comps = [
                np.convolve(bc, _padded_sum(np.array([1 + 0j]), -q)),
                np.convolve(bc, 1j * _padded_sum(np.array([1 + 0j]), q)),
            ]
            comps.extend(np.convolve(bc, 2 * p) for p in phis)
            _require_finite(comps, f"chain level {r + 1}")
            alphas.append(tuple(comps))
            level = [_canonical(c) for c in comps]

        top = alphas[n]
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
        _require_finite(mats, "chain jet")
    return AlphaChain(
        n=n,
        betas=betas,
        constants=constants,
        domain=domain,
        alpha_coeffs=tuple(alphas),
        jet_coeffs=tuple(mats),
        surrogates=tuple(surrogates),
    )


def _require_finite(arrays, what):
    """Refuse coefficients past double range (they are about z = 0)."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    finite = np.isfinite(flat)
    if not finite.all():
        largest = np.abs(flat[finite]).max(initial=0.0)
        raise EvaluationError(
            f"{what} has non-finite coefficients (largest finite "
            f"magnitude {largest:.3e})",
            0j,
        )


def _padded_sum(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a.astype(complex).copy()
    out[: len(b)] += b
    return out


def _taylor_radius(domain):
    """Largest |z| over the domain: the radius of the circle on which the
    Taylor surrogates are taken."""
    if domain.shape == "disk":
        return abs(domain.center) + domain.radius
    x0, x1, y0, y1 = domain.bounds
    return max(abs(complex(x, y)) for x in (x0, x1) for y in (y0, y1))


def _taylor_surrogate(beta, rho):
    """Taylor coefficients about z = 0 of a non-polynomial beta, and a
    report of the surrogate: its text, degree, rho and circle error.

    The coefficients c_k rho^k come from the trapezoid rule on the
    circle |z| = rho, an FFT of the samples (Trefethen & Weideman, SIAM
    Review 2014), and are chopped at their noise plateau.  The error is
    measured on the circle between the FFT nodes; by the maximum-modulus
    principle it bounds the error on the whole disk.  A surrogate whose
    error exceeds _SURROGATE_TOL * max(1, max|beta|) is refused with
    DomainError: beta is not analytic on the disk, or its series needs
    a degree beyond the largest sample count.
    """
    for size in _FFT_SIZES:
        # the FFT nodes interleaved with the midpoints between them
        w = rho * np.exp(1j * np.pi * np.arange(2 * size) / size)
        vals = eval_expr(beta, w)
        scaled = np.fft.fft(vals[::2])[: size // 2] / size
        keep = _chop(np.abs(scaled))
        if keep is not None:
            break
    else:
        keep = size // 2
    coeffs = scaled[:keep] / rho ** np.arange(keep)
    error = float(np.max(np.abs(npoly.polyval(w[1::2], coeffs) - vals[1::2])))
    bound = _SURROGATE_TOL * max(1.0, float(np.max(np.abs(vals))))
    text = to_string(beta)
    if not error <= bound:
        raise DomainError(
            f"beta {text} has no Taylor surrogate on |z| <= {rho:.6g}, where"
            f" it must be analytic: at degree {keep - 1} the circle error is"
            f" {error:.3e} (tolerance {bound:.3e})"
        )
    return coeffs, {"beta": text, "degree": keep - 1, "rho": rho,
                    "circle_error": error}


def _chop(b):
    """Number of leading coefficients to keep from the magnitudes b,
    cut where they reach their noise plateau at double precision, or
    None when they have not reached one (Aurentz & Trefethen, "Chopping
    a Chebyshev series", ACM TOMS 2017)."""
    tol = np.finfo(float).eps
    n = b.size
    env = np.maximum.accumulate(b[::-1])[::-1]
    if env[0] == 0:
        return 1
    env = env / env[0]
    # a plateau starts at the first j whose envelope falls by less than
    # a factor r between j and j2 (1-based, as in the paper)
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 3 * (1 - np.log(e1) / np.log(tol))
        plateau = (e1 == 0) | (e2 / e1 > r)
    if not plateau.any():
        return None
    first = int(np.argmax(plateau))
    point, j2 = int(j[first]) - 1, int(j2[first])
    if env[point - 1] == 0:
        return point
    # cut where the envelope, tilted towards the left end, is smallest
    floor = tol ** (7 / 6)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    tilted = np.log10(env[:j2]) + np.linspace(0, -np.log10(tol) / 3, j2)
    return max(int(np.argmin(tilted)), 1)


# ---------------------------------------------------------------------------
# Batched chain evaluation
# ---------------------------------------------------------------------------

class FChainBatch:
    """Chain data over a flat array of points: row i of `jets` (n+1, 2n+1)
    holds the holomorphic jet at z[i], row i of `F` the orthogonalized
    vectors F_1..F_{n+1}, `norms_sq` their squared norms, `singular`
    the degeneracy flag and `scale_sq` the largest squared jet norm, the
    reference scale of the degeneracy tests."""

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
    n = chain.n

    def field(zs):
        # F_1 is differentiated from the symbolic jet; it is in the field
        # so that a stencil touching a singular point masks its centre for
        # n = 1 as well
        batch = f_chain_eval(chain, zs, eps_singular)
        F = batch.F[:, :n].copy()
        F[batch.singular] = np.nan
        return F

    dfield = wirtinger(field, base.z, 1, 0, h=h, richardson=False)
    derivs = [base.jets[:, 1]] + [dfield[:, idx] for idx in range(1, n)]
    touched = ~np.isfinite(dfield).reshape(len(dfield), -1).all(axis=1)

    out = np.full(base.z.size, np.nan)
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


def surface_vectors(batch, eps_singular=DEFAULT_EPS_SINGULAR):
    """Unit vectors along the real part of the last chain vector at every
    point of the batch, and the mask of points where that real part
    collapses below the relative threshold.  Rows where the chain is
    singular or the real part collapses are NaN."""
    re = batch.F[:, -1, :].real
    # vecdot reduces each row with the same dot product as np.dot on the
    # row; a plain sum would round differently in the last bit
    nsq = np.vecdot(re, re)
    collapsed = nsq <= eps_singular * batch.scale_sq
    ok = ~(batch.singular | collapsed)
    g = np.full(re.shape, np.nan)
    g[ok] = re[ok] / np.sqrt(nsq[ok])[:, None]
    return g, collapsed


def require_regular(batch, collapsed):
    """Raise SingularPointError at the first point of the batch where the
    chain degenerates, else at the first where the surface normalization
    collapses."""
    if np.any(batch.singular):
        bad = batch.z[np.argmax(batch.singular)]
        raise SingularPointError("chain degenerates", complex(bad))
    if np.any(collapsed):
        bad = batch.z[np.argmax(collapsed)]
        raise SingularPointError("surface normalization degenerates", complex(bad))


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
    norms = np.full((R * C, chain.n + 1), np.nan)

    if flat_idx.size:
        batch = f_chain_eval(chain, zs.ravel()[flat_idx], eps_singular)
        g, collapsed = surface_vectors(batch, eps_singular)
        norms[flat_idx] = batch.norms_sq
        singular[flat_idx] = batch.singular | collapsed
        surface[flat_idx] = g
    valid = inside.ravel() & ~singular
    return GridScan(
        zs=zs,
        inside=inside,
        singular=singular.reshape(R, C),
        valid=valid.reshape(R, C),
        surface=surface.reshape(R, C, d),
        norms_sq=norms.reshape(R, C, chain.n + 1),
    )
