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

The final map is cut to its significant rows: the fewest leading rows
such that, for every derivative and component, the dropped terms sum to
at most 2^-53 of sum_i |c_i| rho^i.  On the disk |z| <= rho around the
domain this is within the rounding error of Horner's rule on the whole
polynomial.  A polynomial chain loses the exact zero rows that the
cancellations of isotropy leave at its tail, and nonzero rows only where
they too fall under the bound, as in the dense map of (1+0.5*z)^300 at
n = 2.  The holomorphic jet of the cut map is one stacked coefficient
array, row i the z^i coefficients of every derivative, and a batch of
points takes all n+1 derivatives in one Horner pass over its rows.

At a point, the holomorphic jet of the final map is orthogonalized under
the Hermitian product (modified Gram-Schmidt with one reorthogonalization
pass), producing the chain F_1..F_{n+1}.  This is analytically identical
to the recursion

    F_{s+1} = dF_s/dz - (<dF_s/dz, conj F_s> / |F_s|^2) F_s,

but takes every derivative from the coefficients; the literal recursion
is retained as a finite-difference cross-check.  Every finite-difference
derivative of the chain, there and in the checks of the surface, is read
by the reader of `stencil_batch`, the one replay.  The unit vector in the
direction of Re(F_{n+1}) parametrizes a minimal spherical surface away
from the (isolated) points where the chain degenerates.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .domain import Domain
from .errors import (
    DegenerateSurfaceError,
    DomainError,
    EvaluationError,
    SingularPointError,
)
from .expr import (
    _canonical,
    _padded_sum,
    _poly_integral,
    eval_expr,
    parse_expr,
    poly_coeffs,
)
from .fd import default_step, derivatives, replayed, stencil_size, stencil_table
from .products import _dot, _max0

DEFAULT_EPS_SINGULAR = 1e-12

# A Taylor surrogate is accepted when its error on the circle is at most
# this times max(1, max|beta|)
_SURROGATE_TOL = 1e-12
# Circle sample counts tried in turn; the surrogate degree stays below
# half the last one
_FFT_SIZES = (64, 128, 256, 512, 1024, 2048)
# Points per chain evaluation of `_sweep` (`scan_grid`, and the centres
# and stencils of `verify_all` and `kaehler_immersion_check`): only one
# block's jets, Gram-Schmidt vectors and reads are held at a time
_SCAN_BLOCK = 8192


@dataclass
class AlphaChain:
    """The full chain as coefficient arrays; immutable after construction.

    alpha_coeffs[r] holds the ascending coefficients of the 2r+1
    components of the r-th map; the final map's are cut to its
    significant rows (see the module docstring), so that the dropped
    terms of each polynomial of its jet sum to at most 2^-53 of that
    polynomial's Horner condition sum at any |z| <= rho.  jet_coeffs is
    one array (deg+1, n+1, 2n+1) for the whole jet of that cut map: row
    i holds the z^i coefficient of every component of every derivative
    k, and the rows past the end of derivative k are zero.  betas holds
    the expression text of each beta as given.  surrogates describes the
    Taylor surrogate of every non-polynomial beta: its index, text,
    degree, rho and measured circle error.  eps_singular is
    the degeneracy threshold of every evaluation (`f_chain_eval`).
    """

    n: int
    betas: tuple
    constants: tuple
    domain: Domain
    alpha_coeffs: tuple
    jet_coeffs: np.ndarray
    surrogates: tuple
    eps_singular: float

    @property
    def dim(self):
        return 2 * self.n + 1

    def jets_at(self, zs):
        """Holomorphic jet of the final chain map: array (B, n+1, 2n+1)
        of the k-th derivatives at each point of the flat array zs.

        One Horner pass over the rows of jet_coeffs evaluates every
        derivative, with the operations of `numpy.polynomial.polynomial.
        polyval` on each element: the zero rows above derivative k leave
        the accumulator at +0, so its first row computes c + 0*z as
        polyval's c + z*0 does, and the result is the same to the bit.
        A point is refused with EvaluationError where a real or imaginary
        part of its jet is not finite or exceeds sqrt(max / (2 dim)), the
        largest part whose squared row norms stay finite; numpy's warnings
        for the overflow are silenced."""
        zs = np.asarray(zs, dtype=complex).ravel()
        rows = self.jet_coeffs.reshape(len(self.jet_coeffs), -1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            acc = rows[-1] + zs * 0
            for row in rows[-2::-1]:
                acc *= zs
                acc += row
        # C order: the reductions downstream round strided rows differently
        out = np.ascontiguousarray(acc.T).reshape(zs.size, self.n + 1, self.dim)
        bound = np.sqrt(np.finfo(float).max / (2 * self.dim))
        parts = out.view(float)
        # NaN fails the comparisons as well
        if out.size and not -bound <= parts.min() <= parts.max() <= bound:
            within = np.abs(parts.reshape(zs.size, -1)) <= bound
            bad = np.argmin(within.all(axis=1))
            raise EvaluationError("non-finite chain value or squared norm",
                                  complex(zs[bad]))
        return out


def build_alpha_chain(betas, constants=None, domain=None,
                      eps_singular=DEFAULT_EPS_SINGULAR):
    """Construct the chain from n holomorphic functions.

    betas: sequence of n expression strings (beta_0..beta_{n-1}), kept
    as given in `AlphaChain.betas` and quoted so in the surrogate report
    and its refusal.
    constants: per-step integration constants, constants[r] a sequence of
    2r+1 complex numbers (defaults to all zeros).  The final multiplier
    is always the constant 1.  A non-polynomial beta must be analytic on
    the disk |z| <= rho around the domain; one whose Taylor surrogate
    misses the tolerance raises DomainError.  A chain whose coefficients
    leave double range raises EvaluationError at the first such level.
    eps_singular is the chain's degeneracy threshold: a point is singular
    where a squared chain norm, or the squared real part of F_{n+1},
    falls to eps_singular times the largest squared jet norm there.
    """
    betas = tuple(betas)
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
    for index, text in enumerate(betas):
        beta = parse_expr(text)
        try:
            multipliers.append(poly_coeffs(beta))
        except ValueError:    # a division or an entire function
            coeffs, report = _taylor_surrogate(beta, text, rho)
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

        jet = _jet(alphas[n], n)
        _require_finite([jet], "chain jet")
    # The jet of the cut map: derivative k keeps the rows below rows - k
    rows = _significant_rows(jet, rho)
    alphas[n] = tuple(c[:rows] for c in alphas[n])
    jet = jet[:rows]
    for k in range(1, n + 1):
        jet[max(rows - k, 0):, k] = 0
    return AlphaChain(
        n=n,
        betas=betas,
        constants=constants,
        domain=domain,
        alpha_coeffs=tuple(alphas),
        jet_coeffs=jet,
        surrogates=tuple(surrogates),
        eps_singular=eps_singular,
    )


def _jet(top, n):
    """The jet array (deg+1, n+1, 2n+1) of the map with components top."""
    jet = np.zeros((max(len(c) for c in top), n + 1, 2 * n + 1), dtype=complex)
    for c, col in enumerate(top):
        jet[: len(col), 0, c] = col
    rows = len(jet)
    for k in range(1, min(n + 1, rows)):
        # row i of derivative k is i + 1 times row i + 1 of derivative k - 1
        factors = np.arange(1, rows - k + 1)[:, None]
        jet[:rows - k, k] = jet[1:rows - k + 1, k - 1] * factors
    return jet


def _significant_rows(jet, rho):
    """Number of leading rows of the top map to keep: the fewest L such
    that, for every derivative k and component c, the dropped rows
    i >= L - k of the jet have a rho-scaled sum sum_i |J[i,k,c]| rho^i
    within 2^-53 of that of the whole polynomial.  On |z| <= rho this is
    below the rounding error of Horner's rule (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 5.1).  The weights
    are taken in logarithms, since rho^i overflows on wide domains."""
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(jet))
    logw += np.log(rho) * np.arange(len(jet))[:, None, None]
    top = logw.max(axis=0)
    w = np.exp(logw - np.where(np.isfinite(top), top, 0.0))
    tails = np.cumsum(w[::-1], axis=0)[::-1]
    # tails fall from row to row, so the rows above the bound lead
    keep = np.sum(tails > 2.0 ** -53 * tails[0], axis=0)
    return int(np.max(keep + np.arange(jet.shape[1])[:, None]))


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


def _taylor_radius(domain):
    """Largest |z| over the domain: the radius of the circle on which the
    Taylor surrogates are taken."""
    if domain.shape == "disk":
        return abs(domain.center) + domain.radius
    x0, x1, y0, y1 = domain.bounds
    return max(abs(complex(x, y)) for x in (x0, x1) for y in (y0, y1))


def _taylor_surrogate(beta, text, rho):
    """Taylor coefficients about z = 0 of a non-polynomial beta (the tree
    parsed from `text`), and a report of the surrogate: that text, its
    degree, rho and circle error.

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
    """Chain data over a flat array of points, built from their jets.

    Row i of `jets` (n+1, 2n+1) holds the holomorphic jet at z[i], row i
    of `F` the orthogonalized vectors F_1..F_{n+1}, `norms_sq` their
    squared norms, `singular` the degeneracy flag and `scale_sq` the
    largest squared jet norm, the reference scale of the degeneracy
    tests.  `g` holds the surface: the unit vector along Re(F_{n+1}),
    the package's one surface normalization; `collapsed` marks points
    where that real part falls below the relative threshold, and `g` is
    NaN wherever the point is not `ok`."""

    __slots__ = ("z", "jets", "F", "norms_sq", "singular", "scale_sq", "g",
                 "collapsed")

    def __init__(self, z, jets, eps_singular=DEFAULT_EPS_SINGULAR):
        self.z = z
        self.jets = jets
        # through the module global, so that a wrapper bound there is seen
        self.F, self.norms_sq, self.scale_sq, self.singular = _gram_schmidt(
            jets, eps_singular)
        re = self.F[:, -1, :].real
        # vecdot reduces each row with the same dot product as np.dot on the
        # row; a plain sum would round differently in the last bit
        nsq = np.vecdot(re, re)
        self.collapsed = nsq <= eps_singular * self.scale_sq
        ok = self.ok
        self.g = np.full(re.shape, np.nan)
        self.g[ok] = re[ok] / np.sqrt(nsq[ok])[:, None]

    @property
    def ok(self):
        """Where both the chain and the surface normalization are regular."""
        return ~(self.singular | self.collapsed)

    def __getitem__(self, rows):
        """The batch of the points z[rows], as views where rows is a slice."""
        part = object.__new__(FChainBatch)
        for name in self.__slots__:
            setattr(part, name, getattr(self, name)[rows])
        return part


def _gram_schmidt(jets, eps_singular):
    """Hermitian modified Gram-Schmidt over a batch of jets (B, m, d),
    with one reorthogonalization pass.  Rows with collapsed norms are
    flagged singular instead of raising."""
    B, m, d = jets.shape
    # F[j] holds chain vector j of every row as one contiguous (B, d) block
    F = np.empty((m, B, d), dtype=jets.dtype)
    norms = np.zeros((B, m))
    scale_sq = np.max(np.sum(np.abs(jets) ** 2, axis=2), axis=1)
    # per column j, once for all the projections onto it: where its norm
    # is positive, and the norm with 1 in place of zero
    positive, safe = [], []
    for s in range(m):
        v = jets[:, s].copy()
        for _ in range(2):
            for j in range(s):
                coef = np.einsum("bd,bd->b", v, np.conj(F[j])) / safe[j]
                coef = np.where(positive[j], coef, 0.0)
                v -= coef[:, None] * F[j]
        F[s] = v
        norms[:, s] = np.sum(np.abs(v) ** 2, axis=1)
        positive.append(norms[:, s] > 0)
        safe.append(np.where(positive[s], norms[:, s], 1.0))
    singular = np.any(norms <= eps_singular * scale_sq[:, None], axis=1)
    return F.transpose(1, 0, 2), norms, scale_sq, singular


def f_chain_eval(chain, zs):
    """Batched chain evaluation at a flat array of in-domain points, with
    the chain's own degeneracy threshold `chain.eps_singular`."""
    zs = np.asarray(zs, dtype=complex).ravel()
    slack = -1e-12 * chain.domain.diameter
    inside = chain.domain.contains(zs, margin=slack)
    if not np.all(inside):
        bad = zs[np.argmin(inside)]
        raise DomainError(f"point {bad} is outside the chain domain")
    return FChainBatch(zs, chain.jets_at(zs), chain.eps_singular)


def recursion_crosscheck(chain, z):
    """Maximum relative deviation between the Gram-Schmidt chain vectors
    and the literal first-order recursion, with the finite-difference
    Wirtinger derivative of each (non-holomorphic) chain field read from
    a `stencil_batch`.  The first step is holomorphic, so its derivative
    comes from the symbolic jet and agrees to roundoff.
    """
    h = default_step(chain.domain.diameter, 1)
    batch, derivs = stencil_batch(chain, np.array([z]), [(0.0, h, (1, 0))])
    if batch.singular[0]:
        raise SingularPointError("chain degenerates", z)
    dfield, = derivs(stencil_rows)
    worst = recursion_residuals(batch[:1], dfield[:, 1:chain.n + 1])[0]
    if np.isnan(worst):
        raise SingularPointError("chain degenerates on the stencil", z)
    return float(worst)


def recursion_residuals(base, dF):
    """`recursion_crosscheck` at every point of the non-singular batch
    `base`, from dF (B, n, 2n+1), the finite-difference z-derivatives of
    F_1..F_n there.  The derivative of F_1 is taken from the jet; its
    finite difference only masks: points where a row of dF is not
    finite, because the stencil touches a singular point, get NaN."""
    n = dF.shape[1]
    rows = np.flatnonzero(np.isfinite(dF).reshape(len(dF), -1).all(axis=1))
    # the derivative of F_s for s = 1..n along axis 1
    derivs = np.concatenate([base.jets[rows, 1][:, None], dF[rows, 1:]], axis=1)
    F, norms_sq = base.F[rows], base.norms_sq[rows, :n]
    coef = _dot(derivs, np.conj(F[:, :n])) / norms_sq
    literal = derivs - coef[..., None] * F[:, :n]
    ref = F[:, 1:]
    out = np.full(base.z.size, np.nan)
    out[rows] = _max0(np.linalg.norm(literal - ref, axis=-1)
                      / np.linalg.norm(ref, axis=-1))
    return out


def stencil_rows(batch):
    """The field that every finite-difference check of the chain
    differentiates, at the points of a batch: complex (B, 2n, 2n+1)
    holding, in order, the surface vector `g`, F_1..F_n and
    conj(F_2)..conj(F_n).  The chain vectors are NaN where the chain
    degenerates, the surface vector also where its normalization
    collapses, so a stencil touching such a point masks exactly the
    derivatives of the parts it concerns."""
    n = batch.F.shape[1] - 1
    F = batch.F[:, :n].copy()
    F[batch.singular] = np.nan
    return np.concatenate([batch.g[:, None], F, np.conj(F[:, 1:])], axis=1)


def stencil_batch(chain, centres, reads):
    """The one replay of the chain's derivatives: (batch, derivs), one
    chain evaluation at the array of centres, then at every further point
    that the (margin, step, order) reads of `fd.derivatives` ask for
    there, and its reader: `derivs(rows)` gives the reads at the centres
    of the field `rows(batch)`, NaN where a centre is not `ok` or a
    stencil does not fit its margin."""
    points, plan = stencil_table(centres, reads, chain.domain)
    # through the module global, so that a wrapper bound there sees it
    batch = f_chain_eval(chain, points)
    ok = batch.ok[:centres.size]

    def derivs(rows):
        field = replayed(points, rows(batch), plan, ok)
        return derivatives(field, centres, reads, chain.domain, where=ok)

    return batch, derivs


def require_regular(batch):
    """Raise SingularPointError at the first point of the batch where the
    chain degenerates, else at the first where the surface normalization
    collapses."""
    if np.any(batch.singular):
        bad = batch.z[np.argmax(batch.singular)]
        raise SingularPointError("chain degenerates", complex(bad))
    if np.any(batch.collapsed):
        bad = batch.z[np.argmax(batch.collapsed)]
        raise SingularPointError("surface normalization degenerates", complex(bad))


@dataclass
class GridScan:
    """Row-major chain evaluation over a rectangular sample grid.

    `surface` holds the rows of the map read at each point (the surface
    unless `scan_grid` was given another read), NaN wherever `valid` is
    False; `singular` marks degeneracies of the chain or of the surface
    normalization, `inside` membership in the domain (relevant for
    disks, whose grid spans the bounding box).
    """

    zs: np.ndarray        # (R, C) complex
    inside: np.ndarray    # (R, C) bool
    singular: np.ndarray  # (R, C) bool
    valid: np.ndarray     # (R, C) bool: inside, non-singular, normalizable
    surface: np.ndarray   # (R, C, 2n+1) float: the map read

    @property
    def shape(self):
        return self.zs.shape

    @classmethod
    def scatter(cls, zs, inside, ok, g):
        """The scan of the grid zs from the regularity flags ok and the
        surface rows g (NaN where not ok) at its inside points
        zs[inside], in row-major order."""
        valid = np.zeros(zs.shape, dtype=bool)
        valid[inside] = ok
        surface = np.full(zs.shape + g.shape[1:], np.nan)
        surface[inside] = g
        return cls(zs=zs, inside=inside, singular=inside & ~valid, valid=valid,
                   surface=surface)


def _surface(batch):
    """`scan_grid`'s default read: the flags and surface rows of a batch."""
    return batch.ok, batch.g


def scan_grid(chain, rows, cols, read=_surface):
    """Evaluate the chain over a rows x cols grid of the domain and read a
    map at its inside points: `read(batch)` returns (ok, values) at the
    points of a chain batch, by default the surface, and the result holds
    the values as its `surface`.  Grid order is row-major; degenerate
    points are masked, but a grid whose inside points are all singular
    is refused (see `_sweep`, which sweeps the points in blocks of
    _SCAN_BLOCK).
    """
    zs, inside, (ok, values) = _sweep(chain, rows, cols, read)
    return GridScan.scatter(zs, inside, ok, values)


def _sweep(chain, rows, cols, read, margin=0.0, name="grid", reads=None,
           centres=None):
    """The one loop over the blocks of a grid: (zs, inside, outputs).

    The inside points of the rows x cols grid (shrunk by `margin`, as
    `Domain.grid` does) are evaluated a block at a time, in row-major
    order, and `read(batch)` turns each block's chain batch into a tuple
    of per-point arrays, which fill the outputs row by row.

    With `reads`, the (margin, step, order) reads of `fd.derivatives`,
    a block's one chain evaluation is a `stencil_batch`: its centres
    first, then the further points that the reads ask for there, and
    `read(batch[:k], derivs)` gets the batch of its k centres and the
    reader `derivs` of that evaluation.  A block holds as many
    centres as keep its evaluation within _SCAN_BLOCK points, and at most
    `centres` of them when that is given, but at least one.

    Only one block's data is held at a time, and each point is evaluated
    on its own, so the block size changes no bit of the outputs.  A grid
    with no inside point raises DomainError, which calls it `name`, and
    one whose inside points are all singular DegenerateSurfaceError.
    """
    zs, inside = chain.domain.grid(rows, cols, margin=margin)
    pts = zs[inside]
    if not pts.size:
        raise DomainError(f"no point of the {rows}x{cols} {name} lies inside the "
                          "domain")
    # the chain points per centre, at most
    width = 1 if reads is None else 1 + stencil_size(reads)
    block = max(1, min(_SCAN_BLOCK // width, centres or pts.size))
    outputs, singular = None, 0
    for start in range(0, pts.size, block):
        part = slice(start, start + block)
        here = pts[part]
        count = here.size
        if reads is None:
            # through the module global, so that a wrapper bound there
            # sees every block
            batch, derivs = f_chain_eval(chain, here), None
            found = read(batch)
        else:
            batch, derivs = stencil_batch(chain, here, reads)
            found = read(batch[:count], derivs)
        singular += int(np.count_nonzero(batch.singular[:count]))
        if outputs is None:
            outputs = [np.empty((pts.size,) + a.shape[1:], a.dtype) for a in found]
        for out, a in zip(outputs, found):
            out[part] = a
        # free the block's evaluation, the reader that holds it, and reads
        del batch, derivs, found, a
    if singular == pts.size:
        raise DegenerateSurfaceError(
            f"nothing to evaluate: {singular} of the {pts.size} grid points "
            "inside the domain are singular")
    return zs, inside, outputs
