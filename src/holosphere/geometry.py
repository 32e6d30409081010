"""Residual checks for every geometric invariant of chain surfaces.

Each statement about the chain (isotropy and Hermitian orthogonality of
its vectors, collinearity of the final pair, the conjugate-descent
identity, minimality of the surface, vanishing symmetric products of the
derivatives, the tangent/higher fundamental-form formulas, circularity
of the curvature ellipses) is turned into a number: a scale-normalized
residual that is zero in exact arithmetic.  `verify_all` sweeps a grid,
aggregates per-family maxima, and classifies PASS/FAIL against supplied
tolerances.

Tolerances are tiered by computation path: identities evaluated through
the symbolic chain are held to 1e-9 (relative), first-order finite
differences to 1e-5, second and higher order to 1e-4.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from .chain import (
    GridScan,
    f_chain_eval,
    recursion_residuals,
    require_regular,
    stencil_field,
)
from .domain import Domain
from .errors import (
    DegenerateSurfaceError,
    DomainError,
    SingularPointError,
)
from .expr import _canonical, _poly_integral
from .fd import default_step, stencil_halfwidth, wirtinger
from .products import (
    _abs,
    _cmul,
    _complex,
    _dot,
    _max0,
    _norm,
    _pair_minors_max,
    _square,
    principal_angles,
)

DEFAULT_TOLERANCES = {
    "isotropy": 1e-9,
    "hermitian_orthogonality": 1e-9,
    "collinearity": 1e-9,
    "fbar_identity": 1e-5,
    "recursion": 1e-5,
    "minimality": 1e-5,
    "tangent_formula": 1e-5,
    "circularity": 1e-9,
    "calabi": 1e-4,
}

_DEGENERATE_DIFFERENTIAL = 1e-8


@dataclass
class SurfaceEvaluator:
    """A black-box unit-sphere surface: a pure map from points of the
    domain to unit vectors, batched over numpy arrays.

    A chain surface (`from_chain`) returns the surface `g` of its chain
    batch, the package's one surface normalization, and raises at
    degenerate points.  The checks of `verify_all` differentiate
    `chain.stencil_field` instead, which masks them.
    """

    func: object          # zs (B,) complex -> (B, dim) float
    domain: Domain
    dim: int
    n: int = None         # chain length when known (dim == 2n+1)

    def __call__(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        return np.asarray(self.func(zs), dtype=float)

    def step(self, order=1):
        """The default finite-difference step of the given order."""
        return default_step(self.domain.diameter, order)

    @classmethod
    def from_chain(cls, chain):
        def func(zs):
            batch = f_chain_eval(chain, zs)
            require_regular(batch)
            return batch.g

        return cls(func=func, domain=chain.domain, dim=chain.dim, n=chain.n)


def minimality_residual(g, z):
    """Norm of the component of the Laplacian orthogonal to the surface
    and to the sphere position, normalized by the first-derivative
    energy.  Vanishes (to FD accuracy) exactly for minimal surfaces.
    """
    h = g.step(1)
    if not g.domain.contains(z, margin=stencil_halfwidth(2, h)):
        raise DomainError(f"stencil at z={z} leaves the domain")
    zs = np.array([z])
    dg, lap = wirtinger(g, zs, [(1, 0), (1, 1)], h=h)
    resid, energy = minimality_residuals(g(zs), dg, lap)
    if energy[0] < _DEGENERATE_DIFFERENTIAL:
        raise DegenerateSurfaceError(f"degenerate differential at z={z}")
    return float(resid[0])


def minimality_residuals(gz, dg, lap):
    """`minimality_residual` at an array of centres, from the surface
    vectors gz there and the Wirtinger derivatives dg = d/dz and lap =
    d^2/dz dconj(z) (a quarter of the Laplacian).  Returns (residuals,
    energies): both are NaN where a row of the input is not finite, and
    a residual is NaN where the differential degenerates.
    """
    gx, gy = 2.0 * dg.real, -2.0 * dg.imag
    resid = np.full(len(gz), np.nan)
    energy = np.full(len(gz), np.nan)
    rows = np.flatnonzero(_finite_rows(gz, dg, lap.real))
    energy[rows] = np.vecdot(gx[rows], gx[rows]) + np.vecdot(gy[rows], gy[rows])
    rows = rows[energy[rows] >= _DEGENERATE_DIFFERENTIAL]
    if rows.size:
        basis = np.stack([gz[rows], gx[rows], gy[rows]], axis=2)
        # the quarter Laplacian, as strided real rows
        r = _normal_part(np.linalg.qr(basis)[0], lap[rows].real)
        resid[rows] = _norm(r) / energy[rows]
    return resid, energy


def _normal_part(q, v):
    """v minus its projection onto the columns of q, row by row: the
    stacked form of `v - q @ (q.T @ v)`."""
    return v - (q @ (np.swapaxes(q, -1, -2) @ v[..., None]))[..., 0]


def calabi_check(g, max_order, z):
    """Table of |<d^j g, d^k g>| (symmetric product of iterated Wirtinger
    z-derivatives) for all 0 < j+k <= max_order.

    FD noise makes orders beyond 4 meaningless in double precision, so
    max_order must be <= 4.  Step sizes scale with the derivative order.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("max_order must be between 1 and 4")
    top_h = default_step(g.domain.diameter, max_order)
    if not g.domain.contains(z, margin=stencil_halfwidth(max_order, top_h)):
        raise DomainError(f"stencil at z={z} leaves the domain")
    zs = np.array([z])
    derivs = wirtinger(g, zs, [(j, 0) for j in range(1, max_order + 1)],
                       diameter=g.domain.diameter)
    pairs, values = _calabi_values([g(zs).astype(complex)] + derivs)
    return _calabi_table(pairs, values[0].tolist())


def _calabi_pairs(max_order):
    """The (j, k) of a table with j <= k and 0 < j + k <= max_order."""
    return [(j, k) for j in range(max_order + 1) for k in range(j, max_order + 1)
            if 0 < j + k <= max_order]


def _calabi_values(derivs):
    """The entries of the symmetric-derivative tables at an array of
    centres, from derivs[j], the j-th z-derivative of the surface there
    (j = 0..max_order): the table's pairs and the entries as an array
    (centre, pair), NaN rows at the centres where a derivative is not
    finite."""
    pairs = _calabi_pairs(len(derivs) - 1)
    rows = np.flatnonzero(_finite_rows(*derivs))
    values = np.full((len(derivs[0]), len(pairs)), np.nan)
    for p, (j, k) in enumerate(pairs):
        values[rows, p] = _abs(_dot(derivs[j][rows], derivs[k][rows]))
    return pairs, values


def _calabi_table(pairs, row):
    """The symmetric table {(j, k): value} of one row of table entries."""
    table = {}
    for (j, k), val in zip(pairs, row):
        table[(j, k)] = val
        table[(k, j)] = val
    return table


def _finite_rows(*arrays):
    """Whether each row (leading index) of every array is all finite."""
    return np.all(
        [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in arrays], axis=0
    )


def chain_fundamental_form(batch, i, s=0):
    """Value of the order-(s+1) fundamental form of the surface along the
    repeated z-direction at point i of the chain batch, via the closed
    chain formula from the batch's chain vectors and surface `g`.

    s = 0 returns the tangent vector dg/dz; 1 <= s <= n-1 returns the
    higher forms, which are isotropic multiples of the conjugated chain
    vectors.
    """
    n = batch.F.shape[1] - 1
    if batch.singular[i]:
        raise SingularPointError("chain degenerates", complex(batch.z[i]))
    if not 0 <= s <= n - 1:
        raise ValueError(f"order s={s} out of range [0, {n - 1}]")
    return _fundamental_forms(batch.F[[i]], batch.norms_sq[[i]], batch.g[[i]],
                              [s])[0, 0]


def _fundamental_forms(F, norms_sq, g, orders):
    """`chain_fundamental_form` at every row of chain vectors F (B, n+1,
    d) with squared norms (B, n+1) and surface vectors g (B, d), for each
    order s of `orders`: shape (B, len(orders), d).

    The coefficient (-1)^(s+1) <g, F_{n+1}> / |F_{n-s}|^2 is rounded as
    the Python complex scalar it was: the sign as the complex number
    (sign, 0), the division by the real norm as by (norm, 0)."""
    n = F.shape[1] - 1
    pairing = _dot(g.astype(complex), F[:, -1])
    forms = np.empty((F.shape[0], len(orders), F.shape[2]), dtype=complex)
    for o, s in enumerate(orders):
        re, im = _cmul(float((-1) ** (s + 1)), 0.0, pairing.real, pairing.imag)
        r = norms_sq[:, n - s - 1]
        coeff = _complex((re + im * 0.0) / r, (im - re * 0.0) / r)
        forms[:, o] = coeff[:, None] * np.conj(F[:, n - s - 1])
    return forms


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
    dg, d2 = wirtinger(g, z, [(1, 0), (2, 0)], h=g.step(1))
    basis = np.stack([g(np.array([z]))[0], 2.0 * dg.real, -2.0 * dg.imag], axis=1)
    q, _ = np.linalg.qr(basis)
    v1 = d2 - q.astype(complex) @ (q.T.astype(complex) @ d2)
    F = f_chain_eval(chain, np.array([z])).F[0]
    fd_basis = np.stack([v1, np.conj(v1)], axis=1)
    chain_basis = np.stack([F[chain.n - 2], np.conj(F[chain.n - 2])], axis=1)
    return float(principal_angles(fd_basis, chain_basis).max())


# ---------------------------------------------------------------------------
# Full verification sweep
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsReport:
    """The result of `verify_all`.

    `residuals` maps each family that applies to its residuals at the
    inside points of `scan`, in row-major order: one float array, NaN
    exactly where the family was not evaluated.  `calabi` holds the
    symmetric-derivative tables as (pairs, values): the (j, k) pairs with
    j <= k and the entries per point (inside points, pairs), NaN rows
    where the table was not evaluated.  `grids()` scatters the residuals
    onto the scan's grid.
    """

    n: int
    rows: int
    cols: int
    tolerances: dict
    residuals: dict     # family -> (inside points,) float, NaN: not evaluated
    calabi: tuple       # (pairs, (inside points, pairs) float)
    summary: dict
    worst_point: dict
    status: dict
    passed: bool
    singular_count: int
    scan: GridScan
    counts: dict = field(default_factory=dict)  # family -> evaluated/skipped
    surrogates: list = field(default_factory=list)  # AlphaChain.surrogates

    def failures(self):
        return [f for f, s in self.status.items() if s == "FAIL"]

    def grids(self):
        """{family: residuals on the scan's (R, C) grid}, NaN outside the
        domain and where the family was not evaluated."""
        found = {}
        for fam, values in self.residuals.items():
            found[fam] = np.full(self.scan.shape, np.nan)
            found[fam][self.scan.inside] = values
        return found

    def _points(self):
        """The JSON record of every inside point of the scan."""
        inside = self.scan.inside
        zs = self.scan.zs[inside]
        columns = [(fam, values.tolist(), (~np.isnan(values)).tolist())
                   for fam, values in self.residuals.items()]
        pairs, values = self.calabi
        tables = [_calabi_table(pairs, row) if found else {} for row, found in
                  zip(values.tolist(), (~np.isnan(values).all(axis=1)).tolist())]
        return [
            {
                "z": [re, im],
                "singular": singular,
                "residuals": {fam: col[i] for fam, col, keep in columns if keep[i]},
                "calabi": {f"{j},{k}": v for (j, k), v in tables[i].items()},
            }
            for i, (re, im, singular) in enumerate(zip(
                zs.real.tolist(), zs.imag.tolist(), self.scan.singular[inside].tolist()))
        ]

    def to_dict(self):
        doc = {
            "n": self.n,
            "grid": {"rows": self.rows, "cols": self.cols},
            "tolerances": dict(sorted(self.tolerances.items())),
            "summary": {
                k: self.summary[k] for k in sorted(self.summary)
            },
            "worst_point": {
                k: [v.real, v.imag]
                for k, v in sorted(self.worst_point.items())
            },
            "status": dict(sorted(self.status.items())),
            "passed": self.passed,
            "singular_count": self.singular_count,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "points": self._points(),
        }
        if self.surrogates:
            doc["surrogates"] = self.surrogates
        return doc


def _apply_perturbation(F, perturb):
    """Deterministic fault injection: nudge one chain vector toward the
    first one, breaking Hermitian orthogonality by the given magnitude.
    F holds the chain vectors of one point (n+1, d) or of a batch of
    points (B, n+1, d)."""
    target = perturb.get("target", "F2")
    magnitude = float(perturb.get("magnitude", 1e-3))
    idx = int(target.lstrip("F")) - 1
    F = F.copy()
    direction = F[..., 0, :] / _norm(F[..., 0, :])[..., None]
    scale = magnitude * _norm(F[..., idx, :])
    F[..., idx, :] = F[..., idx, :] + scale[..., None] * direction
    return F


class _Sweep:
    """The in-domain points of a verification grid, with their chain data
    evaluated in one call, and the settings the families share.

    `ok` marks points where both the chain and the surface normalization
    are regular; `field` is the chain's stencil field, which every FD
    family differentiates.
    """

    def __init__(self, chain, zs, h, calabi_order, perturb):
        self.chain = chain
        self.z = zs
        self.h = h
        self.calabi_order = calabi_order
        self.batch = f_chain_eval(chain, zs)
        self.regular = ~self.batch.singular
        # chain vectors of the algebraic families, perturbed if asked
        self.F = self.batch.F
        if perturb:
            self.F = self.F.copy()
            self.F[self.regular] = _apply_perturbation(self.F[self.regular], perturb)
        self.norms = np.sqrt(np.sum(np.abs(self.F) ** 2, axis=2))
        self.g = self.batch.g
        self.ok = self.batch.ok
        self.field = stencil_field(chain)
        # (centre margin, step, order) of each field derivative read: the
        # FD families' at step h, the Calabi table's at its default steps
        margin = stencil_halfwidth(1, h)
        self.fd_plan = [(margin, h, (1, 0)), (margin, h, (1, 1))]
        steps = [default_step(chain.domain.diameter, j)
                 for j in range(1, calabi_order + 1)]
        self.calabi_plan = [(stencil_halfwidth(calabi_order, steps[-1]), step, (j, 0))
                            for j, step in enumerate(steps, 1)]

    def each(self, mask, rows):
        """Residuals from rows(idx) at the points idx of the mask; NaN
        elsewhere."""
        values = np.full(self.z.size, np.nan)
        idx = np.flatnonzero(mask)
        if idx.size:
            values[idx] = rows(idx)
        return values

    def centres(self, margin):
        """The `ok` points whose stencil of the given half-width fits."""
        return np.flatnonzero(
            self.ok & self.chain.domain.contains(self.z, margin=margin)
        )

    @cached_property
    def stencils(self):
        """Every derivative of the stencil field that the FD families
        read, by (step, order): (centres, values) over the centres of the
        smallest margin that reads the step, with one `wirtinger` call
        per distinct step.  The centres of a larger margin are a subset,
        and `wirtinger` gives each centre the arithmetic of a call with
        it alone, so every family reads its rows from that call."""
        plan = {}
        for margin, step, order in self.fd_plan + self.calabi_plan:
            margins, orders = plan.setdefault(step, ([], {}))
            margins.append(margin)
            orders[order] = None
        found = {}
        for step, (margins, orders) in plan.items():
            idx = self.centres(min(margins))
            derivs = wirtinger(self.field, self.z[idx], list(orders), h=step)
            found.update(((step, o), (idx, d)) for o, d in zip(orders, derivs))
        return found

    def derivative(self, margin, step, order):
        """The field derivative of `stencils` at the centres of the margin."""
        idx, values = self.stencils[step, order]
        return values[np.searchsorted(idx, self.centres(margin))]

    @cached_property
    def fd(self):
        """(centres, d/dz, d^2/dz dconj(z)) of the field for the FD
        families, at step h."""
        return (self.centres(self.fd_plan[0][0]),
                *(self.derivative(*key) for key in self.fd_plan))

    @property
    def calabi_fd(self):
        """(centres, derivs) of the Calabi table: derivs[j] is the j-th
        z-derivative of the surface there, derivs[0] the surface."""
        idx = self.centres(self.calabi_plan[0][0])
        return idx, [self.g[idx].astype(complex)] + [
            self.derivative(*key)[:, 0] for key in self.calabi_plan]

    def over(self, run):
        """Residuals from run(idx, dz, dzdbar) at the FD centres (see
        `fd`); run returns NaN for masked centres."""
        idx, dz, dzdbar = self.fd
        values = np.full(self.z.size, np.nan)
        if idx.size:
            values[idx] = run(idx, dz, dzdbar)
        return values

    @cached_property
    def calabi(self):
        """(pairs, values) of the symmetric-derivative tables at every
        point, as `_calabi_values` returns them: NaN rows where the
        stencil leaves the domain or touches a masked point, and no
        pairs at Calabi order 0."""
        pairs = _calabi_pairs(self.calabi_order)
        values = np.full((self.z.size, len(pairs)), np.nan)
        if pairs:
            idx, derivs = self.calabi_fd
            if idx.size:
                values[idx] = _calabi_values(derivs)[1]
        return pairs, values


def _pair_residuals(gram, norms, j, k):
    """|gram[j, k]| / (|F_j| |F_k|) over the index pairs (j, k), and the
    largest per point."""
    scale = norms[:, j] * norms[:, k]
    return _max0(_abs(gram[:, j, k]) / scale)


def _isotropy(sw):
    n = sw.chain.n

    def rows(idx):
        F = sw.F[idx]
        gram = _dot(F[:, :, None], F[:, None])     # <F_j, F_k>, no conjugate
        return _pair_residuals(gram, sw.norms[idx], *np.triu_indices(n))

    return sw.each(sw.regular, rows)


def _hermitian_orthogonality(sw):
    n = sw.chain.n

    def rows(idx):
        F = sw.F[idx]
        gram = _dot(F[:, :, None], np.conj(F)[:, None])
        return _pair_residuals(gram, sw.norms[idx], *np.triu_indices(n + 1, 1))

    return sw.each(sw.regular, rows)


def _collinearity(sw):
    def rows(idx):
        top = sw.F[idx, -1]
        return _pair_minors_max(top, np.conj(top)) / _square(sw.norms[idx, -1])

    return sw.each(sw.regular, rows)


def _circularity(sw):
    n = sw.chain.n

    def rows(idx):
        a = _fundamental_forms(sw.batch.F[idx], sw.batch.norms_sq[idx], sw.g[idx],
                               range(n))
        return _max0(_abs(_dot(a, a)) / _dot(a, np.conj(a)).real)

    return sw.each(sw.ok, rows)


def _recursion(sw):
    n = sw.chain.n
    return sw.over(lambda idx, dz, _: recursion_residuals(sw.batch.take(idx),
                                                          dz[:, 1:n + 1]))


def _fbar_identity(sw):
    n = sw.chain.n
    if n < 2:
        return None

    def run(idx, dz, _):
        dbar = dz[:, n + 1:]   # the z-derivatives of conj(F_2)..conj(F_n)
        out = np.full(idx.size, np.nan)
        rows = np.flatnonzero(_finite_rows(dbar))
        F, norms_sq = sw.batch.F[idx[rows]], sw.batch.norms_sq[idx[rows]]
        # s = 2..n along the last axis: |F_s|^2 over |F_{s-1}|^2
        ratio = norms_sq[:, 1:n] / norms_sq[:, :n - 1]
        resid = _norm(dbar[rows] + ratio[..., None] * np.conj(F[:, :n - 1]))
        scale = norms_sq[:, 1:n] / np.sqrt(norms_sq[:, :n - 1])
        out[rows] = _max0(resid / scale)
        return out

    return sw.over(run)


def _tangent_formula(sw):
    def run(idx, dz, _):
        dg = dz[:, 0]
        out = np.full(idx.size, np.nan)
        rows = np.flatnonzero(_finite_rows(dg))
        at = idx[rows]
        tangent = _fundamental_forms(sw.batch.F[at], sw.batch.norms_sq[at],
                                     sw.g[at], [0])[:, 0]
        out[rows] = _norm(dg[rows] - tangent) / _norm(tangent)
        return out

    return sw.over(run)


def _minimality(sw):
    return sw.over(lambda idx, dz, dzdbar: minimality_residuals(
        sw.g[idx], dz[:, 0], dzdbar[:, 0])[0])


def _calabi(sw):
    if sw.calabi_order < 1:
        return None
    return np.fmax.reduce(sw.calabi[1], axis=1)


# Every invariant family: name -> function from a sweep to its residuals
# over the sweep's points, NaN where not evaluated, or None where the
# family does not apply.
FAMILIES = {
    "isotropy": _isotropy,
    "hermitian_orthogonality": _hermitian_orthogonality,
    "collinearity": _collinearity,
    "circularity": _circularity,
    "recursion": _recursion,
    "fbar_identity": _fbar_identity,
    "tangent_formula": _tangent_formula,
    "minimality": _minimality,
    "calabi": _calabi,
}


def verify_all(
    chain,
    grid=(10, 10),
    tolerances=None,
    fd_step=None,
    calabi_order=2,
    perturb=None,
):
    """Evaluate every invariant family over a grid and classify.

    Algebraic families (isotropy, Hermitian orthogonality, collinearity,
    circularity) are computed at every non-singular in-domain point; the
    finite-difference families (conjugate descent, recursion, minimality,
    tangent formula, symmetric-derivative table) only where the stencil
    fits inside the domain and touches no degenerate point.  The chain is
    evaluated once at all grid points, which the report also carries as
    its `scan`, and the FD families differentiate one field
    (`chain.stencil_field`) evaluated once per stencil step for all
    centres: at default settings, nine points per centre at each of the
    steps h and h/2.  `perturb`, when given, injects a fault into the
    per-point algebraic analysis so that detection can be tested.  A
    sweep that checks nothing is refused: DomainError when no grid point
    lies inside the domain, DegenerateSurfaceError when all are singular.
    """
    rows, cols = grid
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    h = fd_step if fd_step is not None else default_step(chain.domain.diameter, 1)
    zs, inside = chain.domain.grid(rows, cols)
    if not inside.any():
        raise DomainError(f"no point of the {rows}x{cols} grid lies inside the "
                          "domain")
    sweep = _Sweep(chain, zs[inside], h, calabi_order, perturb)
    residuals = {}
    for fam, family in FAMILIES.items():
        values = family(sweep)
        if values is not None:
            residuals[fam] = values

    summary = {}
    worst = {}
    counts = {}
    for fam, values in residuals.items():
        evaluated = int(np.count_nonzero(~np.isnan(values)))
        counts[fam] = {"evaluated": evaluated, "skipped": values.size - evaluated}
        if evaluated:
            # the first point of the largest value
            i = int(np.nanargmax(values))
            summary[fam] = float(values[i])
            worst[fam] = complex(sweep.z[i])
    singular_count = int(np.sum(~sweep.ok))
    if not summary:
        raise DegenerateSurfaceError(
            f"no invariant was checked: {singular_count} of the {sweep.z.size} "
            f"grid points inside the domain are singular")
    status = {}
    for fam, val in summary.items():
        status[fam] = "PASS" if val <= tols.get(fam, np.inf) else "FAIL"
    passed = all(s == "PASS" for s in status.values())
    return DiagnosticsReport(
        n=chain.n,
        rows=rows,
        cols=cols,
        tolerances=tols,
        residuals=residuals,
        calabi=sweep.calabi,
        summary=summary,
        worst_point=worst,
        status=status,
        passed=passed,
        singular_count=singular_count,
        scan=GridScan.scatter(zs, inside, sweep.batch),
        counts=counts,
        surrogates=list(chain.surrogates),
    )
