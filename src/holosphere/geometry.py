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

from .chain import (
    DEFAULT_EPS_SINGULAR,
    f_chain_at,
    f_chain_eval,
    recursion_residuals,
    surface_at,
)
from .domain import Domain
from .errors import (
    DegenerateSurfaceError,
    DomainError,
    SingularPointError,
)
from .fd import default_step, field_at, stencil_halfwidth, wirtinger
from .products import pair_minors_max, principal_angles, symmetric_product

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

    `masked`, when set, is the same map returning NaN rows at degenerate
    points instead of raising; batched checks use it so that one bad
    point masks only the centres whose stencils touch it.
    """

    func: object          # zs (B,) complex -> (B, dim) float
    domain: Domain
    dim: int
    n: int = None         # chain length when known (dim == 2n+1)
    fd_step: float = None
    masked: object = None  # zs (B,) complex -> (B, dim) float, NaN rows

    def __call__(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        return np.asarray(self.func(zs), dtype=float)

    def at(self, z):
        return self(np.array([z]))[0]

    def step(self, order=1):
        if self.fd_step is not None:
            return self.fd_step
        return default_step(self.domain.diameter, order)

    @classmethod
    def from_chain(cls, chain, eps_singular=DEFAULT_EPS_SINGULAR, fd_step=None):
        def rows(zs):
            batch = f_chain_eval(chain, zs, eps_singular)
            return batch, _surface_rows(batch, eps_singular)

        def func(zs):
            batch, (g, collapsed) = rows(zs)
            if np.any(batch.singular):
                bad = batch.z[np.argmax(batch.singular)]
                raise SingularPointError("chain degenerates", complex(bad))
            if np.any(collapsed):
                bad = batch.z[np.argmax(collapsed)]
                raise SingularPointError(
                    "surface normalization degenerates", complex(bad)
                )
            return g

        def masked(zs):
            batch, (g, collapsed) = rows(zs)
            g[batch.singular | collapsed] = np.nan
            return g

        return cls(
            func=func, domain=chain.domain, dim=chain.dim, n=chain.n,
            fd_step=fd_step, masked=masked,
        )


def _surface_rows(batch, eps_singular=DEFAULT_EPS_SINGULAR):
    """Unit vectors along Re(F_{n+1}) for a chain batch, and the mask of
    rows whose real part collapses below the relative threshold.  Rows of
    singular or collapsed points hold no meaningful value."""
    re = batch.F[:, -1, :].real
    nsq = np.sum(re * re, axis=1)
    collapsed = nsq <= eps_singular * batch.scale_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        return re / np.sqrt(nsq)[:, None], collapsed


def _first_partials(g, z, h):
    """(g(z), g_x, g_y) from one Wirtinger derivative of the real field."""
    gz = g.at(z)
    dg = wirtinger(g, z, 1, 0, h=h)
    return gz, 2.0 * dg.real, -2.0 * dg.imag


def minimality_residual(g, z, h=None):
    """Norm of the component of the Laplacian orthogonal to the surface
    and to the sphere position, normalized by the first-derivative
    energy.  Vanishes (to FD accuracy) exactly for minimal surfaces.
    """
    if h is None:
        h = g.step(1)
    if not g.domain.contains(z, margin=stencil_halfwidth(2, h)):
        raise DomainError(f"stencil at z={z} leaves the domain")
    resid, energy = minimality_residuals(g, np.array([z]), h)
    if energy[0] < _DEGENERATE_DIFFERENTIAL:
        raise DegenerateSurfaceError(f"degenerate differential at z={z}")
    return float(resid[0])


def minimality_residuals(f, zs, h):
    """`minimality_residual` of the field f at an array of centres, with
    one field evaluation per stencil.  Returns (residuals, energies):
    both are NaN where a stencil touches a NaN row of f, and a residual
    is NaN where the differential degenerates.
    """
    gz = field_at(f, zs)
    dg = wirtinger(f, zs, 1, 0, h=h)
    gx, gy = 2.0 * dg.real, -2.0 * dg.imag
    quarter_lap = wirtinger(f, zs, 1, 1, h=h).real
    resid = np.full(zs.size, np.nan)
    energy = np.full(zs.size, np.nan)
    for b in np.flatnonzero(_finite_rows(gz, dg, quarter_lap)):
        e = float(np.dot(gx[b], gx[b]) + np.dot(gy[b], gy[b]))
        energy[b] = e
        if e < _DEGENERATE_DIFFERENTIAL:
            continue
        basis = np.stack([gz[b], gx[b], gy[b]], axis=1)
        q, _ = np.linalg.qr(basis)
        r = quarter_lap[b] - q @ (q.T @ quarter_lap[b])
        resid[b] = float(np.linalg.norm(r)) / e
    return resid, energy


def calabi_check(g, max_order, z, h=None):
    """Table of |<d^j g, d^k g>| (symmetric product of iterated Wirtinger
    z-derivatives) for all 0 < j+k <= max_order.

    FD noise makes orders beyond 4 meaningless in double precision, so
    max_order must be <= 4.  Step sizes scale with the derivative order.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("max_order must be between 1 and 4")
    top_h = h if h is not None else default_step(g.domain.diameter, max_order)
    if not g.domain.contains(z, margin=stencil_halfwidth(max_order, top_h)):
        raise DomainError(f"stencil at z={z} leaves the domain")
    return calabi_tables(g, max_order, np.array([z]), h, g.domain.diameter)[0]


def calabi_tables(f, max_order, zs, h, diameter):
    """`calabi_check` of the field f at an array of centres, with one
    field evaluation per stencil; None where a stencil touches a NaN row.
    With h None the steps follow the per-order default for `diameter`."""
    derivs = [field_at(f, zs).astype(complex)]
    for j in range(1, max_order + 1):
        derivs.append(wirtinger(f, zs, j, 0, h=h, diameter=diameter))
    tables = [None] * zs.size
    for b in np.flatnonzero(_finite_rows(*derivs)):
        table = {}
        for j in range(max_order + 1):
            for k in range(j, max_order + 1):
                if j + k == 0 or j + k > max_order:
                    continue
                val = abs(symmetric_product(derivs[j][b], derivs[k][b]))
                table[(j, k)] = val
                table[(k, j)] = val
        tables[b] = table
    return tables


def _finite_rows(*arrays):
    """Whether each row (leading index) of every array is all finite."""
    return np.all(
        [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in arrays], axis=0
    )


def chain_fundamental_form(sample, g=None, s=0):
    """Value of the order-(s+1) fundamental form of the surface along the
    repeated z-direction, via the closed chain formula.

    s = 0 returns the tangent vector dg/dz; 1 <= s <= n-1 returns the
    higher forms, which are isotropic multiples of the conjugated chain
    vectors.
    """
    n = sample.n
    if sample.singular:
        raise SingularPointError("chain degenerates", sample.z)
    if not 0 <= s <= n - 1:
        raise ValueError(f"order s={s} out of range [0, {n - 1}]")
    if g is None:
        g = surface_at(sample)
    pairing = complex(np.dot(g.astype(complex), sample.F[-1]))
    target = sample.F[n - s - 1]
    coeff = ((-1) ** (s + 1)) * pairing / sample.norms_sq[n - s - 1]
    return coeff * np.conj(target)


def isotropic_surface_form_residual(chain, z, h=None,
                                    eps_singular=DEFAULT_EPS_SINGULAR):
    """Check, by finite differences, that twice the second fundamental
    form of the auxiliary isotropic map f = Re(antiderivative of the top
    chain map) along the repeated z-direction equals the second chain
    vector.

    f is a minimal surface in flat space whose complexified tangent is
    spanned by the first chain vector and its conjugate; the identity is
    the s = 1 case of the normal-bundle ladder (higher orders follow
    from the orthogonalization itself).  Returns the relative residual.
    """
    from .expr import antiderivative

    antis = [
        antiderivative(e, 0j, chain.domain)
        for e in chain.alpha_exprs[chain.n]
    ]

    def f_field(zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        out = np.empty((zs.size, chain.dim))
        for c, a in enumerate(antis):
            out[:, c] = np.asarray(a.value(zs)).real
        return out

    if h is None:
        h = default_step(chain.domain.diameter, 1)
    sample = f_chain_at(chain, z, eps_singular)
    if sample.singular:
        raise SingularPointError("chain degenerates", z)
    v = 2.0 * wirtinger(f_field, z, 2, 0, h=h)
    F1 = sample.F[0]
    F1bar = np.conj(F1)
    nsq = sample.norms_sq[0]
    v = v - (np.dot(v, F1bar) / nsq) * F1 - (np.dot(v, F1) / nsq) * F1bar
    ref = sample.F[1]
    return float(np.linalg.norm(v - ref) / np.linalg.norm(ref))


def second_normal_space_angle(chain, z, h=None, eps_singular=DEFAULT_EPS_SINGULAR):
    """Largest principal angle between the FD second-order normal space
    of the surface and the span of the (n-1)-th chain vector and its
    conjugate.  Requires n >= 2."""
    if chain.n < 2:
        raise ValueError("second normal space needs n >= 2")
    g = SurfaceEvaluator.from_chain(chain, eps_singular)
    if h is None:
        h = g.step(1)
    gz, gx, gy = _first_partials(g, z, h)
    basis = np.stack([gz, gx, gy], axis=1)
    q, _ = np.linalg.qr(basis)
    d2 = wirtinger(g, z, 2, 0, h=h)
    v1 = d2 - q.astype(complex) @ (q.T.astype(complex) @ d2)
    sample = f_chain_at(chain, z, eps_singular)
    fd_basis = np.stack([v1, np.conj(v1)], axis=1)
    chain_basis = np.stack(
        [sample.F[chain.n - 2], np.conj(sample.F[chain.n - 2])], axis=1
    )
    return float(principal_angles(fd_basis, chain_basis).max())


# ---------------------------------------------------------------------------
# Full verification sweep
# ---------------------------------------------------------------------------

@dataclass
class PointRecord:
    z: complex
    singular: bool
    residuals: dict
    calabi_table: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "z": [self.z.real, self.z.imag],
            "singular": self.singular,
            "residuals": {
                k: v for k, v in self.residuals.items() if v is not None
            },
            "calabi": {f"{j},{k}": v for (j, k), v in self.calabi_table.items()},
        }


@dataclass
class DiagnosticsReport:
    n: int
    rows: int
    cols: int
    tolerances: dict
    records: list
    summary: dict
    worst_point: dict
    status: dict
    passed: bool
    singular_count: int
    counts: dict = field(default_factory=dict)  # family -> evaluated/skipped

    def failures(self):
        return [f for f, s in self.status.items() if s == "FAIL"]

    def to_dict(self):
        return {
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
            "points": [r.to_dict() for r in self.records],
        }


def _conj_chain_field(chain, eps_singular):
    """Field z -> conj(F_2), ..., conj(F_n) for FD use, NaN rows at
    singular points."""

    def func(zs):
        batch = f_chain_eval(chain, zs, eps_singular)
        rows = np.conj(batch.F[:, 1:chain.n, :])
        rows[batch.singular] = np.nan
        return rows

    return func


def _apply_perturbation(F, perturb):
    """Deterministic fault injection: nudge one chain vector toward the
    first one, breaking Hermitian orthogonality by the given magnitude."""
    target = perturb.get("target", "F2")
    magnitude = float(perturb.get("magnitude", 1e-3))
    idx = int(target.lstrip("F")) - 1
    F = F.copy()
    direction = F[0] / np.linalg.norm(F[0])
    F[idx] = F[idx] + magnitude * np.linalg.norm(F[idx]) * direction
    return F


class _Sweep:
    """The in-domain points of a verification grid, with their chain data
    evaluated in one call, and the settings the families share.

    `ok` marks points where both the chain and the surface normalization
    are regular; `field` is the masked surface map for FD stencils.
    """

    def __init__(self, chain, zs, eps_singular, h, calabi_order, perturb):
        self.chain = chain
        self.z = zs
        self.eps = eps_singular
        self.h = h
        self.calabi_order = calabi_order
        self.batch = f_chain_eval(chain, zs, eps_singular)
        self.samples = [self.batch.sample(i) for i in range(zs.size)]
        self.regular = ~self.batch.singular
        self.F = {}      # chain vectors of regular points, perturbed if asked
        self.norms = {}
        self.g = {}      # surface vectors of `ok` points
        for i in np.flatnonzero(self.regular):
            F = self.samples[i].F
            self.F[i] = _apply_perturbation(F, perturb) if perturb else F
            self.norms[i] = np.sqrt(np.sum(np.abs(self.F[i]) ** 2, axis=1))
            try:
                self.g[i] = surface_at(self.samples[i], eps_singular)
            except SingularPointError:
                pass
        self.ok = np.array([i in self.g for i in range(zs.size)], dtype=bool)
        self.field = SurfaceEvaluator.from_chain(chain, eps_singular).masked

    def each(self, mask, point):
        """Residuals from point(i) at the points of the mask; NaN elsewhere."""
        values = np.full(self.z.size, np.nan)
        for i in np.flatnonzero(mask):
            values[i] = point(i)
        return values, mask

    def centres(self, margin):
        """The `ok` points whose stencil of the given half-width fits."""
        return np.flatnonzero(
            self.ok & self.chain.domain.contains(self.z, margin=margin)
        )

    def over(self, margin, run):
        """Residuals from run(idx) at the centres for this stencil
        half-width; run returns NaN for masked centres."""
        idx = self.centres(margin)
        values = np.full(self.z.size, np.nan)
        if idx.size:
            values[idx] = run(idx)
        return values, ~np.isnan(values)

    @cached_property
    def calabi_tables(self):
        diameter = self.chain.domain.diameter
        top_h = default_step(diameter, self.calabi_order)
        idx = self.centres(stencil_halfwidth(self.calabi_order, top_h))
        tables = [None] * self.z.size
        if idx.size:
            found = calabi_tables(self.field, self.calabi_order, self.z[idx],
                                  None, diameter)
            for i, table in zip(idx, found):
                tables[i] = table
        return tables


def _isotropy(sw):
    def point(i):
        F, norms = sw.F[i], sw.norms[i]
        iso = 0.0
        for j in range(sw.chain.n):
            for k in range(j, sw.chain.n):
                val = abs(np.dot(F[j], F[k])) / (norms[j] * norms[k])
                iso = max(iso, val)
        return iso

    return sw.each(sw.regular, point)


def _hermitian_orthogonality(sw):
    def point(i):
        F, norms = sw.F[i], sw.norms[i]
        herm = 0.0
        for j in range(sw.chain.n + 1):
            for k in range(j + 1, sw.chain.n + 1):
                val = abs(np.dot(F[j], np.conj(F[k]))) / (norms[j] * norms[k])
                herm = max(herm, val)
        return herm

    return sw.each(sw.regular, point)


def _collinearity(sw):
    def point(i):
        F, norms = sw.F[i], sw.norms[i]
        return pair_minors_max(F[-1], np.conj(F[-1])) / (norms[-1] ** 2)

    return sw.each(sw.regular, point)


def _circularity(sw):
    def point(i):
        circ = 0.0
        for s in range(sw.chain.n):
            a = chain_fundamental_form(sw.samples[i], sw.g[i], s)
            circ = max(circ, abs(np.dot(a, a)) / float(np.real(np.dot(a, np.conj(a)))))
        return circ

    return sw.each(sw.ok, point)


def _recursion(sw):
    def run(idx):
        return recursion_residuals(sw.chain, sw.batch.take(idx), sw.h, sw.eps)

    return sw.over(stencil_halfwidth(1, sw.h), run)


def _fbar_identity(sw):
    n = sw.chain.n
    if n < 2:
        return None

    def run(idx):
        dbar = wirtinger(_conj_chain_field(sw.chain, sw.eps), sw.z[idx], 1, 0,
                         h=sw.h)
        out = np.full(idx.size, np.nan)
        for b in np.flatnonzero(_finite_rows(dbar)):
            sample = sw.samples[idx[b]]
            fbar = 0.0
            for s in range(2, n + 1):
                ratio = sample.norms_sq[s - 1] / sample.norms_sq[s - 2]
                resid = np.linalg.norm(
                    dbar[b, s - 2] + ratio * np.conj(sample.F[s - 2])
                )
                scale = sample.norms_sq[s - 1] / np.sqrt(sample.norms_sq[s - 2])
                fbar = max(fbar, float(resid / scale))
            out[b] = fbar
        return out

    return sw.over(stencil_halfwidth(1, sw.h), run)


def _tangent_formula(sw):
    def run(idx):
        dg = wirtinger(sw.field, sw.z[idx], 1, 0, h=sw.h)
        out = np.full(idx.size, np.nan)
        for b in np.flatnonzero(_finite_rows(dg)):
            i = idx[b]
            tangent = chain_fundamental_form(sw.samples[i], sw.g[i], 0)
            out[b] = float(
                np.linalg.norm(dg[b] - tangent) / np.linalg.norm(tangent)
            )
        return out

    return sw.over(stencil_halfwidth(1, sw.h), run)


def _minimality(sw):
    def run(idx):
        return minimality_residuals(sw.field, sw.z[idx], sw.h)[0]

    return sw.over(stencil_halfwidth(2, sw.h), run)


def _calabi(sw):
    if sw.calabi_order < 1:
        return None
    tables = sw.calabi_tables
    found = np.array([t is not None for t in tables], dtype=bool)
    return sw.each(found, lambda i: max(tables[i].values()))


# Every invariant family: name -> function from a sweep to (residuals,
# evaluated mask) over its points, or None where the family does not apply.
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
    eps_singular=DEFAULT_EPS_SINGULAR,
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
    evaluated once at all grid points and once per stencil for all
    centres.  `perturb`, when given, injects a fault into the per-point
    algebraic analysis so that detection can be tested.
    """
    rows, cols = grid
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    h = fd_step if fd_step is not None else default_step(chain.domain.diameter, 1)
    zs, inside = chain.domain.grid(rows, cols)
    sweep = _Sweep(chain, zs[inside], eps_singular, h, calabi_order, perturb)
    results = {}
    for fam, family in FAMILIES.items():
        found = family(sweep)
        if found is not None:
            results[fam] = found

    records = []
    for i, z in enumerate(sweep.z):
        residuals = {
            fam: float(values[i])
            for fam, (values, mask) in results.items() if mask[i]
        }
        table = (sweep.calabi_tables[i] if calabi_order >= 1 else None) or {}
        records.append(PointRecord(complex(z), not sweep.ok[i], residuals, table))

    summary = {}
    worst = {}
    for rec in records:
        for fam, val in rec.residuals.items():
            if fam not in summary or val > summary[fam]:
                summary[fam] = val
                worst[fam] = rec.z
    status = {}
    for fam, val in summary.items():
        status[fam] = "PASS" if val <= tols.get(fam, np.inf) else "FAIL"
    passed = all(s == "PASS" for s in status.values())
    counts = {
        fam: {"evaluated": int(mask.sum()), "skipped": int(mask.size - mask.sum())}
        for fam, (_, mask) in results.items()
    }
    return DiagnosticsReport(
        n=chain.n,
        rows=rows,
        cols=cols,
        tolerances=tols,
        records=records,
        summary=summary,
        worst_point=worst,
        status=status,
        passed=passed,
        singular_count=int(np.sum(~sweep.ok)),
        counts=counts,
    )
