"""Residual checks for every geometric invariant of chain surfaces.

Each statement about the chain (isotropy and Hermitian orthogonality of
its vectors, collinearity of the final pair, the conjugate-descent
identity, minimality of the surface, vanishing symmetric products of the
derivatives, the tangent/higher fundamental-form formulas, circularity
of the curvature ellipses) is turned into a number: a scale-normalized
residual that is zero in exact arithmetic.  `verify_all` sweeps a grid,
aggregates per-family maxima, and classifies PASS/FAIL against the fixed
tolerance that `FAMILIES` holds beside each family.

Tolerances are tiered by computation path: identities evaluated through
the symbolic chain are held to 1e-9 (relative), first-order finite
differences to 1e-5, second and higher order to 1e-4.

The finite-difference families take their derivatives from one read
plan, `fd.derivatives`, as whole arrays over the sweep's points.  Two
read lists say what they read: `_fd_reads` (d/dz and d^2/dz dconj(z) at
the FD step) and `_calabi_reads` (the z-derivatives of the symmetric
table), and the one-point checks `minimality_residual` and
`calabi_check` use the same lists.  Each block of the sweep evaluates
the chain once, at its centres and at every stencil point of those
reads, and the reader of that `chain.stencil_batch`, the evaluation of
every block of every sweep, answers the reads from its rows.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    GridScan,
    _sweep,
    f_chain_eval,
    recursion_residuals,
    require_regular,
    stencil_rows,
)
from .domain import Domain
from .errors import DegenerateSurfaceError, DomainError
from .fd import default_step, derivatives, stencil_halfwidth
from .products import _dot, _max0, _pair_minors_max

_DEGENERATE_DIFFERENTIAL = 1e-8


@dataclass
class SurfaceEvaluator:
    """A black-box unit-sphere surface: a pure map from points of the
    domain to unit vectors, batched over numpy arrays.

    A chain surface (`from_chain`) returns the surface `g` of its chain
    batch, the package's one surface normalization, and raises at
    degenerate points.  The checks of `verify_all` differentiate the
    `chain.stencil_rows` of their chain evaluations instead, which mask
    them.
    """

    func: object          # zs (B,) complex -> (B, dim) float
    domain: Domain
    dim: int
    n: int = None         # chain length when known (dim == 2n+1)

    def __call__(self, zs):
        zs = np.asarray(zs, dtype=complex).ravel()
        return np.asarray(self.func(zs), dtype=float)

    @classmethod
    def from_chain(cls, chain):
        def func(zs):
            batch = f_chain_eval(chain, zs)
            require_regular(batch)
            return batch.g

        return cls(func=func, domain=chain.domain, dim=chain.dim, n=chain.n)


def _fd_reads(h):
    """The (margin, step, order) reads of the FD families at the step h:
    d/dz and d^2/dz dconj(z)."""
    margin = stencil_halfwidth(1, h)
    return [(margin, h, (1, 0)), (margin, h, (1, 1))]


def _calabi_reads(domain, max_order):
    """The reads of the symmetric-derivative table to max_order: the j-th
    z-derivative at its default step, every order at the top order's
    margin."""
    steps = [default_step(domain.diameter, j) for j in range(1, max_order + 1)]
    return [(stencil_halfwidth(max_order, steps[-1]), step, (j, 0))
            for j, step in enumerate(steps, 1)]


def _sweep_reads(domain, h, calabi_order):
    """Every read of `verify_all`'s FD families: `_fd_reads` at the FD
    step h, then `_calabi_reads` to the Calabi order."""
    return _fd_reads(h) + _calabi_reads(domain, calabi_order)


def _derivatives_at(g, z, reads):
    """The derivatives of the reads of the surface g at the one point z,
    each with its centre axis; DomainError where a stencil does not fit."""
    found = derivatives(g, np.array([z]), reads, g.domain)
    if any(np.isnan(d).all() for d in found):
        raise DomainError(f"stencil at z={z} leaves the domain")
    return found


def minimality_residual(g, z):
    """Norm of the component of the Laplacian orthogonal to the surface
    and to the sphere position, normalized by the first-derivative
    energy.  Vanishes (to FD accuracy) exactly for minimal surfaces.
    The derivatives are the FD families' reads at the default step.
    """
    dg, lap = _derivatives_at(g, z, _fd_reads(default_step(g.domain.diameter, 1)))
    resid, energy = minimality_residuals(g(np.array([z])), dg, lap)
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
        # the quarter Laplacian
        r = _normal_part(np.linalg.qr(basis)[0], lap[rows].real)
        resid[rows] = np.linalg.norm(r, axis=-1) / energy[rows]
    return resid, energy


def _normal_part(q, v):
    """v minus its projection onto the columns of q, row by row: the
    stacked form of `v - q @ (q.T @ v)`."""
    return v - (q @ (np.swapaxes(q, -1, -2) @ v[..., None]))[..., 0]


def calabi_check(g, max_order, z):
    """Table of |<d^j g, d^k g>| (symmetric product of iterated Wirtinger
    z-derivatives) for all 0 < j+k <= max_order.

    FD noise makes orders beyond 4 meaningless in double precision, so
    max_order must be <= 4.  The derivatives are the sweep's Calabi reads:
    step sizes scale with the derivative order, and every stencil must
    fit at the top order's margin.
    """
    if not 1 <= max_order <= 4:
        raise ValueError("max_order must be between 1 and 4")
    derivs = _derivatives_at(g, z, _calabi_reads(g.domain, max_order))
    pairs, values = _calabi_values([g(np.array([z])).astype(complex)] + derivs)
    table = {}
    for (j, k), val in zip(pairs, values[0].tolist()):
        table[j, k] = table[k, j] = val
    return table


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
        values[rows, p] = np.abs(_dot(derivs[j][rows], derivs[k][rows]))
    return pairs, values


def _finite_rows(*arrays):
    """Whether each row (leading index) of every array is all finite."""
    return np.all(
        [np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in arrays], axis=0
    )


def _fundamental_forms(F, norms_sq, g, orders):
    """The order-(s+1) fundamental forms of the surface along the repeated
    z-direction, by the closed chain formula, at every row of chain
    vectors F (B, n+1, d) with squared norms (B, n+1) and surface vectors
    g (B, d), for each order s of `orders` (0 <= s <= n-1): shape (B,
    len(orders), d), the multiples (-1)^(s+1) <g, F_{n+1}> / |F_{n-s}|^2
    of conj(F_{n-s}).  s = 0 gives the tangent vector dg/dz, and the
    higher forms are isotropic multiples of the conjugated chain
    vectors."""
    n = F.shape[1] - 1
    pairing = _dot(g, F[:, -1])
    forms = np.empty((F.shape[0], len(orders), F.shape[2]), dtype=complex)
    for o, s in enumerate(orders):
        coeff = (-1) ** (s + 1) * pairing / norms_sq[:, n - s - 1]
        forms[:, o] = coeff[:, None] * np.conj(F[:, n - s - 1])
    return forms


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

    The diagnostics document is `to_dict()`, the summary fields, plus a
    `points` list of one record per inside point, whose JSON text
    `points_json()` builds from the arrays.
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

    def grids(self):
        """{family: residuals on the scan's (R, C) grid}, NaN outside the
        domain and where the family was not evaluated."""
        found = {}
        for fam, values in self.residuals.items():
            found[fam] = np.full(self.scan.shape, np.nan)
            found[fam][self.scan.inside] = values
        return found

    def points_json(self):
        """The JSON text of the `points` list, as json.dumps(indent=2,
        sort_keys=True) writes it for the value of a top-level key, with
        null for a float that is not finite.  Each inside point of the
        scan, in row-major order, has a record {"calabi": its symmetric
        table {"j,k": value}, {} where not evaluated, "residuals": {family:
        value} of the families evaluated there, "singular", "z": [re,
        im]}.  Every float is formatted once, and each family's entries
        are built as one column."""
        inside = self.scan.inside
        zs = self.scan.zs[inside]
        if not zs.size:
            return "[]"
        # the residual entries of each point, one family column at a time,
        # none where the family was not evaluated; each entry starts with
        # its separator, whose comma the first one drops
        entries = [""] * zs.size
        for fam in sorted(self.residuals):
            values = self.residuals[fam]
            key = f"{_ENTRY}{json.dumps(fam)}: "
            column = [key + text for text in _json_floats(values)]
            for i in np.flatnonzero(np.isnan(values)).tolist():
                column[i] = ""
            entries = list(map(str.__add__, entries, column))
        residuals = ["{" + body[1:] + "\n      }" if body else "{}" for body in entries]
        pairs, values = self.calabi
        tables = ["{}"] * zs.size
        if pairs:
            # both (j, k) and (k, j) read the entry of pair p
            keys = sorted({(f"{a},{b}", p) for p, (j, k) in enumerate(pairs)
                           for a, b in ((j, k), (k, j))})
            table = ("{{\n        " + _ENTRY.join(f'"{key}": {{{p}}}' for key, p in keys)
                     + "\n      }}")
            text = _json_floats(values)
            tables = list(map(table.format, *(text[p::len(pairs)]
                                              for p in range(len(pairs)))))
            for i in np.flatnonzero(np.isnan(values).all(axis=1)).tolist():
                tables[i] = "{}"
        singular = np.where(self.scan.singular[inside], "true", "false").tolist()
        records = map(_POINT_JSON.format, tables, residuals, singular,
                      _json_floats(zs.real), _json_floats(zs.imag))
        return "[\n" + ",\n".join(records) + "\n  ]"

    def to_dict(self):
        """The diagnostics document without its `points`."""
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
        }
        if self.surrogates:
            doc["surrogates"] = self.surrogates
        return doc


# A point record of `DiagnosticsReport.points_json`, from its calabi
# table, residuals, singular flag and z, and the separator of the entries
# of the first two
_POINT_JSON = ('    {{\n      "calabi": {},\n      "residuals": {},\n'
               '      "singular": {},\n      "z": [\n        {},\n        {}\n      ]\n    }}')
_ENTRY = ",\n        "


def _json_floats(values):
    """The JSON text of each float of an array, in C order: its repr, or
    null where it is not finite."""
    flat = np.ravel(values)
    text = list(map(repr, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        text[i] = "null"
    return text


def _apply_perturbation(F, perturb):
    """Deterministic fault injection: nudge one chain vector toward the
    first one, breaking Hermitian orthogonality by the given magnitude.
    F holds the chain vectors of one point (n+1, d) or of a batch of
    points (B, n+1, d)."""
    target = perturb.get("target", "F2")
    magnitude = float(perturb.get("magnitude", 1e-3))
    idx = int(target.lstrip("F")) - 1
    F = F.copy()
    direction = F[..., 0, :] / np.linalg.norm(F[..., 0, :], axis=-1)[..., None]
    scale = magnitude * np.linalg.norm(F[..., idx, :], axis=-1)
    F[..., idx, :] = F[..., idx, :] + scale[..., None] * direction
    return F


class _Sweep:
    """A block of the in-domain points of a verification grid, with the
    chain batch evaluated there, and the settings the families share.

    `ok` marks points where both the chain and the surface normalization
    are regular.  The FD families read whole arrays of derivatives of the
    chain's `stencil_rows`, NaN where a stencil leaves the domain, starts
    at a masked point or touches one: `dz` and `dzdbar` (d/dz and
    d^2/dz dconj(z)) at the FD step, and `calabi_derivs`, where entry j
    is the j-th z-derivative of the surface and entry 0 the surface.
    They come from `derivs`, the reader of the block's
    `chain.stencil_batch` for the reads of `_sweep_reads`.
    """

    def __init__(self, chain, batch, calabi_order, perturb, derivs):
        self.chain = chain
        self.z = batch.z
        self.calabi_order = calabi_order
        self.batch = batch
        self.regular = ~batch.singular
        # chain vectors of the algebraic families, perturbed if asked
        self.F = batch.F
        if perturb:
            self.F = self.F.copy()
            self.F[self.regular] = _apply_perturbation(self.F[self.regular], perturb)
            self.norms = np.sqrt(np.sum(np.abs(self.F) ** 2, axis=2))
        else:
            self.norms = np.sqrt(batch.norms_sq)
        self.g = batch.g
        self.ok = batch.ok
        self.dz, self.dzdbar, *found = derivs(stencil_rows)
        self.calabi_derivs = [self.g.astype(complex)] + [d[:, 0] for d in found]
        # the symmetric-derivative tables, as `_calabi_values` returns them
        self.calabi = _calabi_values(self.calabi_derivs)

    def each(self, mask, rows):
        """Residuals from rows(idx) at the points idx of the mask; NaN
        elsewhere."""
        values = np.full(self.z.size, np.nan)
        idx = np.flatnonzero(mask)
        if idx.size:
            values[idx] = rows(idx)
        return values


def _pair_residuals(gram, norms, j, k):
    """|gram[j, k]| / (|F_j| |F_k|) over the index pairs (j, k), and the
    largest per point."""
    scale = norms[:, j] * norms[:, k]
    return _max0(np.abs(gram[:, j, k]) / scale)


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
        return _pair_minors_max(top, np.conj(top)) / sw.norms[idx, -1] ** 2

    return sw.each(sw.regular, rows)


def _circularity(sw):
    n = sw.chain.n

    def rows(idx):
        a = _fundamental_forms(sw.batch.F[idx], sw.batch.norms_sq[idx], sw.g[idx],
                               range(n))
        return _max0(np.abs(_dot(a, a)) / _dot(a, np.conj(a)).real)

    return sw.each(sw.ok, rows)


def _recursion(sw):
    return recursion_residuals(sw.batch, sw.dz[:, 1:sw.chain.n + 1])


def _fbar_identity(sw):
    n = sw.chain.n
    if n < 2:
        return None
    dbar = sw.dz[:, n + 1:]   # the z-derivatives of conj(F_2)..conj(F_n)
    out = np.full(sw.z.size, np.nan)
    rows = np.flatnonzero(_finite_rows(dbar))
    F, norms_sq = sw.batch.F[rows], sw.batch.norms_sq[rows]
    # s = 2..n along the last axis: |F_s|^2 over |F_{s-1}|^2
    ratio = norms_sq[:, 1:n] / norms_sq[:, :n - 1]
    resid = np.linalg.norm(dbar[rows] + ratio[..., None] * np.conj(F[:, :n - 1]),
                           axis=-1)
    scale = norms_sq[:, 1:n] / np.sqrt(norms_sq[:, :n - 1])
    out[rows] = _max0(resid / scale)
    return out


def _tangent_formula(sw):
    dg = sw.dz[:, 0]
    out = np.full(sw.z.size, np.nan)
    rows = np.flatnonzero(_finite_rows(dg))
    tangent = _fundamental_forms(sw.batch.F[rows], sw.batch.norms_sq[rows],
                                 sw.g[rows], [0])[:, 0]
    out[rows] = (np.linalg.norm(dg[rows] - tangent, axis=-1)
                 / np.linalg.norm(tangent, axis=-1))
    return out


def _minimality(sw):
    return minimality_residuals(sw.g, sw.dz[:, 0], sw.dzdbar[:, 0])[0]


def _calabi(sw):
    if sw.calabi_order < 1:
        return None
    return np.fmax.reduce(sw.calabi[1], axis=1)


# Every invariant family: name -> (tolerance, residuals), where residuals
# maps a sweep to the family's residuals over the sweep's points, NaN
# where not evaluated, or None where the family does not apply.
FAMILIES = {
    "isotropy": (1e-9, _isotropy),
    "hermitian_orthogonality": (1e-9, _hermitian_orthogonality),
    "collinearity": (1e-9, _collinearity),
    "circularity": (1e-9, _circularity),
    "recursion": (1e-5, _recursion),
    "fbar_identity": (1e-5, _fbar_identity),
    "tangent_formula": (1e-5, _tangent_formula),
    "minimality": (1e-5, _minimality),
    "calabi": (1e-4, _calabi),
}


def verify_all(chain, grid=(10, 10), fd_step=None, calabi_order=2, perturb=None):
    """Evaluate every invariant family over a grid and classify.

    Algebraic families (isotropy, Hermitian orthogonality, collinearity,
    circularity) are computed at every non-singular in-domain point; the
    finite-difference families (conjugate descent, recursion, minimality,
    tangent formula, symmetric-derivative table) only where the stencil
    fits inside the domain and touches no degenerate point.  The inside
    points are swept by `chain._sweep` in blocks, each evaluated with one
    chain call of at most `chain._SCAN_BLOCK` points: the block's
    centres first, then every stencil point of the FD reads there.  Each
    block becomes a `_Sweep`, and only its residuals, Calabi tables,
    flags and surface rows are kept, so that the chain data and
    derivatives held at once do not grow with the grid.  The flags and
    surface rows form the report's `scan`.  The FD families read whole
    arrays from the block's `chain.stencil_batch` reader, which
    differentiates one field (the `chain.stencil_rows` of that call) for
    all the block's centres: at default settings, eight points per centre
    besides the centre itself at each of the steps h and h/2, whose
    (0, 0) offsets read the centre's own row.  Every centre gets the
    arithmetic of a sweep of it alone, so the blocks change no bit of the
    report.  `perturb`, when given, injects a fault into the per-point
    algebraic analysis so that detection can be tested.  A grid that leaves nothing to check is
    refused by `chain._sweep`: DomainError when no grid point lies inside
    the domain, DegenerateSurfaceError when all are singular; every other
    grid has a non-singular point, which gets an isotropy residual.  A
    family that applies but is checked at no point, because no stencil
    fits or each touches a degenerate point, gets status UNCHECKED, and
    the report does not pass.
    """
    rows, cols = grid
    h = fd_step if fd_step is not None else default_step(chain.domain.diameter, 1)
    applies = []   # the families that apply, in the order of FAMILIES

    def read(batch, derivs):
        sweep = _Sweep(chain, batch, calabi_order, perturb, derivs)
        found = {fam: family(sweep) for fam, (_, family) in FAMILIES.items()}
        applies[:] = [fam for fam, values in found.items() if values is not None]
        return sweep.ok, sweep.g, sweep.calabi[1], *(found[fam] for fam in applies)

    zs, inside, (ok, g, tables, *found) = _sweep(
        chain, rows, cols, read, reads=_sweep_reads(chain.domain, h, calabi_order))
    residuals = dict(zip(applies, found))
    pts = zs[inside]

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
            worst[fam] = complex(pts[i])
    status = {}
    for fam in residuals:
        if fam not in summary:
            status[fam] = "UNCHECKED"
        elif summary[fam] <= FAMILIES[fam][0]:
            status[fam] = "PASS"
        else:
            status[fam] = "FAIL"
    passed = all(s == "PASS" for s in status.values())
    return DiagnosticsReport(
        n=chain.n,
        rows=rows,
        cols=cols,
        tolerances={fam: tol for fam, (tol, _) in FAMILIES.items()},
        residuals=residuals,
        calabi=(_calabi_pairs(calabi_order), tables),
        summary=summary,
        worst_point=worst,
        status=status,
        passed=passed,
        singular_count=int(np.sum(~ok)),
        scan=GridScan.scatter(zs, inside, ok, g),
        counts=counts,
        surrogates=list(chain.surrogates),
    )
