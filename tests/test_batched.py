"""Batched evaluation agrees with one-point calls and one-point loops.

The batched reads of the chain and of its finite differences are
compared, bit for bit, with their single-point counterparts, and
masking is checked to reach only the centres whose stencil touches a
degenerate point.  The reductions after the chain evaluation (invariant
families, Kaehler base, ruled map and probes) are compared with
one-point loops, kept below as reference code, to roundoff.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from holosphere import (
    Domain,
    applications,
    build_alpha_chain,
    f_chain_eval,
    geometry,
    recursion_crosscheck,
    scan_grid,
)
from holosphere.applications import (
    KaehlerParams,
    RuledParams,
    kaehler_map,
    kaehler_point,
    ruled_map,
    ruled_minimality_probe,
    ruled_point,
)
from holosphere.chain import GridScan, recursion_residuals
from holosphere.config import load_config
from holosphere.errors import DomainError, SingularPointError
from holosphere.fd import default_step, derivatives, stencil_halfwidth, wirtinger
from holosphere.geometry import (
    SurfaceEvaluator,
    _fundamental_forms,
    calabi_check,
    minimality_residual,
    minimality_residuals,
    verify_all,
)
from holosphere.products import _pair_minors_max

from conftest import (
    GAMMA_ORACLES,
    calabi_table,
    report_text,
    stencil_field,
    sweep_block,
)

CENTRES = np.array([0.31 + 0.17j, -0.42 + 0.33j, 0.05 - 0.61j, -0.2 - 0.1j])


ORDERS = [[(0, 0)], [(1, 0)], [(0, 1)], [(1, 1)], [(2, 0)], [(3, 0)], [(4, 0)],
          [(0, 0), (1, 0), (1, 1), (2, 0)]]


@pytest.mark.parametrize("orders", ORDERS,
                         ids=[f"order{i}" for i in range(len(ORDERS))])
def test_wirtinger_over_centres_matches_one_centre(surface_n2, orders):
    # the default step of the highest order, which every order shares
    h = default_step(2.0, max(max(j + k for j, k in orders), 1))
    together = wirtinger(surface_n2, CENTRES, orders, h)
    assert len(together) == len(orders)
    for order, found in zip(orders, together):
        assert found.shape == (CENTRES.size, surface_n2.dim)
        # the orders of one call get the arithmetic of one-order calls
        alone, = wirtinger(surface_n2, CENTRES, [order], h)
        assert_same_bits(found, alone)
        for z, row in zip(CENTRES, found):
            assert_same_bits(row, wirtinger(surface_n2, z, [order], h)[0])


# centres that fit both margins, only the smaller, neither, and one that
# the mask drops
PLANNED = np.array([0.31 + 0.17j, 1 - 2e-3 + 0.1j, -0.4 + 0.3j, 1 - 1e-3 - 0.2j,
                    0.5j])
PLANNED_WHERE = np.array([True, True, True, True, False])


def test_derivatives_give_each_read_its_one_order_call(surface_n2):
    h = 1e-3
    small, large = stencil_halfwidth(1, h), stencil_halfwidth(3, h)
    reads = [(large, h, (1, 0)), (small, h, (1, 1)), (large, h, (2, 0))]
    found = derivatives(surface_n2, PLANNED, reads, surface_n2.domain,
                        where=PLANNED_WHERE)
    assert len(found) == len(reads)
    for (margin, step, order), values in zip(reads, found):
        fits = PLANNED_WHERE & surface_n2.domain.contains(PLANNED, margin=margin)
        assert fits.any() and not fits.all()
        want, = wirtinger(surface_n2, PLANNED[fits], [order], step)
        assert_same_bits(values[fits], want)
        assert np.isnan(values[~fits]).all()


def test_derivatives_evaluate_each_step_once(surface_n2):
    sizes = []

    def counted(zs):
        sizes.append(zs.size)
        return surface_n2(zs)

    h1, h2 = 1e-3, 4e-3
    small, large = stencil_halfwidth(1, h1), stencil_halfwidth(1, h2)
    reads = [(large, h1, (1, 0)), (small, h1, (0, 1)), (large, h2, (1, 0))]
    derivatives(counted, PLANNED, reads, surface_n2.domain, where=PLANNED_WHERE)
    # a first-order stencil has four points, and each step is evaluated
    # over the centres of the smallest margin that reads it
    centres = [np.count_nonzero(PLANNED_WHERE & surface_n2.domain.contains(
        PLANNED, margin=margin)) for margin in (small, large)]
    assert centres == [3, 2]
    assert sizes == [4 * centres[0], 4 * centres[1]]


def test_minimality_and_calabi_over_centres(surface_n2):
    diameter = surface_n2.domain.diameter
    gz = surface_n2(CENTRES)
    dg, lap = wirtinger(surface_n2, CENTRES, [(1, 0), (1, 1)], default_step(diameter, 1))
    resid, _ = minimality_residuals(gz, dg, lap)
    derivs = [wirtinger(surface_n2, CENTRES, [(j, 0)], default_step(diameter, j))[0]
              for j in (1, 2, 3)]
    pairs, values = geometry._calabi_values([gz.astype(complex)] + derivs)
    assert not np.isnan(values).any()
    for z, r, row in zip(CENTRES, resid, values):
        assert r == minimality_residual(surface_n2, z)
        table = calabi_table(pairs, row)
        assert table == calabi_check(surface_n2, 3, z)


def test_recursion_over_centres(chain_n3):
    base = f_chain_eval(chain_n3, CENTRES)
    h = 1e-4 * chain_n3.domain.diameter
    dfield, = wirtinger(stencil_field(chain_n3), CENTRES, [(1, 0)], h=h)
    together = recursion_residuals(base, dfield[:, 1:4])
    for z, value in zip(CENTRES, together):
        assert value == recursion_crosscheck(chain_n3, z)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_surface_evaluator_matches_surface_vectors(n):
    # one surface normalization: the black-box surface and the FD field
    # round exactly as the grid scan does
    chain = build_alpha_chain(["1+0.2*z", "z^2+1", "1-0.4*i*z", "2+z", "1"][:n])
    zs, inside = chain.domain.grid(30, 30)
    g = f_chain_eval(chain, zs[inside]).g
    assert_same_bits(SurfaceEvaluator.from_chain(chain)(zs[inside]), g)
    assert_same_bits(stencil_field(chain)(zs[inside])[:, 0], g.astype(complex))


def test_kaehler_and_ruled_over_points(chain_n2, chain_n3):
    kp = KaehlerParams.create("1+x^2+y^2", [0.05 + 0.02j])
    valid, values = kaehler_map(chain_n2, kp)(f_chain_eval(chain_n2, CENTRES))
    assert valid.all()
    for z, row in zip(CENTRES, values):
        assert np.array_equal(row, kaehler_point(chain_n2, kp, z))
    rp = RuledParams.create([0.07 + 0.03j])
    valid, values = ruled_map(chain_n3, rp)(f_chain_eval(chain_n3, CENTRES))
    assert valid.all()
    for z, row in zip(CENTRES, values):
        assert np.array_equal(row, ruled_point(chain_n3, rp, z))


def test_degenerate_rows_are_masked_not_raised():
    chain = build_alpha_chain(["z", "1"])
    params = KaehlerParams.create("1", [0j])
    batch = f_chain_eval(chain, np.array([0j, 0.5 + 0.25j]))
    valid, values = kaehler_map(chain, params)(batch)
    assert list(valid) == [False, True]
    assert np.all(np.isnan(values[0]))
    assert np.all(np.isfinite(values[1]))
    with pytest.raises(SingularPointError, match=r"chain degenerates at z=0j"):
        kaehler_point(chain, params, 0j)


def test_masking_reaches_only_centres_touching_a_degenerate_point():
    # the chain of betas (z, 1) degenerates at z = 0; with h = 0.5 the
    # stencils of the centres +-0.5 and +-0.5i reach it
    chain = build_alpha_chain(["z", "1"], domain=Domain.rectangle(-2 - 2j, 2 + 2j, 0j))
    g = SurfaceEvaluator.from_chain(chain)
    centres = np.array([0.5 + 0j, 1.0 + 0.5j, 0.5j])

    def residuals(zs):
        dz, dzdbar = wirtinger(stencil_field(chain), zs, [(1, 0), (1, 1)], h=0.5)
        gz = f_chain_eval(chain, zs).g
        return minimality_residuals(gz, dz[:, 0], dzdbar[:, 0])[0]

    resid = residuals(centres)
    assert np.isnan(resid[0]) and np.isnan(resid[2])
    assert resid[1] == residuals(centres[1:2])[0]
    # the black-box surface, differentiated at the same step, agrees where
    # the stencil misses z = 0 and raises where it reaches it
    dg, lap = wirtinger(g, centres[1:2], [(1, 0), (1, 1)], h=0.5)
    assert resid[1] == pytest.approx(
        minimality_residuals(g(centres[1:2]), dg, lap)[0][0], rel=1e-9)
    with pytest.raises(SingularPointError):
        wirtinger(g, centres[:1], [(1, 0), (1, 1)], h=0.5)


@pytest.mark.parametrize("betas", [["1+0.2*z"], ["1+0.2*z", "z^2+1"],
                                   ["1+0.2*z", "z^2+1", "1-0.4*i*z"],
                                   ["z", "1"], ["z", "1", "1"]])
@pytest.mark.parametrize("domain", [Domain.rectangle(-1 - 1j, 1 + 1j, 0j),
                                    Domain.disk(0j, 1.0)],
                         ids=["rectangle", "disk"])
def test_report_scan_matches_scan_grid(betas, domain):
    # the grid of verify_all is the grid of scan_grid, evaluated once;
    # on the 9 x 9 grid the chains of beta_0 = z degenerate at z = 0
    chain = build_alpha_chain(betas, domain=domain)
    got = verify_all(chain, grid=(9, 9)).scan
    want = scan_grid(chain, 9, 9)
    for field in dataclasses.fields(GridScan):
        assert_same_bits(getattr(got, field.name), getattr(want, field.name))
    assert got.singular[4, 4] == (betas[0] == "z")


def test_counts_match_records(chain_n2):
    report = verify_all(chain_n2, grid=(7, 7))
    assert set(report.counts) == set(report.summary) == set(report.residuals)
    doc = json.loads(report_text(report))
    points = doc["points"]
    for fam, count in report.counts.items():
        evaluated = sum(fam in point["residuals"] for point in points)
        assert evaluated == np.count_nonzero(~np.isnan(report.residuals[fam]))
        assert count == {"evaluated": evaluated, "skipped": 49 - evaluated}
    assert doc["counts"] == report.counts


# ---------------------------------------------------------------------------
# Oracle: one-point loops of every batched reduction, kept here as
# reference code.  The batched results agree with them to roundoff
# (`assert_close`: 1e-13 relative, 1e-14 absolute, NaN at the same
# places).  Where the batched path runs the same arithmetic as its
# one-point call, the bits are compared (`assert_same_bits`, as int64
# views, so even -0.0 against 0.0 counts as a difference).
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden"


def _bits(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = a.view(float)
    return np.asarray(a, dtype=float).view(np.int64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)


# -- reference code ---------------------------------------------------------

def ref_apply_perturbation(F, perturb):
    target = perturb.get("target", "F2")
    magnitude = float(perturb.get("magnitude", 1e-3))
    idx = int(target.lstrip("F")) - 1
    F = F.copy()
    direction = F[0] / np.linalg.norm(F[0])
    F[idx] = F[idx] + magnitude * np.linalg.norm(F[idx]) * direction
    return F


def ref_fundamental_form(batch, g, i, s=0):
    n = batch.F.shape[1] - 1
    F, norms_sq = batch.F[i], batch.norms_sq[i]
    pairing = complex(np.dot(g[i].astype(complex), F[-1]))
    coeff = ((-1) ** (s + 1)) * pairing / norms_sq[n - s - 1]
    return coeff * np.conj(F[n - s - 1])


def ref_each(sw, mask, point):
    values = np.full(sw.z.size, np.nan)
    for i in np.flatnonzero(mask):
        values[i] = point(i)
    return values


def ref_isotropy(sw):
    def point(i):
        F, norms = sw.F[i], sw.norms[i]
        iso = 0.0
        for j in range(sw.chain.n):
            for k in range(j, sw.chain.n):
                iso = max(iso, abs(np.dot(F[j], F[k])) / (norms[j] * norms[k]))
        return iso

    return ref_each(sw, sw.regular, point)


def ref_hermitian_orthogonality(sw):
    def point(i):
        F, norms = sw.F[i], sw.norms[i]
        herm = 0.0
        for j in range(sw.chain.n + 1):
            for k in range(j + 1, sw.chain.n + 1):
                val = abs(np.dot(F[j], np.conj(F[k]))) / (norms[j] * norms[k])
                herm = max(herm, val)
        return herm

    return ref_each(sw, sw.regular, point)


def ref_collinearity(sw):
    def point(i):
        F, norms = sw.F[i], sw.norms[i]
        u, v = F[-1], np.conj(F[-1])
        minors = np.abs(u[:, None] * v[None, :] - u[None, :] * v[:, None])
        return float(minors.max()) / (norms[-1] ** 2)

    return ref_each(sw, sw.regular, point)


def ref_circularity(sw):
    def point(i):
        circ = 0.0
        for s in range(sw.chain.n):
            a = ref_fundamental_form(sw.batch, sw.g, i, s)
            circ = max(circ, abs(np.dot(a, a)) / float(np.real(np.dot(a, np.conj(a)))))
        return circ

    return ref_each(sw, sw.ok, point)


def ref_over(sw, run):
    return run(np.arange(sw.z.size), sw.dz, sw.dzdbar)


def ref_recursion_residuals(base, dF):
    n = dF.shape[1]
    derivs = [base.jets[:, 1]] + [dF[:, idx] for idx in range(1, n)]
    touched = ~np.isfinite(dF).reshape(len(dF), -1).all(axis=1)
    out = np.full(base.z.size, np.nan)
    for b in np.flatnonzero(~touched):
        worst = 0.0
        for idx, dFs in enumerate(derivs):
            dFs, Fs = dFs[b], base.F[b, idx]
            coef = np.dot(dFs, np.conj(Fs)) / base.norms_sq[b, idx]
            literal = dFs - coef * Fs
            ref = base.F[b, idx + 1]
            dev = np.linalg.norm(literal - ref) / np.linalg.norm(ref)
            worst = max(worst, float(dev))
        out[b] = worst
    return out


def ref_recursion(sw):
    n = sw.chain.n
    return ref_over(sw, lambda idx, dz, _: ref_recursion_residuals(sw.batch,
                                                                   dz[:, 1:n + 1]))


def ref_fbar_identity(sw):
    n = sw.chain.n

    def run(idx, dz, _):
        dbar = dz[:, n + 1:]
        out = np.full(idx.size, np.nan)
        for b in np.flatnonzero(geometry._finite_rows(dbar)):
            F, norms_sq = sw.batch.F[idx[b]], sw.batch.norms_sq[idx[b]]
            fbar = 0.0
            for s in range(2, n + 1):
                ratio = norms_sq[s - 1] / norms_sq[s - 2]
                resid = np.linalg.norm(dbar[b, s - 2] + ratio * np.conj(F[s - 2]))
                scale = norms_sq[s - 1] / np.sqrt(norms_sq[s - 2])
                fbar = max(fbar, float(resid / scale))
            out[b] = fbar
        return out

    return ref_over(sw, run)


def ref_tangent_formula(sw):
    def run(idx, dz, _):
        dg = dz[:, 0]
        out = np.full(idx.size, np.nan)
        for b in np.flatnonzero(geometry._finite_rows(dg)):
            tangent = ref_fundamental_form(sw.batch, sw.g, idx[b], 0)
            out[b] = float(np.linalg.norm(dg[b] - tangent) / np.linalg.norm(tangent))
        return out

    return ref_over(sw, run)


def ref_minimality_residuals(gz, dg, lap):
    gx, gy = 2.0 * dg.real, -2.0 * dg.imag
    quarter_lap = lap.real
    resid = np.full(len(gz), np.nan)
    energy = np.full(len(gz), np.nan)
    for b in np.flatnonzero(geometry._finite_rows(gz, dg, quarter_lap)):
        e = float(np.dot(gx[b], gx[b]) + np.dot(gy[b], gy[b]))
        energy[b] = e
        if e < geometry._DEGENERATE_DIFFERENTIAL:
            continue
        q, _ = np.linalg.qr(np.stack([gz[b], gx[b], gy[b]], axis=1))
        r = quarter_lap[b] - q @ (q.T @ quarter_lap[b])
        resid[b] = float(np.linalg.norm(r)) / e
    return resid, energy


def ref_minimality(sw):
    return ref_over(sw, lambda idx, dz, dzdbar: ref_minimality_residuals(
        sw.g[idx], dz[:, 0], dzdbar[:, 0])[0])


def ref_calabi_tables(derivs):
    max_order = len(derivs) - 1
    tables = [None] * len(derivs[0])
    for b in np.flatnonzero(geometry._finite_rows(*derivs)):
        table = {}
        for j in range(max_order + 1):
            for k in range(j, max_order + 1):
                if j + k == 0 or j + k > max_order:
                    continue
                val = abs(complex(np.dot(derivs[j][b], derivs[k][b])))
                table[(j, k)] = val
                table[(k, j)] = val
        tables[b] = table
    return tables


def ref_sweep_tables(sw):
    return ref_calabi_tables(sw.calabi_derivs)


def ref_calabi(sw):
    tables = ref_sweep_tables(sw)
    found = np.array([t is not None for t in tables], dtype=bool)
    return ref_each(sw, found, lambda i: max(tables[i].values()))


REFERENCE_FAMILIES = {
    "isotropy": ref_isotropy,
    "hermitian_orthogonality": ref_hermitian_orthogonality,
    "collinearity": ref_collinearity,
    "circularity": ref_circularity,
    "recursion": ref_recursion,
    "fbar_identity": ref_fbar_identity,
    "tangent_formula": ref_tangent_formula,
    "minimality": ref_minimality,
    "calabi": ref_calabi,
}


def ref_gamma_values(gamma, z):
    val, gx, gy = GAMMA_ORACLES[gamma](z.real, z.imag)
    return val, 0.5 * (gx - 1j * gy)


def ref_kaehler_base(batch, g, params, gamma):
    n = batch.F.shape[1] - 1
    base = np.full(g.shape, np.nan)
    for i in np.flatnonzero(~np.isnan(g[:, 0])):
        F, norms_sq = batch.F[i], batch.norms_sq[i]
        weight, gamma_z = ref_gamma_values(gamma, complex(batch.z[i]))
        re_top = F[-1].real
        re_norm = float(np.linalg.norm(re_top))
        pairing = complex(np.dot(g[i].astype(complex), F[-1]))
        metric = abs(pairing) ** 2 / norms_sq[n - 1]
        corr = complex(np.dot(re_top.astype(complex), np.conj(F[-1])))
        middle = -(2.0 / (metric * norms_sq[n - 1] * re_norm)) * np.real(
            gamma_z * corr * F[n - 1]
        )
        base[i] = weight * g[i] + middle
    return base


def ref_ruled_value(F, g, w):
    wvec = applications._normal_terms(F, np.array(w, dtype=complex))
    t = float(np.linalg.norm(wvec))
    return np.cos(t) * g + np.sinc(t / np.pi) * wvec


def ref_ruled_probe(chain, params, z, h, det_threshold=1e-10):
    u0, v0 = params.w[0].real, params.w[0].imag
    offsets = [(dx, dy) for dx in (-h, 0.0, h) for dy in (-h, 0.0, h)]
    batch = f_chain_eval(
        chain, np.array([z + (dx + 1j * dy) for dx, dy in offsets])
    )
    g = batch.g
    if np.isnan(g).any():
        return np.nan
    row = {offset: i for i, offset in enumerate(offsets)}

    def X(dx=0.0, dy=0.0, du=0.0, dv=0.0):
        i = row[(dx, dy)]
        return ref_ruled_value(batch.F[i], g[i], (complex(u0 + du, v0 + dv),))

    axes = ("dx", "dy", "du", "dv")
    center = X()
    first = [(X(**{a: h}) - X(**{a: -h})) / (2 * h) for a in axes]
    second = np.empty((4, 4, center.size))
    for i, ai in enumerate(axes):
        for j, aj in enumerate(axes):
            if j < i:
                second[i, j] = second[j, i]
            elif i == j:
                second[i, i] = (X(**{ai: h}) - 2 * center + X(**{ai: -h})) / (h * h)
            else:
                pp = X(**{ai: h, aj: h})
                pm = X(**{ai: h, aj: -h})
                mp = X(**{ai: -h, aj: h})
                mm = X(**{ai: -h, aj: -h})
                second[i, j] = (pp - pm - mp + mm) / (4 * h * h)
    tangents = np.stack(first, axis=0)
    gram = tangents @ tangents.T
    det = float(np.linalg.det(gram))
    norm_scale = float(np.prod(np.diag(gram))) or 1.0
    if det < det_threshold * norm_scale:
        return np.nan
    trace_vec = np.einsum("ij,ijd->d", np.linalg.inv(gram), second)
    basis = np.concatenate([center[None, :], tangents], axis=0).T
    q, _ = np.linalg.qr(basis)
    normal_part = trace_vec - q @ (q.T @ trace_vec)
    return float(np.linalg.norm(normal_part)) / 4.0


# -- cases ------------------------------------------------------------------

def _golden_sweep(case):
    cfg = load_config(GOLDEN / case / "config.json")
    chain = build_alpha_chain(cfg.betas, cfg.constants, cfg.domain)
    return chain, cfg.grid, cfg.fd_step, cfg.calabi_order, cfg.perturb


SWEEPS = {
    # singular at the grid centre z = 0
    "degenerate2": lambda: (build_alpha_chain(["z", "1"]), (9, 9), None, 2, None),
    "degenerate3": lambda: (build_alpha_chain(["z", "1", "1"]), (9, 9), None, 3,
                            {"target": "F2", "magnitude": 1e-3}),
    # perturb F3 by 1e-6, calabi table to order 4, a disk domain
    "disk2": lambda: _golden_sweep("disk2"),
    # stencils of h = 0.5 reach the singular point from four centres
    "stencil_hits_singular": lambda: _golden_sweep("stencil_hits_singular"),
    "poly3": lambda: (build_alpha_chain(["1+0.2*z", "z^2+1", "1-0.4*i*z"]), (8, 8),
                      None, 2, None),
}


def _sweep(name):
    chain, grid, fd_step, calabi_order, perturb = SWEEPS[name]()
    h = fd_step if fd_step is not None else default_step(chain.domain.diameter, 1)
    zs, inside = chain.domain.grid(*grid)
    return sweep_block(chain, zs[inside], h, calabi_order, perturb), perturb


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_families_match_one_point_loops(name):
    sw, perturb = _sweep(name)
    if name.startswith("degenerate"):
        assert sw.batch.singular.any()
    if perturb:
        want = sw.batch.F.copy()
        for i in np.flatnonzero(sw.regular):
            want[i] = ref_apply_perturbation(want[i], perturb)
        assert_close(sw.F, want)
    for fam, (_, family) in geometry.FAMILIES.items():
        found = family(sw)
        if found is None:
            continue
        assert_close(found, REFERENCE_FAMILIES[fam](sw))
    # the sweep's derivatives are those of one-order calls on its field at
    # the centres whose stencil fits, NaN elsewhere
    chain, _, fd_step, calabi_order, _ = SWEEPS[name]()
    diameter = chain.domain.diameter
    h = fd_step if fd_step is not None else default_step(diameter, 1)

    def one_order(order, step, margin):
        idx = np.flatnonzero(sw.ok & chain.domain.contains(sw.z, margin=margin))
        want, = wirtinger(stencil_field(sw.chain), sw.z[idx], [order], step)
        values = np.full((sw.z.size,) + want.shape[1:], np.nan, dtype=complex)
        values[idx] = want
        return values

    for order, found in (((1, 0), sw.dz), ((1, 1), sw.dzdbar)):
        assert_same_bits(found, one_order(order, h, stencil_halfwidth(1, h)))
    top = stencil_halfwidth(calabi_order, default_step(diameter, calabi_order))
    assert_same_bits(sw.calabi_derivs[0], sw.g.astype(complex))
    for j, found in enumerate(sw.calabi_derivs[1:], 1):
        assert_same_bits(found, one_order((j, 0), default_step(diameter, j), top)[:, 0])
    pairs, values = sw.calabi
    for table, row in zip(ref_sweep_tables(sw), values):
        assert (table is not None) == (not np.isnan(row).all())
        if table is not None:
            got = calabi_table(pairs, row)
            assert list(got) == list(table)
            assert_close(list(got.values()), list(table.values()))


def _random_points(count, seed):
    rng = np.random.default_rng(seed)
    return 0.95 * (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count))


@pytest.mark.parametrize("betas", [["1+0.2*z", "z^2+1"], ["z", "1", "1"]])
def test_algebraic_families_match_loops_at_many_points(betas):
    chain = build_alpha_chain(betas)
    zs = _random_points(3000, len(betas))
    sw = sweep_block(chain, zs, 1e-4, 0, {"target": "F2", "magnitude": 1e-3})
    for fam in ("isotropy", "hermitian_orthogonality", "collinearity", "circularity"):
        assert_close(geometry.FAMILIES[fam][1](sw), REFERENCE_FAMILIES[fam](sw))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_report_summary_matches_record_scan(name):
    chain, grid, fd_step, calabi_order, perturb = SWEEPS[name]()
    report = verify_all(chain, grid=grid, fd_step=fd_step, calabi_order=calabi_order,
                        perturb=perturb)
    summary, worst = {}, {}
    for point in json.loads(report_text(report))["points"]:
        for fam, val in point["residuals"].items():
            if fam not in summary or val > summary[fam]:
                summary[fam] = val
                worst[fam] = complex(*point["z"])
    assert report.summary == summary and report.worst_point == worst
    assert_same_bits(list(report.summary.values()),
                     [summary[fam] for fam in report.summary])


@pytest.mark.parametrize("name", ["degenerate2", "degenerate3", "poly3"])
def test_fundamental_forms_match_one_point_formula(name):
    sw, _ = _sweep(name)
    for i in np.flatnonzero(sw.ok):
        for s in range(sw.chain.n):
            b = sw.batch
            assert_close(_fundamental_forms(b.F[[i]], b.norms_sq[[i]], b.g[[i]], [s])[0, 0],
                         ref_fundamental_form(sw.batch, sw.g, i, s))


@pytest.mark.parametrize("name", ["degenerate2", "degenerate3", "poly3"])
def test_recursion_and_minimality_over_centres_match_loops(name):
    sw, _ = _sweep(name)
    dF = sw.dz[:, 1:sw.chain.n + 1]
    assert_close(recursion_residuals(sw.batch, dF),
                 ref_recursion_residuals(sw.batch, dF))
    for got, want in zip(minimality_residuals(sw.g, sw.dz[:, 0], sw.dzdbar[:, 0]),
                         ref_minimality_residuals(sw.g, sw.dz[:, 0], sw.dzdbar[:, 0])):
        assert_close(got, want)


def test_pair_minors_max_matches_one_pair():
    rng = np.random.default_rng(5)
    u = rng.normal(size=(50, 7)) + 1j * rng.normal(size=(50, 7))
    for row in u:
        minors = np.abs(row[:, None] * np.conj(row)[None, :]
                        - row[None, :] * np.conj(row)[:, None])
        assert_same_bits(_pair_minors_max(row[None], np.conj(row)[None])[0],
                         float(minors.max()))


GAMMAS = ["1+x^2+y^2", "2+x-0.5*y^2"]


@pytest.mark.parametrize("gamma", GAMMAS + ["exp(x)*cos(y)+1", "(1+x)^3/(2+y)",
                                   "sin(x*y)-x^5/(3+y^2)"])
def test_gamma_values_on_arrays_match_scalar_calls(gamma):
    params = KaehlerParams.create(gamma, [0j])
    rng = np.random.default_rng(11)
    zs = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    val, gz = params.gamma_values(zs)
    want = [ref_gamma_values(gamma, complex(z)) for z in zs]
    assert_close(val, [v for v, _ in want])
    assert_close(gz, [d for _, d in want])
    one = params.gamma_values(complex(zs[0]))
    assert type(one[0]) is float and type(one[1]) is complex
    assert_close(one, (val[0], gz[0]))


KAEHLER_CHAINS = {
    "demo2": (["1", "1"], [0.05 + 0.02j]),
    "degenerate2": (["z", "1"], [0.05 + 0.02j]),
    "poly3": (["1+0.2*z", "z^2+1", "1-0.4*i*z"], [0.05 + 0.02j, -0.03 + 0.01j]),
}


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("name", sorted(KAEHLER_CHAINS))
def test_kaehler_base_matches_one_point_loop(name, gamma):
    betas, w = KAEHLER_CHAINS[name]
    chain = build_alpha_chain(betas)
    params = KaehlerParams.create(gamma, w)
    zs, inside = chain.domain.grid(11, 11)
    batch = f_chain_eval(chain, zs[inside])
    assert_close(applications._kaehler_base(batch, params),
                 ref_kaehler_base(batch, batch.g, params, gamma))


def test_kaehler_base_matches_one_point_loop_at_many_points():
    chain = build_alpha_chain(["1+0.2*z", "z^2+1"])
    params = KaehlerParams.create(GAMMAS[0], [0.05 + 0.02j])
    batch = f_chain_eval(chain, _random_points(3000, 7))
    assert_close(applications._kaehler_base(batch, params),
                 ref_kaehler_base(batch, batch.g, params, GAMMAS[0]))


@pytest.mark.parametrize("betas", [["1", "1", "1"], ["z", "1", "1"],
                                   ["1+0.2*z", "z^2+1", "1-0.4*i*z"]])
def test_ruled_map_matches_one_point_loop(betas):
    chain = build_alpha_chain(betas)
    params = RuledParams.create([0.07 + 0.03j])
    zs, inside = chain.domain.grid(11, 11)
    batch = f_chain_eval(chain, zs[inside])
    _, values = ruled_map(chain, params)(batch)
    g = batch.g
    want = np.full(g.shape, np.nan)
    for i in np.flatnonzero(~np.isnan(g[:, 0])):
        want[i] = ref_ruled_value(batch.F[i], g[i], params.w)
    assert_close(values, want)


# the probes of test_ruled_probes_match_one_probe_loop that are NaN at each
# metric threshold; their metrics' det / (product of the diagonal) read
# 0.971, -, 0.977, 0.969 and 0.977, so at 0.975 one call mixes regular,
# near-degenerate and singular-stencil probes
RULED_PROBE_NANS = {1e-10: [False, True, False, False, False],
                    0.975: [True, True, False, True, False],
                    1e12: [True] * 5}


@pytest.mark.parametrize("det_threshold", [1e-10, 0.975, 1e12])
def test_ruled_probes_match_one_probe_loop(det_threshold, monkeypatch):
    # five probes of the chain of betas (z, 1, 1), singular at z = 0: the
    # stencil of the second probe reaches it
    chain = build_alpha_chain(["z", "1", "1"])
    params = RuledParams.create([0.07 + 0.03j])
    h = 1e-3 * chain.domain.diameter
    centres = np.array([0.31 + 0.17j, h + h * 1j, -0.4 + 0.25j, 0.1 - 0.3j,
                        -0.22 - 0.41j])
    monkeypatch.setattr(applications, "_DET_THRESHOLD", det_threshold)
    found = ruled_minimality_probe(chain, params, centres)
    assert np.isnan(found).tolist() == RULED_PROBE_NANS[det_threshold]
    for z, res in zip(centres, found):
        # NaN where the reference flags the probe, its bits elsewhere
        assert_same_bits(res, ref_ruled_probe(chain, params, z, h, det_threshold))
        assert_same_bits(ruled_minimality_probe(chain, params, np.array([z])),
                         [res])


def test_ruled_probes_leave_the_domain_at_the_first_bad_centre():
    chain = build_alpha_chain(["1", "1", "1"])
    params = RuledParams.create([0.07 + 0.03j])
    with pytest.raises(DomainError, match=r"z=\(0\.9999"):
        ruled_minimality_probe(chain, params, np.array([0.2j, 0.9999 + 0j, 2j]))
