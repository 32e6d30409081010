"""Acceptance gate: every criterion checked at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are fixed here; nothing is calibrated at
runtime.
"""

import numpy as np
import pytest

from holosphere import (
    build_alpha_chain,
    f_chain_eval,
    recursion_crosscheck,
)
from holosphere.applications import (
    KaehlerParams,
    RuledParams,
    kaehler_immersion_check,
    kaehler_point,
    kaehler_point_reference,
    ruled_minimality_probe,
    ruled_point,
    ruling_geodesic_residual,
)
from holosphere.fd import default_step, wirtinger
from holosphere.geometry import (
    SurfaceEvaluator,
    calabi_check,
    chain_fundamental_form,
    minimality_residual,
    verify_all,
)
from holosphere.products import pair_minors_max
from holosphere.reconstruct import roundtrip

from conftest import oracle_surface_n1

GRID = (10, 10)


@pytest.fixture(scope="module")
def chains():
    return {n: build_alpha_chain(["1"] * n) for n in (1, 2, 3)}


@pytest.fixture(scope="module")
def surfaces(chains):
    return {n: SurfaceEvaluator.from_chain(chains[n]) for n in (1, 2, 3)}


def _report(number, description, value, tolerance):
    ok = value <= tolerance
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {description}: "
        f"max {value:.3e} <= {tolerance:.1e}"
    )
    assert ok, f"criterion {number}: {description}: {value:.3e} > {tolerance:.1e}"


def _interior_points(chain, margin_frac=0.05):
    zs, _ = chain.domain.grid(*GRID)
    margin = margin_frac * chain.domain.diameter
    return [
        complex(z) for z in zs.ravel() if chain.domain.contains(z, margin=margin)
    ]


def test_criterion_01_chain_invariants(chains):
    worst = 0.0
    for n in (1, 2, 3):
        zs, inside = chains[n].domain.grid(*GRID)
        batch = f_chain_eval(chains[n], zs[inside])
        assert not batch.singular.any()
        for F, norms_sq in zip(batch.F, batch.norms_sq):
            norms = np.sqrt(norms_sq)
            for j in range(n):
                for k in range(j, n):
                    worst = max(
                        worst, abs(np.dot(F[j], F[k])) / (norms[j] * norms[k])
                    )
            for j in range(n + 1):
                for k in range(j + 1, n + 1):
                    worst = max(
                        worst,
                        abs(np.dot(F[j], np.conj(F[k]))) / (norms[j] * norms[k]),
                    )
            worst = max(
                worst, pair_minors_max(F[-1], np.conj(F[-1])) / norms_sq[-1]
            )
    _report(1, "isotropy/orthogonality/collinearity, n=1..3", worst, 1e-9)


def test_criterion_02_conjugate_descent(chains):
    worst = 0.0
    for n in (2, 3):
        chain = chains[n]
        h = 1e-4 * chain.domain.diameter
        for z in _interior_points(chain)[::3]:
            base = f_chain_eval(chain, [z])
            stencil = np.array([z + h, z - h, z + 1j * h, z - 1j * h])
            batch = f_chain_eval(chain, stencil)
            for s in range(2, n + 1):
                idx = s - 1
                fbar = np.conj(batch.F[:, idx])
                dx = (fbar[0] - fbar[1]) / (2 * h)
                dy = (fbar[2] - fbar[3]) / (2 * h)
                dbar = 0.5 * (dx - 1j * dy)
                ratio = base.norms_sq[0, idx] / base.norms_sq[0, idx - 1]
                resid = np.linalg.norm(dbar + ratio * np.conj(base.F[0, idx - 1]))
                scale = base.norms_sq[0, idx] / np.sqrt(base.norms_sq[0, idx - 1])
                worst = max(worst, float(resid / scale))
    _report(2, "conjugate-descent identity, s=2..n, n=2,3", worst, 1e-5)


def test_criterion_03_recursion_equivalence(chains):
    worst = 0.0
    for n in (1, 2, 3):
        chain = chains[n]
        for z in _interior_points(chain)[::3]:
            worst = max(worst, recursion_crosscheck(chain, z))
    _report(3, "orthogonalized chain vs literal recursion", worst, 1e-5)


def test_criterion_04_closed_form_n1(chains):
    chain = chains[1]
    zs, _ = chain.domain.grid(*GRID)
    worst = 0.0
    for z in zs.ravel():
        g = f_chain_eval(chain, [z]).g[0]
        worst = max(
            worst,
            float(np.linalg.norm(g - oracle_surface_n1(complex(z), 1 + 0j))),
        )
    _report(4, "n=1 surface vs closed-form oracle", worst, 1e-10)


def test_criterion_05_minimality(chains, surfaces):
    worst = 0.0
    for n in (1, 2, 3):
        for z in _interior_points(chains[n]):
            worst = max(worst, minimality_residual(surfaces[n], z))
    _report(5, "minimality residual, n=1..3, interior grid", worst, 1e-5)


def test_criterion_06_calabi_table(surfaces):
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(10):
        z = complex(*(rng.uniform(-0.6, 0.6, size=2)))
        table = calabi_check(surfaces[2], 4, z)
        worst = max(worst, max(table.values()))
    _report(6, "derivative products up to total order 4, n=2", worst, 1e-4)


def test_criterion_07_tangent_and_higher_forms(chains, surfaces):
    worst_tangent = 0.0
    worst_circular = 0.0
    for n in (2, 3):
        chain = chains[n]
        for z in _interior_points(chain)[::7]:
            batch = f_chain_eval(chain, [z])
            tangent = chain_fundamental_form(batch, 0, 0)
            fd, = wirtinger(surfaces[n], z, [(1, 0)], default_step(chain.domain.diameter, 1))
            worst_tangent = max(
                worst_tangent,
                float(np.linalg.norm(fd - tangent) / np.linalg.norm(tangent)),
            )
            for s in range(n):
                vec = chain_fundamental_form(batch, 0, s)
                scale = float(np.real(np.dot(vec, np.conj(vec))))
                worst_circular = max(worst_circular, abs(np.dot(vec, vec)) / scale)
    _report(7, "tangent formula vs FD", worst_tangent, 1e-5)
    _report(7, "circular-ellipse self-products", worst_circular, 1e-9)


def test_criterion_08_roundtrip(surfaces):
    sup1 = roundtrip(surfaces[1], grid=(8, 8), sample_grid=(33, 33)).sup_distance
    _report(8, "roundtrip n=1", sup1, 1e-3)
    sup2 = roundtrip(surfaces[2], grid=(8, 8), sample_grid=(41, 41)).sup_distance
    _report(8, "roundtrip n=2", sup2, 1e-2)
    sup3 = roundtrip(surfaces[3], grid=(8, 8), sample_grid=(33, 33)).sup_distance
    _report(8, "roundtrip n=3", sup3, 1e-2)
    for label, gauge, tol in (
        ("n=1 gauge 2", lambda zs: 2.0 * np.ones_like(zs), 1e-3),
        ("n=1 gauge exp", np.exp, 1e-3),
        ("n=2 gauge 2", lambda zs: 2.0 * np.ones_like(zs), 1e-2),
        ("n=2 gauge exp", np.exp, 1e-2),
    ):
        n = 1 if "n=1" in label else 2
        sample = (33, 33) if n == 1 else (41, 41)
        sup = roundtrip(
            surfaces[n], grid=(8, 8), sample_grid=sample, gauge=gauge
        ).sup_distance
        _report(8, f"roundtrip {label}", sup, tol)


def test_criterion_09_kaehler(chains):
    chain = chains[2]
    gamma = "1+x^2+y^2"
    base = KaehlerParams.create(gamma, [0.05 + 0.02j])

    # exact affineness in the normal parameters
    d = 1e-3
    worst_affine = 0.0
    for z in (0.31 + 0.17j, -0.2 - 0.4j):
        for direction in (d, 1j * d):
            plus = KaehlerParams.create(gamma, [0.05 + 0.02j + direction])
            minus = KaehlerParams.create(gamma, [0.05 + 0.02j - direction])
            spread = (
                kaehler_point(chain, plus, z)
                + kaehler_point(chain, minus, z)
                - 2 * kaehler_point(chain, base, z)
            )
            worst_affine = max(worst_affine, float(np.linalg.norm(spread)))
    _report(9, "affineness in normal parameters", worst_affine, 1e-12)

    report = kaehler_immersion_check(
        chain, base, z_grid=(5, 5), w_box=(-0.1, 0.1), w_samples=3
    )
    _report(9, "non-regular fraction on sample box",
            1.0 - report.fraction_regular, 0.05)

    worst_closed = 0.0
    for z in (0.31 + 0.17j, -0.42 + 0.33j, 0.5 - 0.5j):
        closed = kaehler_point(chain, base, z)
        ref = kaehler_point_reference(chain, base, z)
        worst_closed = max(worst_closed, float(np.linalg.norm(closed - ref)))
    _report(9, "closed formula vs FD assembly", worst_closed, 1e-5)


def test_criterion_10_ruled(chains):
    chain = chains[3]
    params = RuledParams.create([0.07 + 0.03j])
    zs, _ = chain.domain.grid(*GRID)
    worst_norm = 0.0
    for z in zs.ravel():
        F = ruled_point(chain, params, complex(z))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(F)) - 1.0))
    _report(10, "unit norm over the grid", worst_norm, 1e-12)

    worst_ruling = 0.0
    for z in (0.31 + 0.17j, -0.25 - 0.35j):
        worst_ruling = max(worst_ruling, ruling_geodesic_residual(chain, z))
    _report(10, "ruling-direction second form", worst_ruling, 1e-6)

    rng = np.random.default_rng(20260810)
    worst_probe = 0.0
    for _ in range(5):
        z = complex(*(rng.uniform(-0.5, 0.5, size=2)))
        result = ruled_minimality_probe(chain, params, z)
        assert not result.degenerate
        worst_probe = max(worst_probe, result.residual)
    _report(10, "mean-curvature probe at 5 points", worst_probe, 1e-3)


def test_criterion_11_fault_detection(chains):
    report = verify_all(
        chains[2], grid=(6, 6), perturb={"target": "F2", "magnitude": 1e-3}
    )
    detected = report.status["hermitian_orthogonality"] == "FAIL"
    print(
        f"[{'PASS' if detected else 'FAIL'}] criterion 11: injected fault "
        f"flips Hermitian-orthogonality to FAIL "
        f"(residual {report.summary['hermitian_orthogonality']:.3e})"
    )
    assert detected
    assert not report.passed
