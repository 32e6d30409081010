"""Batched evaluation gives every point the arithmetic of a one-point call.

Each batched entry point is compared, bit for bit, with its single-point
counterpart, and masking is checked to reach only the centres whose
stencil touches a degenerate point.
"""

import numpy as np
import pytest

from holosphere import Domain, build_alpha_chain, f_chain_eval, recursion_crosscheck
from holosphere.applications import (
    KaehlerParams,
    RuledParams,
    kaehler_point,
    kaehler_points,
    ruled_point,
    ruled_points,
)
from holosphere.chain import recursion_residuals
from holosphere.errors import SingularPointError
from holosphere.fd import wirtinger
from holosphere.geometry import (
    SurfaceEvaluator,
    calabi_check,
    calabi_tables,
    minimality_residual,
    minimality_residuals,
    verify_all,
)

CENTRES = np.array([0.31 + 0.17j, -0.42 + 0.33j, 0.05 - 0.61j, -0.2 - 0.1j])


@pytest.mark.parametrize("order", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0), (4, 0)])
def test_wirtinger_over_centres_matches_one_centre(surface_n2, order):
    together = wirtinger(surface_n2, CENTRES, *order, diameter=2.0)
    assert together.shape == (CENTRES.size, surface_n2.dim)
    for z, row in zip(CENTRES, together):
        assert np.array_equal(row, wirtinger(surface_n2, z, *order, diameter=2.0))


def test_minimality_and_calabi_over_centres(surface_n2):
    h = surface_n2.step(1)
    resid, _ = minimality_residuals(surface_n2, CENTRES, h)
    tables = calabi_tables(surface_n2, 3, CENTRES, None, surface_n2.domain.diameter)
    for z, r, table in zip(CENTRES, resid, tables):
        assert r == minimality_residual(surface_n2, z, h)
        assert table == calabi_check(surface_n2, 3, z)


def test_recursion_over_centres(chain_n3):
    base = f_chain_eval(chain_n3, CENTRES)
    h = 1e-4 * chain_n3.domain.diameter
    together = recursion_residuals(chain_n3, base, h)
    for z, value in zip(CENTRES, together):
        assert value == recursion_crosscheck(chain_n3, z, h)


def test_kaehler_and_ruled_over_points(chain_n2, chain_n3):
    kp = KaehlerParams.create("1+x^2+y^2", [0.05 + 0.02j])
    values, valid = kaehler_points(chain_n2, kp, CENTRES)
    assert valid.all()
    for z, row in zip(CENTRES, values):
        assert np.array_equal(row, kaehler_point(chain_n2, kp, z))
    rp = RuledParams.create([0.07 + 0.03j])
    values, valid = ruled_points(chain_n3, rp, CENTRES)
    assert valid.all()
    for z, row in zip(CENTRES, values):
        assert np.array_equal(row, ruled_point(chain_n3, rp, z))


def test_degenerate_rows_are_masked_not_raised():
    chain = build_alpha_chain(["z", "1"])
    params = KaehlerParams.create("1", [0j])
    values, valid = kaehler_points(chain, params, np.array([0j, 0.5 + 0.25j]))
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
    resid, _ = minimality_residuals(g.masked, centres, 0.5)
    assert np.isnan(resid[0]) and np.isnan(resid[2])
    assert resid[1] == minimality_residual(g, 1.0 + 0.5j, 0.5)
    with pytest.raises(SingularPointError):
        minimality_residual(g, 0.5 + 0j, 0.5)


def test_counts_match_records(chain_n2):
    report = verify_all(chain_n2, grid=(7, 7))
    assert set(report.counts) == set(report.summary)
    for fam, count in report.counts.items():
        evaluated = sum(fam in rec.residuals for rec in report.records)
        assert count == {"evaluated": evaluated, "skipped": 49 - evaluated}
    assert report.to_dict()["counts"] == report.counts

