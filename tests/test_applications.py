import numpy as np
import pytest

from holosphere import applications, build_alpha_chain, f_chain_eval
from holosphere import chain as chain_module
from holosphere.applications import (
    KaehlerParams,
    RuledParams,
    kaehler_immersion_check,
    kaehler_point,
    ruled_minimality_probe,
    ruled_point,
    ruling_geodesic_residual,
)
from holosphere.errors import (
    DegenerateSurfaceError,
    EvaluationError,
    ParseError,
    SingularPointError,
)

from conftest import GAMMA_ORACLES, kaehler_point_reference, ref_kaehler_immersion_check

Z0 = 0.31 + 0.17j


class TestKaehlerPoint:
    def test_constant_weight_reduces_to_surface(self, chain_n2):
        p = KaehlerParams.create("1", [0j])
        psi = kaehler_point(chain_n2, p, Z0)
        g = f_chain_eval(chain_n2, [Z0]).g[0]
        assert np.allclose(psi, g, atol=1e-14)

    def test_normal_shift(self, chain_n2):
        p = KaehlerParams.create("1", [1 + 0j])
        psi = kaehler_point(chain_n2, p, Z0)
        s = f_chain_eval(chain_n2, [Z0])
        assert np.allclose(
            psi, s.g[0] + s.F[0, 0].real, atol=1e-14
        )

    def test_affine_in_parameters(self, chain_n2):
        gamma = "1+x^2+y^2"
        d = 1e-3
        base = KaehlerParams.create(gamma, [0.05 + 0.02j])
        for direction in (d, 1j * d):
            plus = KaehlerParams.create(gamma, [0.05 + 0.02j + direction])
            minus = KaehlerParams.create(gamma, [0.05 + 0.02j - direction])
            spread = (
                kaehler_point(chain_n2, plus, Z0)
                + kaehler_point(chain_n2, minus, Z0)
                - 2 * kaehler_point(chain_n2, base, Z0)
            )
            assert np.linalg.norm(spread) <= 1e-12

    def test_closed_formula_matches_fd_assembly(self, chain_n2):
        p = KaehlerParams.create("1+x^2+y^2", [0.05 + 0.02j])
        for z in (Z0, -0.42 + 0.33j):
            closed = kaehler_point(chain_n2, p, z)
            ref = kaehler_point_reference(chain_n2, p, z)
            assert np.linalg.norm(closed - ref) <= 1e-5

    def test_requires_depth_two(self, chain_n1):
        with pytest.raises(ValueError):
            kaehler_point(chain_n1, KaehlerParams.create("1", []), Z0)

    def test_parameter_count(self, chain_n2):
        with pytest.raises(ValueError):
            kaehler_point(chain_n2, KaehlerParams.create("1", [0j, 0j]), Z0)

    def test_gamma_partials(self):
        # the complex-step partials against partials written out by hand
        zs = np.array([0.5 + 0.25j, -0.83 + 0.61j, 0.12 - 0.97j, -0.4 - 0.3j])
        for gamma, oracle in GAMMA_ORACLES.items():
            val, gz = KaehlerParams.create(gamma, [0j]).gamma_values(zs)
            want, gx, gy = oracle(zs.real, zs.imag)
            np.testing.assert_allclose(val, want, rtol=1e-14, atol=0, err_msg=gamma)
            # gamma_z = (gamma_x - i gamma_y) / 2
            np.testing.assert_allclose(gz, 0.5 * (gx - 1j * gy), rtol=1e-14, atol=0,
                                       err_msg=gamma)

    def test_gamma_zero_denominator_names_the_point(self):
        p = KaehlerParams.create("1/x", [0j])
        with pytest.raises(EvaluationError, match=r"division by zero at z=0\.25j"):
            p.gamma_values(np.array([0.5 + 0.1j, 0.25j, 0.7j]))
        with pytest.raises(EvaluationError, match=r"division by zero at z=0\.7j"):
            p.gamma_values(0.7j)

    def test_non_real_gamma_refused(self):
        with pytest.raises(ParseError, match=r"gamma must be real.*offset 2"):
            KaehlerParams.create("1+i*x", [0j])


# name: (betas, z_grid, w_samples).  The n=2 and n=3 demo chains on a
# z-grid that the default cell budget cuts into more than one block at
# n=3, betas `z, 1` on a z-grid through their singular point 0, and an
# n=4 chain.
KAEHLER_CASES = {
    "demo2": (["1", "1"], (12, 12), 3),
    "demo3": (["1", "1", "1"], (12, 12), 3),
    "z_1": (["z", "1"], (9, 9), 3),
    "n4": (["1+0.2*z", "z^2+3", "1-0.4*i*z", "2+z"], (5, 5), 2),
}


class TestImmersionCheck:
    def test_generic_box_is_regular(self, chain_n2):
        p = KaehlerParams.create("1+x^2+y^2", [0j])
        report = kaehler_immersion_check(
            chain_n2, p, z_grid=(4, 4), w_box=(-0.1, 0.1), w_samples=2
        )
        assert report.expected_rank == 4
        assert report.fraction_regular >= 0.95

    def test_zero_weight_flagged(self, chain_n2):
        p = KaehlerParams.create("0", [0j])
        report = kaehler_immersion_check(
            chain_n2, p, z_grid=(2, 2), w_box=(0.0, 0.0), w_samples=1
        )
        assert report.regular_count == 0
        assert (report.ranks < 4).all()
        assert len(report.to_dict()["flagged"]) == report.total

    def test_rank_bounded_by_parameter_count(self, chain_n2):
        p = KaehlerParams.create("1+x^2+y^2", [0.03 - 0.01j])
        report = kaehler_immersion_check(
            chain_n2, p, z_grid=(2, 2), w_box=(-0.05, 0.05), w_samples=2
        )
        assert report.ranks.shape == (report.centres.size, len(report.w)) == (4, 4)
        assert (report.ranks <= 4).all()

    @pytest.mark.parametrize("one_centre", [False, True], ids=["default", "one_centre"])
    @pytest.mark.parametrize("case", sorted(KAEHLER_CASES))
    def test_blocked_check_matches_whole_grid_reference(self, case, one_centre,
                                                        monkeypatch):
        betas, z_grid, w_samples = KAEHLER_CASES[case]
        chain = build_alpha_chain(betas)
        p = KaehlerParams.create("1+x^2+y^2", [0.05 + 0.02j] * (chain.n - 1))
        if one_centre:
            # a cell budget below one centre's cells: one centre per block
            monkeypatch.setattr(chain_module, "_SCAN_BLOCK", 1)
        got = kaehler_immersion_check(chain, p, z_grid, (-0.1, 0.1), w_samples)
        want = ref_kaehler_immersion_check(chain, p, z_grid, (-0.1, 0.1), w_samples)
        assert got.ranks.dtype == np.uint8
        assert np.array_equal(got.ranks, want.ranks)
        for field in ("centres", "w"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                         b.view(np.int64))

    def test_stencil_touching_a_degenerate_line_flags_its_centre(self):
        # the surface of betas z - c, 1 collapses on the line Re z = Re c;
        # c lies one z-step right of a regular centre, whose stencil
        # reaches the line
        domain = build_alpha_chain(["1", "1"]).domain
        h = 1e-5 * domain.diameter
        zs, _ = domain.grid(9, 9, margin=4 * h)
        c = complex(zs[2, 6] + h)
        chain = build_alpha_chain([f"z-({c.real!r})-({c.imag!r})*i", "1"])
        p = KaehlerParams.create("1+x^2+y^2", [0.05 + 0.02j])
        got = kaehler_immersion_check(chain, p, (9, 9), (-0.1, 0.1), 3)
        want = ref_kaehler_immersion_check(chain, p, (9, 9), (-0.1, 0.1), 3)
        assert f_chain_eval(chain, zs[2, 6:7]).ok.all()
        assert (got.ranks[2 * 9 + 6] == 0).all()
        assert (got.ranks[2 * 9 + 5] == 4).all()
        assert np.array_equal(got.ranks, want.ranks)

    def test_each_evaluation_stays_within_the_point_budget(self, monkeypatch):
        # one w cell per centre: the chain point budget, not the cell
        # budget, sizes the blocks; each centre and its four stencil
        # points are one evaluation
        sizes = []
        original = chain_module.f_chain_eval

        def counted(chain, zs, *args, **kwargs):
            sizes.append(np.size(zs))
            return original(chain, zs, *args, **kwargs)

        monkeypatch.setattr(chain_module, "f_chain_eval", counted)
        chain = build_alpha_chain(["1", "1"])
        p = KaehlerParams.create("1+x^2+y^2", [0.05 + 0.02j])
        report = kaehler_immersion_check(chain, p, (45, 45), (-0.1, 0.1), 1)
        assert report.ranks.shape == (45 * 45, 1)
        assert sizes == [1638 * 5, (45 * 45 - 1638) * 5]
        assert max(sizes) <= chain_module._SCAN_BLOCK

    def test_all_singular_chain_is_refused(self):
        # beta_0 = 0 makes the chain singular at every point
        chain = build_alpha_chain(["0", "1"])
        p = KaehlerParams.create("1+x^2+y^2", [0j])
        with pytest.raises(DegenerateSurfaceError, match="25 of the 25 grid points"):
            kaehler_immersion_check(chain, p, (5, 5), (-0.1, 0.1), 3)


class TestRuledPoint:
    def test_zero_offset_reproduces_surface(self, chain_n3):
        F = ruled_point(chain_n3, RuledParams.create([0j]), Z0)
        g = f_chain_eval(chain_n3, [Z0]).g[0]
        assert np.allclose(F, g, atol=1e-15)

    def test_unit_norm_everywhere(self, chain_n3):
        for w in (0.07 + 0.03j, 0.9 - 0.4j, 2.5 + 0j):
            for z in (Z0, -0.6 - 0.2j):
                F = ruled_point(chain_n3, RuledParams.create([w]), z)
                assert abs(np.linalg.norm(F) - 1) <= 1e-12

    def test_rays_are_great_circles(self, chain_n3):
        s = f_chain_eval(chain_n3, [Z0])
        g = s.g[0]
        w = 1.0 + 0.5j
        wvec = w.real * s.F[0, 0].real - w.imag * s.F[0, 0].imag
        what = wvec / np.linalg.norm(wvec)
        for t in (0.1, 0.7, 1.9):
            F = ruled_point(chain_n3, RuledParams.create([t * w]), Z0)
            arc = t * np.linalg.norm(wvec)
            assert np.allclose(
                F, np.cos(arc) * g + np.sin(arc) * what, atol=1e-13
            )

    def test_requires_depth_three(self, chain_n2):
        with pytest.raises(ValueError):
            ruled_point(chain_n2, RuledParams.create([]), Z0)

    def test_offsets_lie_in_higher_normal_spaces(self, chain_n3):
        # the ruling directions come from the lowest chain vectors, which
        # are Hermitian-orthogonal to both the tangent and position data
        from holosphere.applications import _normal_terms

        s = f_chain_eval(chain_n3, [Z0])
        F, norms_sq = s.F[0], s.norms_sq[0]
        wvec = _normal_terms(F, np.array([0.4 - 0.7j])).astype(complex)
        scale = np.linalg.norm(wvec)
        for idx in (2, 3):  # F_n and F_{n+1}
            val = abs(np.dot(wvec, np.conj(F[idx])))
            assert val <= 1e-9 * scale * np.sqrt(norms_sq[idx])

    def test_parameter_count(self, chain_n3):
        with pytest.raises(ValueError):
            ruled_point(chain_n3, RuledParams.create([0j, 0j]), Z0)


class TestRuledProbes:
    def test_minimality_at_generic_points(self, chain_n3):
        params = RuledParams.create([0.07 + 0.03j])
        res = ruled_minimality_probe(chain_n3, params,
                                     np.array([Z0, -0.4 + 0.25j, 0.1 - 0.3j]))
        assert np.all(res <= 1e-3)   # False where NaN

    def test_ruling_second_form_vanishes(self, chain_n3):
        assert ruling_geodesic_residual(chain_n3, Z0) <= 1e-6

    def test_ruling_geodesic_evaluates_the_chain_once(self, chain_n3, monkeypatch):
        # the centre and the four points of its d/dz stencil are one
        # evaluation, under either module's binding
        sizes = []
        original = chain_module.f_chain_eval

        def counted(chain, zs, *args, **kwargs):
            sizes.append(np.size(zs))
            return original(chain, zs, *args, **kwargs)

        for module in (chain_module, applications):
            monkeypatch.setattr(module, "f_chain_eval", counted)
        assert ruling_geodesic_residual(chain_n3, Z0) <= 1e-6
        assert sizes == [5]

    def test_degenerate_metric_flagged(self, chain_n3, monkeypatch):
        params = RuledParams.create([0.07 + 0.03j])
        monkeypatch.setattr(applications, "_DET_THRESHOLD", 1e12)
        assert np.isnan(ruled_minimality_probe(chain_n3, params, np.array([Z0]))).all()

    def test_degenerate_stencil_flagged(self):
        # the chain of betas (z, 1, 1) degenerates at z = 0: a probe centred
        # there, or whose stencil reaches it, is flagged, not raised
        chain = build_alpha_chain(["z", "1", "1"])
        params = RuledParams.create([0.05 + 0j])
        h = 1e-3 * chain.domain.diameter
        res = ruled_minimality_probe(chain, params,
                                     np.array([0j, h + h * 1j, 0.3 + 0.2j]))
        assert np.isnan(res[:2]).all() and not np.isnan(res[2])
        assert ruling_geodesic_residual(chain, 0j) is None
        assert ruling_geodesic_residual(chain, 0.3 + 0.2j) <= 1e-6

    def test_singular_cell_raises(self):
        chain = build_alpha_chain(["z", "1", "1"])
        params = RuledParams.create([0.05 + 0j])
        with pytest.raises(SingularPointError):
            ruled_point(chain, params, 0j)

    def test_depth_restriction(self, chain_n2):
        with pytest.raises(ValueError):
            ruled_minimality_probe(chain_n2, RuledParams.create([]), np.array([Z0]))
