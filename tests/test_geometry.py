import numpy as np
import pytest

from holosphere import Domain, build_alpha_chain, f_chain_eval
from holosphere.errors import (
    DegenerateSurfaceError,
    DomainError,
    SingularPointError,
)
from holosphere.fd import default_step, wirtinger
from holosphere.geometry import (
    SurfaceEvaluator,
    calabi_check,
    chain_fundamental_form,
    minimality_residual,
    second_normal_space_angle,
    verify_all,
)


class TestMinimality:
    def test_chain_surface_is_minimal(self, surface_n1, surface_n2):
        assert minimality_residual(surface_n1, 0.4 + 0.1j) <= 1e-5
        assert minimality_residual(surface_n2, 0.4 + 0.1j) <= 1e-5

    def test_small_sphere_is_not(self, small_sphere_surface):
        # analytic value for this surface is c/4 = 0.125
        res = minimality_residual(small_sphere_surface, 0.3 + 0.2j)
        assert res > 1e-2
        assert res == pytest.approx(0.125, abs=1e-3)

    def test_constant_map_degenerates(self):
        v = np.zeros(5)
        v[0] = 1.0

        def func(zs):
            return np.tile(v, (zs.size, 1))

        g = SurfaceEvaluator(
            func=func, domain=Domain.rectangle(-1 - 1j, 1 + 1j), dim=5, n=2
        )
        with pytest.raises(DegenerateSurfaceError):
            minimality_residual(g, 0.1 + 0.1j)

    def test_stencil_must_fit(self, surface_n1):
        with pytest.raises(DomainError):
            minimality_residual(surface_n1, 1 + 1j)

    def test_refusal_boundary_is_the_stencil_margin(self, surface_n2):
        # the stencil of d/dz and d^2/dz dconj(z) at the default step h
        # reaches h sqrt(2) from its centre
        margin = default_step(surface_n2.domain.diameter, 1) * np.sqrt(2.0)
        assert minimality_residual(surface_n2, 1 - 1.01 * margin + 0.2j) <= 1e-5
        with pytest.raises(DomainError, match="stencil at z=.* leaves the domain"):
            minimality_residual(surface_n2, 1 - 0.99 * margin + 0.2j)


class TestCalabi:
    def test_first_order_entry_vanishes_for_any_unit_map(self, small_sphere_surface):
        # <dg, g> = d|g|^2 / 2 = 0 regardless of minimality
        table = calabi_check(small_sphere_surface, 1, 0.3 - 0.4j)
        assert table[(1, 0)] <= 1e-6

    def test_chain_surface_low_orders(self, surface_n2):
        table = calabi_check(surface_n2, 2, 0.37 + 0.18j)
        assert table[(1, 1)] <= 1e-4
        assert table[(2, 0)] <= 1e-4

    def test_order_four_within_noise_budget(self, surface_n2):
        table = calabi_check(surface_n2, 4, 0.21 - 0.34j)
        assert max(table.values()) <= 1e-4

    def test_non_conformal_chart_detected(self):
        # gnomonic chart of a great sphere: minimal image, but the
        # parametrization is not conformal, so <dg, dg> is large
        def gnomonic(zs):
            out = np.empty((zs.size, 5))
            den = np.sqrt(1 + zs.real**2 + zs.imag**2)
            out[:, 0] = 1 / den
            out[:, 1] = zs.real / den
            out[:, 2] = zs.imag / den
            out[:, 3] = 0.0
            out[:, 4] = 0.0
            return out

        g = SurfaceEvaluator(
            func=gnomonic, domain=Domain.rectangle(-1 - 1j, 1 + 1j), dim=5, n=2
        )
        table = calabi_check(g, 2, 0.4 + 0.3j)
        assert table[(1, 1)] > 1e-3

    def test_refusal_boundary_follows_the_top_order(self, surface_n2):
        # every order reads at the top order's margin: 0.016 at order 3,
        # 0.064 at order 4
        z = 0.97 + 0.2j
        assert max(calabi_check(surface_n2, 3, z).values()) <= 1e-4
        with pytest.raises(DomainError, match="stencil at z=.* leaves the domain"):
            calabi_check(surface_n2, 4, z)

    def test_max_order_capped(self, surface_n2):
        with pytest.raises(ValueError):
            calabi_check(surface_n2, 5, 0j)


class TestFundamentalForms:
    def test_tangent_formula_matches_fd(self, chain_n2, surface_n2):
        z = 0.28 - 0.41j
        batch = f_chain_eval(chain_n2, [z])
        formula = chain_fundamental_form(batch, 0, 0)
        fd, = wirtinger(surface_n2, z, [(1, 0)], default_step(surface_n2.domain.diameter, 1))
        assert np.linalg.norm(fd - formula) <= 1e-5 * np.linalg.norm(formula)

    @pytest.mark.parametrize("s", [0, 1])
    def test_isotropy_of_forms(self, chain_n2, s):
        batch = f_chain_eval(chain_n2, [0.45 + 0.12j])
        vec = chain_fundamental_form(batch, 0, s)
        scale = float(np.real(np.dot(vec, np.conj(vec))))
        assert abs(np.dot(vec, vec)) <= 1e-9 * scale

    def test_order_out_of_range(self, chain_n2):
        batch = f_chain_eval(chain_n2, [0.2 + 0.2j])
        with pytest.raises(ValueError):
            chain_fundamental_form(batch, 0, 2)  # s = n is out of range
        with pytest.raises(ValueError):
            chain_fundamental_form(batch, 0, -1)

    def test_second_normal_space_span(self, chain_n2):
        angle = second_normal_space_angle(chain_n2, 0.3 + 0.4j)
        assert angle <= 1e-4

    def test_isotropic_surface_first_form(self, chain_n1, chain_n2):
        from holosphere.geometry import isotropic_surface_form_residual

        assert isotropic_surface_form_residual(chain_n1, 0.3 + 0.2j) <= 1e-5
        assert isotropic_surface_form_residual(chain_n2, -0.2 + 0.4j) <= 1e-5


class TestVerifyAll:
    def test_n1_grid_passes(self, chain_n1):
        report = verify_all(chain_n1, grid=(10, 10))
        assert report.passed
        assert report.singular_count == 0
        assert set(report.status) >= {
            "isotropy",
            "hermitian_orthogonality",
            "collinearity",
            "circularity",
            "recursion",
            "minimality",
            "tangent_formula",
            "calabi",
        }

    def test_n2_grid_passes(self, chain_n2):
        report = verify_all(chain_n2, grid=(8, 8))
        assert report.passed
        assert report.summary["fbar_identity"] <= 1e-5

    def test_summary_equals_max_over_records(self, chain_n2):
        report = verify_all(chain_n2, grid=(6, 6))
        for fam, val in report.summary.items():
            best = max(
                point["residuals"][fam]
                for point in report.to_dict()["points"]
                if fam in point["residuals"]
            )
            assert val == best

    def test_perturbation_flips_hermitian_family(self, chain_n2):
        report = verify_all(
            chain_n2, grid=(6, 6), perturb={"target": "F2", "magnitude": 1e-3}
        )
        assert report.status["hermitian_orthogonality"] == "FAIL"
        assert not report.passed
        assert "hermitian_orthogonality" in report.worst_point

    def test_report_serializes(self, chain_n1):
        import json

        report = verify_all(chain_n1, grid=(4, 4))
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert '"passed": true' in text

    def test_degenerate_points_masked_not_fatal(self):
        chain = build_alpha_chain(["z"])
        report = verify_all(chain, grid=(5, 5), calabi_order=0)
        assert report.singular_count > 0
