import dataclasses
import re

import numpy as np
import pytest

from holosphere import Domain, f_chain_eval, reconstruct
from holosphere.errors import DegenerateSurfaceError, NotPseudoholomorphicError
from holosphere.geometry import SurfaceEvaluator, _fundamental_forms
from holosphere.reconstruct import (
    XiField,
    probe_termination,
    roundtrip,
    sample_xi,
)

from conftest import holomorphy_residual, principal_angles, ref_grid_at, ref_grid_wirtinger


def _descent_near(g, z, depth):
    """The 33 x 33 sampling grid of g, its levels G_0..G_depth, and the
    index of the node nearest z."""
    grid = reconstruct._sampling_grid(g, 33, 33)
    levels = reconstruct._descend(g, grid, depth)
    node = (np.argmin(np.abs(grid.xs - z.real)), np.argmin(np.abs(grid.ys - z.imag)))
    return grid, levels, node


# Chebyshev grids of the box [-0.7, 0.5] x [-0.2, 0.9]: square ones of 4,
# 17 and 41 nodes per axis, and one with 17 nodes along x and 23 along y
GRIDS = [(4, 4), (17, 17), (41, 41), (17, 23)]


def _grid(nx, ny):
    return reconstruct._Grid(reconstruct._chebyshev(-0.7, 0.5, nx),
                             reconstruct._chebyshev(-0.2, 0.9, ny))


class TestGrid:
    """`_Grid`'s real products against their complex `tensordot` forms,
    on random complex fields of one and of two value axes."""

    @staticmethod
    def _field(grid, tail, seed):
        rng = np.random.default_rng(seed)
        shape = grid.zs.shape + tail
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @staticmethod
    def _close(got, ref):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("tail", [(5,), (3, 7)])
    @pytest.mark.parametrize("nodes", GRIDS)
    @pytest.mark.parametrize("anti", [False, True])
    def test_wirtinger_matches_complex_products(self, nodes, tail, anti):
        grid = _grid(*nodes)
        V = self._field(grid, tail, seed=sum(nodes) + len(tail))
        self._close(grid.wirtinger(V, anti=anti), ref_grid_wirtinger(grid, V, anti=anti))

    @pytest.mark.parametrize("tail", [(5,), (3, 7)])
    @pytest.mark.parametrize("nodes", GRIDS)
    def test_at_matches_complex_products(self, nodes, tail):
        grid = _grid(*nodes)
        V = self._field(grid, tail, seed=sum(nodes) + len(tail))
        rng = np.random.default_rng(3)
        # points inside the box, and two nodes (the basis' exact-hit rows)
        zs = np.concatenate([rng.uniform(-0.7, 0.5, 9) + 1j * rng.uniform(-0.2, 0.9, 9),
                             [grid.zs[0, -1], grid.zs[-1, 1]]])
        self._close(grid.at(V, zs), ref_grid_at(grid, V, zs))

    @pytest.mark.parametrize("nodes", GRIDS)
    def test_derivative_of_powers(self, nodes):
        # z^k has degree k < the node count along each axis, so its
        # spectral d/dz at the nodes is k z^(k-1) and its d/dconj(z) is 0
        grid = _grid(*nodes)
        ks = np.arange(min(nodes))
        V = grid.zs[:, :, None] ** ks
        want = ks * grid.zs[:, :, None] ** np.maximum(ks - 1, 0)
        scale = np.abs(want).max()
        assert np.abs(grid.wirtinger(V) - want).max() <= 1e-11 * scale
        assert np.abs(grid.wirtinger(V, anti=True)).max() <= 1e-11 * scale


class TestGChain:
    def test_first_vector_matches_tangent_formula(self, chain_n1, surface_n1):
        grid, levels, node = _descent_near(surface_n1, 0.3 + 0.2j, 1)
        batch = f_chain_eval(chain_n1, [grid.zs[node]])
        ref = _fundamental_forms(batch.F, batch.norms_sq, batch.g, [0])[0, 0]
        dev = np.linalg.norm(levels[1][node] - ref) / np.linalg.norm(ref)
        assert dev <= 1e-5

    def test_termination_residual_small(self, surface_n1):
        _, levels, node = _descent_near(surface_n1, 0.3 + 0.2j, 2)
        residual = np.linalg.norm(levels[2][node]) / np.linalg.norm(levels[1][node])
        assert residual <= 1e-3

    def test_vectors_hermitian_orthogonal(self, surface_n2):
        _, levels, node = _descent_near(surface_n2, 0.25 - 0.35j, 2)
        G = [level[node] for level in levels]
        norms = [np.linalg.norm(v) for v in G]
        for j in range(1, 3):
            for k in range(j + 1, 3):
                val = abs(np.vdot(G[k], G[j]))
                assert val <= 1e-4 * norms[j] * norms[k]

    @pytest.mark.parametrize("s", [1, 2])
    def test_conjugate_descent_identity(self, surface_n2, s):
        # d(conj G_s)/dz + (|G_s|^2/|G_{s-1}|^2) conj G_{s-1} = 0, relative
        # to the identity's own scale
        grid, levels, node = _descent_near(surface_n2, 0.2 + 0.3j, s)
        dGbar = grid.wirtinger(np.conj(levels[s]))[node]
        below, Gs = levels[s - 1][node], levels[s][node]
        below_nsq = np.sum(np.abs(below) ** 2)
        Gs_nsq = np.sum(np.abs(Gs) ** 2)
        resid = np.linalg.norm(dGbar + Gs_nsq / below_nsq * np.conj(below))
        assert resid / (Gs_nsq / np.sqrt(below_nsq)) <= 1e-4

    def test_constant_surface_degenerates(self):
        v = np.zeros(3)
        v[2] = 1.0

        def func(zs):
            return np.tile(v, (zs.size, 1))

        g = SurfaceEvaluator(
            func=func, domain=Domain.rectangle(-1 - 1j, 1 + 1j), dim=3, n=1
        )
        # the first node in the grid's order is the corner -1-1i, where
        # the spectral d/dz of a constant vanishes exactly
        with pytest.raises(DegenerateSurfaceError, match=re.escape(
                "degenerate chain bottom on the grid: |G_n|^2 = 0.000e+00 < 1e-18 "
                "at z=(-1-1j)")):
            sample_xi(g)


class TestExtractXi:
    def test_recovers_generator_up_to_gauge(self, chain_n1, surface_n1):
        # componentwise ratio against the forward chain bottom must be a
        # single (holomorphic, nowhere-zero) factor
        field = sample_xi(surface_n1, rows=33, cols=33)
        for z in (0.3 + 0.2j, -0.4 + 0.1j):
            xi = field(np.array([z]))[0]
            F1 = f_chain_eval(chain_n1, [z]).F[0, 0]
            ratios = xi / F1
            assert np.max(np.abs(ratios - ratios[0])) <= 1e-6 * abs(ratios[0])

    def test_holomorphy_of_sampled_field(self, surface_n1):
        xi = sample_xi(surface_n1, rows=25, cols=25)
        residuals = xi.holomorphy_residuals(np.array([0.2 + 0.3j, -0.5 - 0.1j, 0.6 + 0j]))
        assert residuals.shape == (3,)
        assert np.all(residuals <= 1e-4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_holomorphy_residuals_match_one_point_reads(self, request, n):
        # a roundtrip's probes, a probe on a Chebyshev node of both axes
        # (the basis' exact-hit branch), one on a node of x only, and the
        # inset corner where the evaluation grid starts
        g = SurfaceEvaluator.from_chain(request.getfixturevalue(f"chain_n{n}"))
        result = roundtrip(g, grid=(8, 8), sample_grid=(41, 41))
        xi = result.xi
        flat = result.eval_points.ravel()
        probes = np.concatenate([flat[::4], [
            complex(xi.xs[7], xi.ys[30]),
            complex(xi.xs[12], 0.123),
            complex(xi.xs[0] + 2 * xi.spacing, xi.ys[0] + 2 * xi.spacing),
        ]])
        ref = np.array([holomorphy_residual(xi, z) for z in probes])
        got = xi.holomorphy_residuals(probes)
        assert got.shape == probes.shape
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        assert result.holomorphy_residual == pytest.approx(np.median(ref[:16]),
                                                           rel=1e-13, abs=0)


class TestXiField:
    def test_too_sparse_for_cubic(self):
        with pytest.raises(ValueError):
            XiField(np.linspace(0, 1, 2), np.linspace(0, 1, 2),
                    np.zeros((2, 2, 3), dtype=complex))

    def test_interpolates_polynomials_exactly(self):
        # cubic splines reproduce quadratics
        xs = np.linspace(-1, 1, 9)
        ys = np.linspace(-1, 1, 9)
        zs = xs[:, None] + 1j * ys[None, :]
        vals = np.stack([zs**2, 1j * zs, np.ones_like(zs)], axis=2)
        field = XiField(xs, ys, vals)
        probe = np.array([0.123 + 0.456j, -0.7 + 0.2j])
        out = field(probe)
        assert np.allclose(out[:, 0], probe**2, atol=1e-12)
        assert np.allclose(out[:, 1], 1j * probe, atol=1e-13)

    def test_jet_derivatives(self):
        xs = np.linspace(-1, 1, 17)
        ys = np.linspace(-1, 1, 17)
        zs = xs[:, None] + 1j * ys[None, :]
        vals = (zs**3)[:, :, None]
        field = XiField(xs, ys, vals)
        probe = np.array([0.3 + 0.1j])
        jets = field.jet(probe, 2)
        assert abs(jets[0, 1, 0] - 3 * probe[0] ** 2) < 1e-8
        assert abs(jets[0, 2, 0] - 6 * probe[0]) < 1e-5


class TestRoundtrip:
    def test_n1(self, surface_n1):
        result = roundtrip(surface_n1, grid=(8, 8), sample_grid=(33, 33))
        assert result.sup_distance <= 1e-3
        assert result.termination_residual <= 1e-3

    def test_n1_gauge_invariance(self, surface_n1):
        for gauge in (lambda zs: 2.0 * np.ones_like(zs), np.exp):
            result = roundtrip(
                surface_n1, grid=(8, 8), sample_grid=(33, 33), gauge=gauge
            )
            assert result.sup_distance <= 1e-3

    def test_n2(self, surface_n2):
        result = roundtrip(surface_n2, grid=(8, 8), sample_grid=(41, 41))
        assert result.sup_distance <= 1e-2

    def test_span_agreement(self, chain_n2, surface_n2):
        # the reconstructed jet spans the same maximal isotropic flag as
        # the descending chain of the surface
        xi = sample_xi(surface_n2, rows=41, cols=41)
        grid, levels, node = _descent_near(surface_n2, 0.21 + 0.13j, 2)
        jets = xi.jet(grid.zs[node], 1)[0]  # xi, d xi
        G = np.stack([levels[1][node], levels[2][node]])
        basis_f = np.concatenate([jets, np.conj(jets)], axis=0).T
        basis_g = np.concatenate([G, np.conj(G)], axis=0).T
        assert principal_angles(basis_f, basis_g).max() <= 1e-3

    def test_refuses_non_pseudoholomorphic(self, small_sphere_surface):
        with pytest.raises(NotPseudoholomorphicError) as err:
            roundtrip(small_sphere_surface, grid=(6, 6), sample_grid=(33, 33))
        assert err.value.residual > 1e-2

    def test_probe_termination(self, surface_n2, small_sphere_surface):
        ratios = probe_termination(surface_n2, samples=21)
        assert ratios.shape == (21 * 21,)
        assert np.median(ratios) <= 1e-3
        assert np.median(probe_termination(small_sphere_surface)) > 1e-2

    def test_unsupported_depth(self, surface_n1):
        with pytest.raises(ValueError):
            roundtrip(dataclasses.replace(surface_n1, n=4))

    def test_singular_reconstructed_jet_named(self, surface_n1):
        # a gauge factor that vanishes at the first evaluation point, the
        # inset corner, leaves the jet there with no first vector
        xs = reconstruct._sampling_grid(surface_n1, 33, 33).xs
        inset = 2 * np.diff(xs).max()
        corner = complex(xs[0] + inset, xs[0] + inset)
        with pytest.raises(DegenerateSurfaceError, match=re.escape(
                "reconstructed jet degenerates on the grid: the chain is singular "
                f"at z={corner}")):
            roundtrip(surface_n1, grid=(4, 4), sample_grid=(33, 33),
                      gauge=lambda zs: zs - corner)


class TestEvaluationCount:
    """Surface points one roundtrip evaluates: the sampling grid once
    (the descent to level n+1 and the recovered field both come from
    it), then the evaluation grid."""

    @staticmethod
    def _counted(g):
        count = [0]

        def func(zs):
            count[0] += zs.size
            return g(zs)

        return SurfaceEvaluator(func=func, domain=g.domain, dim=g.dim, n=g.n), count

    def test_roundtrip_n1(self, surface_n1):
        g, count = self._counted(surface_n1)
        roundtrip(g, grid=(5, 7), sample_grid=(17, 19))
        assert count[0] == 17 * 19 + 5 * 7

    @pytest.mark.parametrize("grid", [(4, 4), (8, 8), (16, 16)])
    def test_roundtrip_reads_the_interpolant_twice(self, surface_n1, monkeypatch,
                                                   grid):
        # once for the jets on the evaluation grid, once for the
        # holomorphy probes
        reads = [0]
        at = reconstruct._Grid.at

        def counted(self, V, zs):
            reads[0] += 1
            return at(self, V, zs)

        monkeypatch.setattr(reconstruct._Grid, "at", counted)
        roundtrip(surface_n1, grid=grid, sample_grid=(33, 33))
        assert reads[0] == 2

    def test_refusal_costs_only_the_probe(self, small_sphere_surface):
        g, count = self._counted(small_sphere_surface)
        with pytest.raises(NotPseudoholomorphicError):
            roundtrip(g, grid=(6, 6), sample_grid=(33, 31))
        assert count[0] == 33 * 31
