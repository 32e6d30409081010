import cmath
import tracemalloc
import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosphere import (
    Domain,
    build_alpha_chain,
    chain as chain_module,
    f_chain_eval,
    recursion_crosscheck,
    scan_grid,
)
from holosphere.chain import FChainBatch, GridScan, require_regular
from holosphere.errors import DomainError, EvaluationError, SingularPointError
from holosphere.products import hermitian_product, symmetric_product

from conftest import oracle_surface_n1


class TestBuild:
    def test_level_one_components(self, chain_n1):
        # beta = 1 gives phi = z, so the top map is
        # (1 - z^2, i(1 + z^2), 2z)
        comps = chain_n1.alpha_coeffs[1]
        assert np.array_equal(comps[0], np.array([1, 0, -1], dtype=complex))
        assert np.array_equal(comps[1], np.array([1j, 0, 1j]))
        assert np.array_equal(comps[2], np.array([0, 2], dtype=complex))

    def test_integration_constant_shifts_phi(self):
        c = 0.3 + 0.1j
        shifted = build_alpha_chain(["1"], constants=[[c]])
        z = 0.4 - 0.2j
        p = z + c
        expected = np.array([1 - p * p, 1j * (1 + p * p), 2 * p])
        got = np.array([npoly.polyval(z, c) for c in shifted.alpha_coeffs[1]])
        assert np.allclose(got, expected, atol=1e-14)

    def test_dimensions(self, chain_n3):
        for r, comps in enumerate(chain_n3.alpha_coeffs):
            assert len(comps) == 2 * r + 1
        assert chain_n3.dim == 7

    def test_bad_constant_shapes(self):
        with pytest.raises(ValueError):
            build_alpha_chain(["1", "1"], constants=[[0j]])
        with pytest.raises(ValueError):
            build_alpha_chain(["1", "1"], constants=[[0j], [0j, 0j]])

    def test_empty_betas(self):
        with pytest.raises(ValueError):
            build_alpha_chain([])

    @pytest.mark.parametrize("base, power", [(1, 300), (0.5, 500)])
    def test_dense_polynomial_chain(self, base, power):
        # a dense degree-500 beta used to overflow the recursion limit on
        # the 1503-term level-one map; (1+0.5*z)^500 itself overflows
        # double precision in the top map's coefficients for n = 2
        beta = f"({base}+0.5*z)^{power}"
        chain = build_alpha_chain([beta, beta])
        coeffs = np.array([1.0])
        for _ in range(power):
            coeffs = np.convolve(coeffs, [base, 0.5])
        zs = np.array([0.01 + 0.02j, -0.03j, 0.02 - 0.01j])
        want = _reference_jets([coeffs, coeffs], zs)
        got = chain.jets_at(zs)
        for k in range(3):
            scale = np.abs(want[:, k]).max()
            assert np.abs(got[:, k] - want[:, k]).max() <= 1e-12 * scale

    def test_non_finite_chain_refused(self):
        # the exact top-map coefficients of (1+0.5*z)^500 at n = 2 reach
        # about 1e446; the build names the level instead of returning NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=r"chain level 2 .*8\.033e\+259"):
                build_alpha_chain(["(1+0.5*z)^500"] * 2)

    def test_largest_finite_chain_builds_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = build_alpha_chain(["(1+0.5*z)^300"] * 2)
        assert chain.jet_coeffs.shape == (642, 3, 5)
        assert np.all(np.isfinite(chain.jet_coeffs))

    def test_string_and_tree_inputs_agree(self):
        from holosphere.expr import parse_expr

        a = build_alpha_chain(["z"])
        b = build_alpha_chain([parse_expr("z")])
        for level_a, level_b in zip(a.alpha_coeffs, b.alpha_coeffs, strict=True):
            for ca, cb in zip(level_a, level_b, strict=True):
                assert np.array_equal(ca, cb)


def _polyval_jets(chain, zs):
    """The jet by one `npoly.polyval` per derivative matrix, each trimmed
    to its own rows: the reference for the one-pass kernel."""
    top = chain.alpha_coeffs[chain.n]
    mat = np.zeros((max(len(c) for c in top), chain.dim), dtype=complex)
    for c, col in enumerate(top):
        mat[: len(col), c] = col
    out = np.empty((zs.size, chain.n + 1, chain.dim), dtype=complex)
    for k in range(chain.n + 1):
        out[:, k, :] = npoly.polyval(zs, mat).T
        mat = npoly.polyder(mat, axis=0)
    return out


_RECT = Domain.rectangle(-1 - 1j, 1 + 1j, base_point=0j)
_DISK = Domain.disk(0.6 - 0.3j, 0.7, base_point=0.6 - 0.3j)
_THREE_SURROGATES = ["exp((0.6+0.3*i)*z)", "sin((0.7-0.5*i)*z)+2",
                     "cos((-0.94+0.32*i)*z)"]
_KERNEL_CHAINS = [
    *((["1+0.3*z"] + [f"{k}-0.2*z+0.1*z^2" for k in range(1, n)], domain)
      for n in range(1, 6) for domain in (_RECT, _DISK)),
    (["exp((0.6+0.3*i)*z)", "1"], _RECT),
    (["sin((0.7-0.5*i)*z)+2", "1"], _RECT),
    (["1", "cos((-0.94+0.32*i)*z)"], _RECT),
    (["1/(z-3)", "1", "1"], _RECT),
    (["1"], _RECT),
    (["z"], _RECT),
    (["z", "1"], _RECT),
    (["z^3+2"] * 4, _RECT),
]


class TestJetKernel:
    @pytest.mark.parametrize("betas, domain", _KERNEL_CHAINS)
    def test_matches_polyval_bit_for_bit(self, betas, domain):
        chain = build_alpha_chain(betas, domain=domain)
        n = chain.n
        assert chain.jet_coeffs.shape[1:] == (n + 1, 2 * n + 1)
        rng = np.random.default_rng(n)
        x0, x1, y0, y1 = domain.bounds
        grid = np.concatenate([domain.grid(128, 128)[0].ravel(),
                               [0j, complex(-0.0, 0.0)]])
        for size in (1, 3, 63, None):
            if size is None:
                zs = grid
            else:
                zs = rng.uniform(x0, x1, size) + 1j * rng.uniform(y0, y1, size)
            got = chain.jets_at(zs)
            want = _polyval_jets(chain, zs)
            assert got.shape == (zs.size, n + 1, 2 * n + 1)
            assert got.flags.c_contiguous
            # int64 views, so that -0.0 and +0.0 differ
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_overflow_raises_evaluation_error(self):
        # the coefficients are finite, the value near z = 20 is not; the
        # finite check names the point and numpy's warnings stay inside
        domain = Domain.rectangle(-1 - 1j, 20 + 1j, base_point=0j)
        chain = build_alpha_chain(["z^120", "1"], domain=domain)
        with pytest.raises(EvaluationError, match="non-finite chain value") as err:
            chain.jets_at([1, 20 + 1j])
        assert err.value.z == 20 + 1j


def _untrimmed(betas, domain, monkeypatch):
    """The chain of `betas` with every row of its top map kept."""
    with monkeypatch.context() as patch:
        patch.setattr(chain_module, "_significant_rows", lambda jet, rho: len(jet))
        return build_alpha_chain(betas, domain=domain)


def _seeded_linear_betas(seed, n):
    rng = np.random.default_rng(seed)
    cs = 0.3 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    return [f"1+({c.real:.6f}{c.imag:+.6f}*i)*z" for c in cs]


def _is_surrogate_chain(betas):
    return any(f in b for b in betas for f in ("exp", "sin", "cos", "/"))


class TestTopMapTrim:
    @pytest.mark.parametrize("betas, domain", [
        *(case for case in _KERNEL_CHAINS if _is_surrogate_chain(case[0])),
        (_THREE_SURROGATES, _RECT),
    ])
    def test_surrogate_jets_match_untrimmed(self, betas, domain, monkeypatch):
        # the dropped rows lie within Horner's own rounding error; the
        # largest deviation measured, relative to the jet vector of each
        # derivative at each point, is 1.9e-15 (three-beta chain, k = 3)
        chain = build_alpha_chain(betas, domain=domain)
        full = _untrimmed(betas, domain, monkeypatch)
        assert chain.surrogates and chain.surrogates == full.surrogates
        assert len(chain.jet_coeffs) < len(full.jet_coeffs)
        rng = np.random.default_rng(chain.n)
        x0, x1, y0, y1 = domain.bounds
        for size in (1, 3, 63, None):
            if size is None:
                zs = domain.grid(128, 128)[0].ravel()
            else:
                zs = rng.uniform(x0, x1, size) + 1j * rng.uniform(y0, y1, size)
            got, want = chain.jets_at(zs), full.jets_at(zs)
            dev = np.linalg.norm(got - want, axis=2) / np.linalg.norm(want, axis=2)
            assert dev.max() <= 1e-14

    @pytest.mark.parametrize("betas, rows", [
        (_THREE_SURROGATES, (195, 41)),
        (["exp((0.5+0.2*i)*z)", "cos(0.4*z)"], (99, 26)),
    ])
    def test_surrogate_row_counts(self, betas, rows, monkeypatch):
        full = _untrimmed(betas, _RECT, monkeypatch)
        chain = build_alpha_chain(betas, domain=_RECT)
        assert (len(full.jet_coeffs), len(chain.jet_coeffs)) == rows
        assert {len(c) for c in chain.alpha_coeffs[chain.n]} <= {rows[1]}

    @pytest.mark.parametrize("betas, domain", [
        *(case for case in _KERNEL_CHAINS if not _is_surrogate_chain(case[0])),
        *((_seeded_linear_betas(n, n), _RECT) for n in (2, 3, 4)),
    ])
    def test_polynomial_chains_drop_only_zero_rows(self, betas, domain, monkeypatch):
        chain = build_alpha_chain(betas, domain=domain)
        full = _untrimmed(betas, domain, monkeypatch)
        assert chain.surrogates == ()
        rows = len(chain.jet_coeffs)
        # int64 views, so that -0.0 differs from +0.0
        kept = full.jet_coeffs[:rows].view(np.int64)
        assert np.array_equal(chain.jet_coeffs.view(np.int64), kept)
        assert not np.any(full.jet_coeffs[rows:].view(np.int64))


def _reference_jets(betas, zs):
    """Jets of the final map by direct coefficient arithmetic, with zero
    integration constants at base point 0."""
    alpha = [np.asarray(betas[0], dtype=complex)]
    for r in range(len(betas)):
        phis = [npoly.polyint(a) for a in alpha]
        q = np.array([0j])
        for p in phis:
            q = npoly.polyadd(q, np.convolve(p, p))
        b = betas[r + 1] if r + 1 < len(betas) else np.array([1.0])
        alpha = [np.convolve(b, npoly.polysub([1], q)),
                 np.convolve(b, 1j * npoly.polyadd([1], q))]
        alpha += [np.convolve(b, 2 * p) for p in phis]
    return np.stack([
        np.stack([npoly.polyval(zs, npoly.polyder(a, k)) for a in alpha], axis=1)
        for k in range(len(betas) + 1)
    ], axis=1)


@st.composite
def _small_poly(draw):
    coeffs = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            min_size=1,
            max_size=3,
        )
    )
    parts = []
    for k, (re, im) in enumerate(coeffs):
        if re == im == 0:
            continue
        parts.append(f"({re}+{im}*i)" + ("" if k == 0 else f"*z^{k}"))
    return "+".join(parts) if parts else "1"


@given(_small_poly(), _small_poly())
@settings(max_examples=25, deadline=None)
def test_alpha_isotropy_identity(b0, b1):
    # every level of the chain is isotropic by construction
    chain = build_alpha_chain([b0, b1])
    for z in (0.3 + 0.4j, -0.6 - 0.1j):
        for comps in chain.alpha_coeffs[1:]:
            vec = np.array([npoly.polyval(z, c) for c in comps])
            scale = float(np.real(np.dot(vec, np.conj(vec))))
            if scale == 0:
                continue
            assert abs(np.dot(vec, vec)) <= 1e-10 * scale


class TestFChain:
    def test_values_at_origin(self, chain_n1):
        # hand-expanded: F_1 = (1, i, 0), dF_1 = (0, 0, 2), and the
        # projection coefficient vanishes, so F_2 = (0, 0, 2)
        s = f_chain_eval(chain_n1, [0j])
        assert np.allclose(s.F[0, 0], [1, 1j, 0], atol=1e-15)
        assert np.allclose(s.jets[0, 1], [0, 0, 2], atol=1e-15)
        assert np.allclose(s.F[0, 1], [0, 0, 2], atol=1e-15)
        assert np.allclose(s.norms_sq[0], [2, 4], atol=1e-15)

    def test_norm_formula(self, chain_n1):
        # |F_1|^2 expands to 2 (1 + |z|^2)^2
        for z in (1.0 + 0j, 0.3 - 0.8j, -1 + 1j):
            s = f_chain_eval(chain_n1, [z])
            assert s.norms_sq[0, 0] == pytest.approx(2 * (1 + abs(z) ** 2) ** 2,
                                                  rel=1e-13)

    def test_value_at_one(self, chain_n1):
        s = f_chain_eval(chain_n1, [1.0 + 0j])
        assert np.allclose(s.F[0, 1], [-2, 0, 0], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_orthogonality(self, n, chain_n1, chain_n2, chain_n3):
        chain = {1: chain_n1, 2: chain_n2, 3: chain_n3}[n]
        for z in (0.37 + 0.21j, -0.55 + 0.8j):
            s = f_chain_eval(chain, [z])
            assert not s.singular[0]
            F, norms = s.F[0], np.sqrt(s.norms_sq[0])
            for j in range(n + 1):
                for k in range(j + 1, n + 1):
                    val = abs(hermitian_product(F[j], F[k]))
                    assert val <= 1e-10 * norms[j] * norms[k]

    def test_batch_matches_pointwise(self, chain_n2):
        zs = np.array([0.1 + 0.2j, -0.4 + 0.6j, 0.9 - 0.9j])
        batch = f_chain_eval(chain_n2, zs)
        for i, z in enumerate(zs):
            single = f_chain_eval(chain_n2, [z])
            assert np.allclose(batch.F[i], single.F[0], atol=1e-14)

    def test_point_outside_domain(self, chain_n1):
        with pytest.raises(DomainError):
            f_chain_eval(chain_n1, [3 + 0j])

    def test_degenerate_point_flagged(self):
        # beta = z kills the jet at the origin
        chain = build_alpha_chain(["z"])
        assert list(f_chain_eval(chain, [0j, 0.5 + 0j]).singular) == [True, False]

    def test_nonpolynomial_chain(self):
        # beta = exp(z): phi = exp(z) - 1 via its Taylor surrogate, top
        # map still isotropic and orthogonal
        chain = build_alpha_chain(["exp(z)"])
        assert [s["index"] for s in chain.surrogates] == [0]
        z = 0.3 - 0.2j
        p = cmath.exp(z) - 1
        expected = np.array([1 - p * p, 1j * (1 + p * p), 2 * p])
        s = f_chain_eval(chain, [z])
        F, norms_sq = s.F[0], s.norms_sq[0]
        assert np.allclose(F[0], expected, atol=1e-9)
        assert abs(symmetric_product(F[0], F[0])) <= 1e-9 * norms_sq[0]
        assert abs(hermitian_product(F[0], F[1])) <= 1e-8 * np.sqrt(
            norms_sq[0] * norms_sq[1]
        )


class TestSurrogates:
    def test_report(self):
        chain = build_alpha_chain(["1+z", "exp(0.5*z)", "1/(z-3)"])
        assert [s["index"] for s in chain.surrogates] == [1, 2]
        for s in chain.surrogates:
            assert s["rho"] == abs(1 + 1j)
            assert 0 < s["degree"] < 100
            assert s["circle_error"] <= 1e-12
        assert build_alpha_chain(["1+z"]).surrogates == ()

    def test_disk_radius(self):
        chain = build_alpha_chain(["exp(z)"], domain=Domain.disk(0.3 + 0.4j, 0.5))
        assert chain.surrogates[0]["rho"] == pytest.approx(1.0)

    def test_pole_near_domain_refused(self):
        # the pole at 1.2 lies inside the circle |z| = sqrt(2) through
        # the corners of [-1, 1]^2
        with pytest.raises(DomainError, match=r"beta 1/\(z-1\.2\) has no Taylor surrogate"):
            build_alpha_chain(["1", "1/(z-1.2)"])

    def test_matches_series_of_pole(self):
        # the antiderivative of 1/(z-3) vanishing at 0 is log(1 - z/3)
        chain = build_alpha_chain(["1/(z-3)"])
        z = 0.7 - 0.9j
        phi = cmath.log(1 - z / 3)
        expected = np.array([1 - phi * phi, 1j * (1 + phi * phi), 2 * phi])
        assert np.allclose(chain.jets_at([z])[0, 0], expected, rtol=0, atol=1e-13)

    def test_verify_makes_no_quadrature_calls(self, monkeypatch):
        from holosphere import expr, quadrature
        from holosphere.geometry import verify_all

        calls = []
        original = quadrature.integrate_segment

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quadrature, "integrate_segment", counted)
        monkeypatch.setattr(expr, "integrate_segment", counted)
        chain = build_alpha_chain(["exp(0.5*z)", "cos(0.4*z)"])
        report = verify_all(chain, grid=(4, 4), calabi_order=2)
        assert report.passed
        assert calls == []


class TestRecursionCrosscheck:
    def test_n1_interior_point(self, chain_n1):
        assert recursion_crosscheck(chain_n1, 0.3 + 0.2j) <= 1e-5

    def test_n2_interior_point(self, chain_n2):
        assert recursion_crosscheck(chain_n2, 0.5 + 0j) <= 1e-5

    def test_first_step_is_exact(self, chain_n1):
        # F_1 is holomorphic and differentiated symbolically, so the two
        # constructions coincide to roundoff for n = 1
        assert recursion_crosscheck(chain_n1, 0.3 + 0.2j) <= 1e-12

    def test_stencil_must_fit(self, chain_n1):
        with pytest.raises(DomainError):
            recursion_crosscheck(chain_n1, 1 + 1j)


class TestSurface:
    def test_unit_norm(self, chain_n2):
        g = f_chain_eval(chain_n2, [0j, 0.25 - 0.75j, -1 + 1j]).g
        for row in g:
            assert abs(np.linalg.norm(row) - 1) <= 1e-14

    def test_matches_closed_form_oracle(self, chain_n1):
        zs, _ = chain_n1.domain.grid(10, 10)
        worst = 0.0
        for z in zs.ravel():
            g = f_chain_eval(chain_n1, [z]).g[0]
            worst = max(worst, np.linalg.norm(g - oracle_surface_n1(complex(z), 1 + 0j)))
        assert worst <= 1e-10

    def test_degenerate_chain_point_raises(self):
        chain = build_alpha_chain(["z"])
        batch = f_chain_eval(chain, [0j])
        assert batch.singular[0] and np.isnan(batch.g[0]).all()
        with pytest.raises(SingularPointError, match="chain degenerates"):
            require_regular(batch)

    def test_normalization_collapse_raises(self):
        # for beta = z the chain is fine at z = 0.2i but the real part of
        # the top vector vanishes on the whole imaginary axis
        chain = build_alpha_chain(["z"])
        s = f_chain_eval(chain, [0.2j])
        assert not s.singular[0]
        assert s.collapsed[0] and not s.ok[0] and np.isnan(s.g[0]).all()
        with pytest.raises(SingularPointError, match="normalization degenerates"):
            require_regular(s)

    def test_take_keeps_every_field(self):
        # for beta = z the chain degenerates at 0 and the normalization
        # collapses at 0.2i
        chain = build_alpha_chain(["z"])
        batch = f_chain_eval(chain, [0j, 0.2j, 0.5 + 0.25j, -0.3 + 0.1j])
        idx = [3, 1, 0]
        part = batch.take(idx)
        for name in FChainBatch.__slots__:
            np.testing.assert_array_equal(getattr(part, name),
                                          getattr(batch, name)[idx])
        assert part.singular.tolist() == [False, False, True]
        assert part.collapsed[1] and not part.collapsed[0]
        assert part.ok.tolist() == [True, False, False]
        assert np.isnan(part.g[1:]).all() and np.isfinite(part.g[0]).all()


class TestScanGrid:
    def test_clean_grid(self, chain_n1):
        scan = scan_grid(chain_n1, 10, 10)
        assert scan.singular.sum() == 0
        assert scan.valid.all()
        assert scan.surface.shape == (10, 10, 3)

    def test_row_major_order(self, chain_n1):
        scan = scan_grid(chain_n1, 3, 4)
        xs = np.linspace(-1, 1, 4)
        ys = np.linspace(-1, 1, 3)
        for r in range(3):
            for c in range(4):
                assert scan.zs[r, c] == xs[c] + 1j * ys[r]

    def test_degenerate_cells_masked(self):
        chain = build_alpha_chain(["z"])
        scan = scan_grid(chain, 11, 11)
        assert scan.singular[5, 5]          # chain degenerates at the origin
        assert not scan.valid[:, 5].any()   # normalization dies on Re z = 0
        assert scan.valid[:, 0].all()
        assert np.isnan(scan.surface[5, 5]).all()

    def test_grid_too_small(self, chain_n1):
        with pytest.raises(DomainError):
            scan_grid(chain_n1, 1, 1)

    def test_disk_domain_masks_outside(self):
        chain = build_alpha_chain(["1"], domain=Domain.disk(0j, 1.0))
        scan = scan_grid(chain, 9, 9)
        assert not scan.inside[0, 0]
        assert not scan.valid[0, 0]
        assert scan.valid[4, 4]

    def test_reproducible(self, chain_n2):
        a = scan_grid(chain_n2, 6, 6)
        b = scan_grid(chain_n2, 6, 6)
        assert np.array_equal(a.surface, b.surface, equal_nan=True)


# the chains of the blocked-scan cases, by name: betas, domain, grid
SCAN_CASES = {
    "rectangle": (["1+0.3*z", "0.8-0.2*z"], None, (23, 19)),
    "disk_n4": (["1+0.2*z", "z^2+3", "1-0.4*i*z", "2+z"],
                Domain.disk(0.1 - 0.2j, 0.9, base_point=0.1 - 0.2j), (17, 16)),
    # singular and collapsed rows fall across block edges
    "degenerate_n2": (["z", "1"], None, (11, 11)),
    "degenerate_n3": (["z", "1", "1"], None, (11, 13)),
    # no grid point lies inside the disk
    "empty_disk": (["1", "1"], Domain.disk(0j, 0.5), (2, 2)),
}
DEFAULT_SCAN_BLOCK = chain_module._SCAN_BLOCK


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint8)


@pytest.mark.parametrize("block", [1, 7, DEFAULT_SCAN_BLOCK])
@pytest.mark.parametrize("case", SCAN_CASES)
def test_blocked_scan_equals_one_batch(case, block, monkeypatch):
    """Every field of the blocked scan has the bits of the scatter of one
    chain evaluation at all inside points."""
    betas, domain, (rows, cols) = SCAN_CASES[case]
    chain = build_alpha_chain(betas, domain=domain)
    zs, inside = chain.domain.grid(rows, cols)
    batch = f_chain_eval(chain, zs[inside])
    want = GridScan.scatter(zs, inside, batch.ok, batch.g)
    monkeypatch.setattr(chain_module, "_SCAN_BLOCK", block)
    got = scan_grid(chain, rows, cols)
    for name in ("zs", "inside", "singular", "valid", "surface"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(_bits(a), _bits(b)), name
    if case == "empty_disk":
        assert not got.inside.any() and not got.valid.any()
        assert np.isnan(got.surface).all()
    elif case.startswith("degenerate"):
        assert got.singular.any() and got.valid.any()


def test_scan_memory_is_bounded_by_the_block(monkeypatch):
    """With blocks of 256 points, a 64x64 scan at n=4 holds less than the
    jets of the whole grid at once."""
    chain = build_alpha_chain(["1+0.2*z", "z^2+3", "1-0.4*i*z", "2+z"])
    whole_jets = 64 * 64 * (chain.n + 1) * chain.dim * np.dtype(complex).itemsize
    monkeypatch.setattr(chain_module, "_SCAN_BLOCK", 256)
    tracemalloc.start()
    try:
        scan_grid(chain, 64, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole_jets
