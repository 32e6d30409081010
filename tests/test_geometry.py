import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosphere import Domain, build_alpha_chain, f_chain_eval, geometry
from holosphere import chain as chain_module
from holosphere.chain import GridScan
from holosphere.errors import DegenerateSurfaceError, DomainError
from holosphere.fd import (
    default_step,
    derivatives,
    replayed,
    stencil_size,
    stencil_table,
    wirtinger,
)
from holosphere.geometry import (
    DiagnosticsReport,
    SurfaceEvaluator,
    _fundamental_forms,
    calabi_check,
    minimality_residual,
    verify_all,
)

from conftest import (
    isotropic_surface_form_residual,
    reference_text,
    report_text,
    second_normal_space_angle,
    stencil_field,
    sweep_block,
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
        formula = _fundamental_forms(batch.F, batch.norms_sq, batch.g, [0])[0, 0]
        fd, = wirtinger(surface_n2, z, [(1, 0)], default_step(surface_n2.domain.diameter, 1))
        assert np.linalg.norm(fd - formula) <= 1e-5 * np.linalg.norm(formula)

    @pytest.mark.parametrize("s", [0, 1])
    def test_isotropy_of_forms(self, chain_n2, s):
        batch = f_chain_eval(chain_n2, [0.45 + 0.12j])
        vec = _fundamental_forms(batch.F, batch.norms_sq, batch.g, [s])[0, 0]
        scale = float(np.real(np.dot(vec, np.conj(vec))))
        assert abs(np.dot(vec, vec)) <= 1e-9 * scale

    def test_second_normal_space_span(self, chain_n2):
        angle = second_normal_space_angle(chain_n2, 0.3 + 0.4j)
        assert angle <= 1e-4

    def test_isotropic_surface_first_form(self, chain_n1, chain_n2):
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
                for point in json.loads(report_text(report))["points"]
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
        report = verify_all(chain_n1, grid=(4, 4))
        text = report_text(report)
        assert '"passed": true' in text
        assert json.loads(text)["passed"] is True

    def test_degenerate_points_masked_not_fatal(self):
        chain = build_alpha_chain(["z"])
        report = verify_all(chain, grid=(5, 5), calabi_order=0)
        assert report.singular_count > 0


# the chains of the blocked-sweep cases, by name: betas, domain, grid and
# the other arguments of verify_all
SWEEP_CASES = {
    # more inside points than one default block
    "rectangle": (["1+0.3*z", "0.8-0.2*z"], None, (33, 33), {}),
    "disk_n3": (["1+0.2*z", "z^2+3", "1-0.4*i*z"],
                Domain.disk(0.1 - 0.2j, 0.9, base_point=0.1 - 0.2j), (12, 11),
                {"calabi_order": 3}),
    # singular at the grid centre, stencils that touch it fall across
    # block edges
    "degenerate_n2": (["z", "1"], None, (11, 11),
                      {"perturb": {"target": "F2", "magnitude": 1e-3},
                       "calabi_order": 4}),
    "fd_step_n3": (["1", "1", "1"], None, (9, 10), {"fd_step": 0.05}),
}
DEFAULT_SCAN_BLOCK = chain_module._SCAN_BLOCK


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint8)


def _sweep_report(case, block, monkeypatch, **extra):
    """The report of a SWEEP_CASES case with evaluations of at most
    `block` chain points (one centre per block where that is less than
    one centre's stencils)."""
    betas, domain, grid, kwargs = SWEEP_CASES[case]
    chain = build_alpha_chain(betas, domain=domain)
    monkeypatch.setattr(chain_module, "_SCAN_BLOCK", block)
    return verify_all(chain, grid=grid, **{**kwargs, **extra})


@pytest.mark.parametrize("block", [1, 7, 1024, DEFAULT_SCAN_BLOCK])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_blocked_sweep_equals_one_block(case, block, monkeypatch):
    """Every field of the report of a blocked sweep has the bits of the
    report of one sweep over all inside points."""
    want = _sweep_report(case, 10**9, monkeypatch)
    got = _sweep_report(case, block, monkeypatch)
    _assert_same_report(got, want)
    if case == "degenerate_n2":
        assert got.singular_count > 0 and not got.passed


def test_multi_block_sweep_stays_within_the_point_budget(monkeypatch):
    """At Calabi order 4, blocks of several centres each, with every
    chain evaluation within the point budget, give the bits of the
    one-block report."""
    sizes = []   # the size of each chain evaluation
    original = chain_module.f_chain_eval

    def counted(chain, zs, *args, **kwargs):
        sizes.append(np.size(zs))
        return original(chain, zs, *args, **kwargs)

    want = _sweep_report("disk_n3", 10**9, monkeypatch, calabi_order=4)
    monkeypatch.setattr(chain_module, "f_chain_eval", counted)
    got = _sweep_report("disk_n3", 1000, monkeypatch, calabi_order=4)
    # 85 points per centre at most: 11 centres a block
    assert len(sizes) > 1 and max(sizes) <= 1000
    _assert_same_report(got, want)
    assert got.counts["calabi"]["evaluated"] > 0


def _assert_same_report(got, want):
    """Every field of the report got has the bits of that of want."""
    # the JSON text of the report, compared whole (a diff of it is slow)
    same_json = report_text(got) == report_text(want)
    assert same_json
    for field in dataclasses.fields(DiagnosticsReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "residuals":
            assert list(a) == list(b)
            for fam in a:
                assert a[fam].dtype == b[fam].dtype, fam
                assert np.array_equal(_bits(a[fam]), _bits(b[fam])), fam
        elif field.name == "calabi":
            assert a[0] == b[0] and a[1].shape == b[1].shape
            assert np.array_equal(_bits(a[1]), _bits(b[1]))
        elif field.name == "scan":
            for name in ("zs", "inside", "singular", "valid", "surface"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.shape == y.shape and x.dtype == y.dtype, name
                assert np.array_equal(_bits(x), _bits(y)), name
        else:
            assert a == b, field.name


def test_stencil_table_holds_every_point_derivatives_asks_for():
    """`fd.stencil_table` holds, once each, every point at which
    `derivatives` evaluates its field for the reads of a Calabi order 4
    sweep, and its rows list them in the order they are asked for;
    `stencil_size` bounds the points per centre."""
    chain = build_alpha_chain(["1+0.2*z", "z^2+3"])
    reads = geometry._sweep_reads(chain.domain, default_step(chain.domain.diameter, 1),
                                  4)
    zs, inside = chain.domain.grid(7, 7)
    centres = zs[inside]
    asked = []

    def field(pts):
        asked.append(pts.copy())
        return stencil_field(chain)(pts)

    derivatives(field, centres, reads, chain.domain)
    points, (rows, centre) = stencil_table(centres, reads, chain.domain)
    asked = np.concatenate(asked)
    assert _bits(points[rows]).tobytes() == _bits(asked).tobytes()
    assert _bits(points[:centres.size]).tobytes() == _bits(centres).tobytes()
    assert len({p.tobytes() for p in points}) == points.size < asked.size
    assert (np.abs(asked - centres[centre]) <= 0.1).all()
    one, _ = stencil_table(np.array([chain.domain.base_point]), reads, chain.domain)
    assert one.size - 1 < stencil_size(reads) == 69


@pytest.mark.parametrize("calabi_order", [2, 3, 4])
def test_stencil_size_bounds_the_points_of_each_centre(calabi_order):
    """A centre of a `stencil_table` gets at most 1 + `stencil_size`
    points, one per distinct displacement besides itself; a centre with a
    negative zero part, whose z + 0j point is not its own row, gets that
    many when it fits every margin."""
    domain = Domain.rectangle(-1 - 1j, 1 + 1j)
    reads = geometry._sweep_reads(domain, default_step(domain.diameter, 1),
                                  calabi_order)
    bound = 1 + stencil_size(reads)
    assert bound == {2: 18, 3: 38, 4: 70}[calabi_order]
    # plain centres, negative zero parts, and centres near the edge: at
    # Calabi orders 3 and 4 those fit the small margins of the FD families
    # but not the large one of the Calabi reads
    centres = np.array([0.3 + 0.2j, complex(-0.0, 0.5), complex(0.25, -0.0),
                        complex(-0.0, -0.0), 0.98 + 0.1j, complex(-0.0, -0.99),
                        complex(0.999, -0.0)])
    _, (rows, centre) = stencil_table(centres, reads, domain)
    counts = [len(set(rows[centre == c].tolist()) | {c}) for c in range(centres.size)]
    assert max(counts) <= bound
    assert counts[1] == counts[3] == bound


def test_replayed_field_answers_in_the_plan_order_only():
    domain = Domain.rectangle(-1 - 1j, 1 + 1j)
    centres = np.array([complex(-0.0, 0.5), 0.25 + 0j])
    reads = [(0.1, 0.01, (1, 1))]
    points, plan = stencil_table(centres, reads, domain)
    # nine points a stencil, at h and at h/2; the (0, 0) offsets of
    # -0.0 + 0.5i are one point of their own, those of 0.25 its row
    assert points.size == 2 + (8 + 8 + 1) + (8 + 8)
    field = replayed(points, np.arange(points.size), plan)
    asked = points[plan[0]]
    with pytest.raises(ValueError, match="out of its plan's order"):
        field(asked[1:])
    assert field(asked[:9]).tolist() == plan[0][:9].tolist()


def test_replayed_stencils_keep_the_bits_of_each_stencil_point():
    """Derivatives read from one evaluation of the centres and their
    stencil points have the bits of derivatives of the field itself,
    with and without a mask, for a field that tells a negative zero part
    from a positive one: the (0, 0) offset of a centre -0.0 + yi is the
    point 0.0 + yi."""
    domain = Domain.rectangle(-1 - 1j, 1 + 1j)

    def field(zs):
        return np.copysign(1.0, zs.real) + np.copysign(2.0, zs.imag) + zs ** 3

    centres = np.array([complex(-0.0, 0.3), complex(0.3, -0.0), -0.25 + 0.1j])
    h = default_step(domain.diameter, 1)
    reads = geometry._sweep_reads(domain, h, 4)
    points, plan = stencil_table(centres, reads, domain)
    for where in (None, np.array([True, False, True])):
        got = derivatives(replayed(points, field(points), plan, where), centres, reads,
                          domain, where=where)
        want = derivatives(field, centres, reads, domain, where=where)
        for a, b in zip(got, want):
            assert np.array_equal(_bits(a), _bits(b))
    # the centre's own row would give those (0, 0) offsets other values
    assert (field(centres[:2]) != field(centres[:2] + 0j)).all()


def test_sweep_reads_a_negative_zero_centre_as_its_own_stencils_do():
    """A stencil's (0, 0) offset at a centre with a negative zero part is
    z + 0j h, which the sweep's one evaluation holds as a point of its
    own: every derivative has the bits of a call on the evaluating field."""
    chain = build_alpha_chain(["1+0.2*z", "z^2+3"])
    centres = np.array([complex(-0.0, 0.3), complex(0.3, -0.0), -0.25 + 0.1j])
    h = default_step(chain.domain.diameter, 1)
    sw = sweep_block(chain, centres, h, 4)
    reads = geometry._sweep_reads(chain.domain, h, 4)
    dz, dzdbar, *derivs = derivatives(stencil_field(chain), centres, reads,
                                      chain.domain)
    want = [dz, dzdbar] + [d[:, 0] for d in derivs]
    got = [sw.dz, sw.dzdbar] + sw.calabi_derivs[1:]
    assert sw.ok.all() and len(got) == 6
    assert all(not np.isnan(d).any() for d in want)
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


def test_sweep_memory_is_bounded_by_the_block(monkeypatch):
    """With evaluations of at most 1,216 points (64 centres and their
    stencils), a 40x40 sweep at n=3 holds less than the stencil field of
    the whole grid at one step."""
    chain = build_alpha_chain(["1+0.2*z", "z^2+3", "1-0.4*i*z"])
    n = chain.n
    whole_field = 40 * 40 * 9 * (2 * n) * chain.dim * np.dtype(complex).itemsize
    monkeypatch.setattr(chain_module, "_SCAN_BLOCK", 64 * 19)
    tracemalloc.start()
    try:
        verify_all(chain, grid=(40, 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole_field


# reports whose text the golden files do not cover: betas, domain, grid
# and the other arguments of verify_all
TEXT_CASES = {
    # the FD families and the Calabi tables are checked at no point
    # (UNCHECKED, without a summary or worst point; empty tables)
    "unchecked_2x2": (["1", "1"], None, (2, 2), {}),
    # singular on the line Re z = 0, no Calabi table at points near it
    "collapsed_line": (["z", "1"], None, (9, 9), {"calabi_order": 4}),
    "calabi_order_0": (["1+0.2*z", "1"], None, (5, 6), {"calabi_order": 0}),
    "calabi_order_3": (["1", "1", "1"], None, (6, 5), {"calabi_order": 3}),
    # grid points outside the disk have no record
    "disk": (["1+0.3*z", "1"], Domain.disk(0.1, 0.8, base_point=0.1), (9, 8), {}),
    "surrogates": (["1", "exp(0.5*z)"], None, (4, 4), {}),
}


@functools.cache
def _text_report(case):
    betas, domain, grid, kwargs = TEXT_CASES[case]
    return verify_all(build_alpha_chain(betas, domain=domain), grid=grid, **kwargs)


def _same_text(report):
    """Whether the writer's text equals the reference encoder's; a bool,
    since a diff of the two texts is slow."""
    return report_text(report) == reference_text(report)


@pytest.mark.parametrize("case", TEXT_CASES)
def test_report_text_equals_reference(case):
    assert _same_text(_text_report(case))


def test_report_text_of_no_inside_point_equals_reference():
    # a 2x2 grid of a disk has every point outside; verify_all refuses
    # it, so the report of the "disk" case is given the scan of that grid
    report = _text_report("disk")
    zs, inside = Domain.disk(0.1, 0.8).grid(2, 2)
    assert not inside.any()
    pairs, values = report.calabi
    empty = dataclasses.replace(
        report,
        residuals={fam: np.empty(0) for fam in report.residuals},
        calabi=(pairs, np.empty((0, len(pairs)))),
        scan=GridScan.scatter(zs, inside, np.empty(0, dtype=bool),
                              np.empty((0, report.scan.surface.shape[-1]))),
    )
    assert _same_text(empty)
    assert '\n  "points": [],\n' in report_text(empty)


# every kind of float: NaN (not evaluated), infinities, signed zeros,
# subnormals and magnitudes from 1e-300 to 1e300
_ANY_FLOAT = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-320,
                     2.2250738585072014e-308]),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300),
    st.floats(),
)


@settings(max_examples=60, deadline=None)
@given(pool=st.lists(_ANY_FLOAT, min_size=1, max_size=16),
       seed=st.integers(0, 2**32 - 1))
def test_report_text_of_any_floats_equals_reference(pool, seed):
    # the residual and Calabi arrays of a real report, drawn from the pool
    report = _text_report("collapsed_line")
    rng = np.random.default_rng(seed)
    pairs, values = report.calabi
    table = rng.choice(pool, size=values.shape)
    # whole rows of NaN: points without a table
    table[rng.random(len(table)) < 0.2] = np.nan
    changed = dataclasses.replace(
        report, calabi=(pairs, table),
        residuals={fam: rng.choice(pool, size=len(values)) for fam in report.residuals})
    assert _same_text(changed)
    json.loads(report_text(changed), parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")
