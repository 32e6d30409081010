import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holosphere.products import _dot, _pair_minors_max

from conftest import principal_angles

ISO = np.array([1, 1j, 0])


class TestSymmetric:
    def test_canonical_isotropic_vector(self):
        assert np.dot(ISO, ISO) == 0

    def test_disjoint_support(self):
        assert np.dot(np.array([1, 0]), np.array([0, 1])) == 0

    def test_no_conjugation(self):
        assert np.dot(np.array([1j]), np.array([1j])) == -1


class TestHermitian:
    # np.vdot conjugates its first argument: <u, v> = np.vdot(v, u)
    def test_self_product_is_squared_norm(self):
        assert np.vdot(ISO, ISO) == 2

    def test_conjugate_pair(self):
        assert np.vdot(np.array([1, -1j, 0]), ISO) == 0

    def test_zero_vector(self):
        assert np.vdot(np.array([5j]), np.array([0j])) == 0

    def test_positivity(self):
        v = np.array([0.3 - 1j, 2 + 0.5j, -1j])
        assert np.vdot(v, v).real > 0
        assert abs(np.vdot(v, v).imag) == 0
        assert np.vdot(v, v).real == pytest.approx(np.linalg.norm(v) ** 2, rel=1e-15)


_int_vec = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(lambda p: complex(*p)),
    min_size=3,
    max_size=3,
).map(np.array)


@given(_int_vec, _int_vec, _int_vec, st.integers(-5, 5), st.integers(-5, 5))
def test_symmetric_bilinearity_exact(u, w, v, a, b):
    left = _dot(a * u + b * w, v)
    right = a * _dot(u, v) + b * _dot(w, v)
    assert left == right


@given(_int_vec, _int_vec)
def test_symmetric_is_symmetric(u, v):
    assert _dot(u, v) == _dot(v, u)


@given(_int_vec, _int_vec)
def test_hermitian_conjugate_symmetry(u, v):
    assert _dot(u, np.conj(v)) == np.conj(_dot(v, np.conj(u)))


@given(_int_vec)
def test_hermitian_definite(u):
    val = _dot(u, np.conj(u))
    assert val.imag == 0 and val.real >= 0
    assert (val == 0) == bool(np.all(u == 0))


class TestMinors:
    def test_collinear_pair(self):
        v = np.array([1 + 1j, 2, -1j])
        assert _pair_minors_max(v[None], (2 - 1j) * v[None])[0] < 1e-14

    def test_independent_pair(self):
        assert _pair_minors_max(np.array([[1, 0]]), np.array([[0, 1]]))[0] == 1


class TestPrincipalAngles:
    def test_same_span(self):
        a = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        b = np.array([[2, 1], [1, 1], [0, 0]], dtype=complex)
        assert principal_angles(a, b).max() < 1e-12

    def test_orthogonal_spans(self):
        a = np.array([[1], [0], [0]], dtype=complex)
        b = np.array([[0], [0], [1j]], dtype=complex)
        assert abs(principal_angles(a, b).max() - np.pi / 2) < 1e-12
