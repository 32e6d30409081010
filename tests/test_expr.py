import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosphere.domain import Domain
from holosphere.errors import EvaluationError, ParseError
from holosphere.expr import (
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Mul,
    Neg,
    Pow,
    Sin,
    Sub,
    Var,
    antiderivative,
    differentiate,
    eval_expr,
    is_polynomial,
    parse_expr,
    poly_coeffs,
    to_string,
)

Z = Var("z")
SQUARE = Domain.rectangle(-1 - 1j, 1 + 1j, base_point=0j)


class TestParse:
    def test_power_plus_constant(self):
        assert parse_expr("z^2+1") == Add(Pow(Z, 2), Const(1 + 0j))

    def test_product_left_associative(self):
        assert parse_expr("2*i*z") == Mul(Mul(Const(2 + 0j), Const(1j)), Z)

    def test_truncated_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("z+")
        assert err.value.offset == 2

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_expr("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as err:
            parse_expr("z+w")
        assert err.value.offset == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_expr("z z")
        assert err.value.offset == 2

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("z^2.5")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("z^-1")

    def test_unary_minus_binds_below_power(self):
        assert parse_expr("-z^2") == Neg(Pow(Z, 2))

    def test_parenthesized_power_base(self):
        assert parse_expr("(z+1)^3") == Pow(Add(Z, Const(1 + 0j)), 3)

    def test_functions(self):
        assert parse_expr("exp(z)") == Exp(Z)
        assert parse_expr("sin(cos(z))") == Sin(Cos(Z))

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_expr("2z")

    def test_scientific_literal(self):
        assert parse_expr("1e-3") == Const(1e-3 + 0j)

    def test_two_variable_mode(self):
        e = parse_expr("1+x^2+y^2", variables=("x", "y"))
        assert e == Add(Add(Const(1 + 0j), Pow(Var("x"), 2)), Pow(Var("y"), 2))
        with pytest.raises(ParseError):
            parse_expr("z", variables=("x", "y"))


class TestEval:
    def test_root_of_unity(self):
        assert eval_expr(parse_expr("z^2+1"), 1j) == 0

    def test_exp_at_zero(self):
        assert eval_expr(parse_expr("exp(z)"), 0j) == 1

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError) as err:
            eval_expr(parse_expr("1/z"), 0j)
        assert err.value.z == 0j

    def test_division_by_zero_in_array(self):
        zs = np.array([1.0 + 0j, 0j, 2.0 + 0j])
        with pytest.raises(EvaluationError) as err:
            eval_expr(parse_expr("1/z"), zs)
        assert err.value.z == 0j

    def test_array_eval_matches_scalar(self):
        e = parse_expr("exp(z)*sin(z)-z^3/(1+z^2)")
        zs = np.array([0.3 + 0.4j, -0.2 + 0.1j, 1.5 - 0.7j])
        batch = eval_expr(e, zs)
        for z, v in zip(zs, batch):
            assert abs(v - eval_expr(e, complex(z))) < 1e-14

    def test_constant_broadcast(self):
        zs = np.zeros(4, dtype=complex)
        assert np.all(eval_expr(parse_expr("3"), zs) == 3)


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse_expr("z^2"))
        assert np.array_equal(poly_coeffs(d), np.array([0j, 2 + 0j]))

    def test_constant(self):
        assert differentiate(parse_expr("3")) == Const(0j)

    def test_exponential_fixed_point(self):
        assert differentiate(parse_expr("exp(z)")) == parse_expr("exp(z)")

    def test_quotient_rule_matches_fd(self):
        e = parse_expr("sin(z)/(1+z^2)")
        d = differentiate(e)
        z, h = 0.37 + 0.21j, 1e-6
        fd = (eval_expr(e, z + h) - eval_expr(e, z - h)) / (2 * h)
        assert abs(eval_expr(d, z) - fd) < 1e-8

    def test_polynomial_stays_polynomial(self):
        d = differentiate(parse_expr("(1+z)^4-2*z^2"))
        assert is_polynomial(d)


class TestPolynomials:
    def test_is_polynomial_flags(self):
        assert is_polynomial(parse_expr("(1+z)^3-z"))
        assert not is_polynomial(parse_expr("z/2"))
        assert not is_polynomial(parse_expr("exp(z)"))

    def test_coeff_extraction(self):
        c = poly_coeffs(parse_expr("(1+z)^2"))
        assert np.allclose(c, [1, 2, 1])

    def test_non_polynomial_raises(self):
        with pytest.raises(ValueError):
            poly_coeffs(parse_expr("1/z"))


class TestAntiderivative:
    def test_constant_integrand(self):
        F = antiderivative(parse_expr("1"), 0j, SQUARE)
        assert F.mode == "symbolic"
        assert F.value(2 + 1j) == 2 + 1j

    def test_linear_integrand(self):
        F = antiderivative(parse_expr("z"), 0j, SQUARE)
        assert F.value(2.0 + 0j) == 2.0

    def test_quadrature_against_closed_form(self):
        # independent oracle: the antiderivative of exp anchored at 0 is
        # exp(z) - 1, evaluated via cmath
        F = antiderivative(parse_expr("exp(z)"), 0j, SQUARE)
        assert F.mode == "quadrature"
        assert abs(F.value(1.0 + 0j) - (cmath.exp(1) - 1)) < 1e-10
        assert abs(F.value(0.5 + 0.5j) - (cmath.exp(0.5 + 0.5j) - 1)) < 1e-10

    def test_value_at_base_point(self):
        c = 0.7 - 0.2j
        Fq = antiderivative(parse_expr("cos(z)"), c, SQUARE)
        assert Fq.value(SQUARE.base_point) == c  # exact in quadrature mode
        Fs = antiderivative(parse_expr("z^2"), c, SQUARE)
        assert abs(Fs.value(SQUARE.base_point) - c) < 1e-15

    def test_path_independence_through_midpoint(self):
        from holosphere.quadrature import integrate_segment

        e = parse_expr("exp(z)*sin(z)")
        target = 0.8 + 0.6j
        direct = integrate_segment(lambda w: eval_expr(e, w), 0j, target)
        for mid in (0.1 - 0.4j, 0.5 + 0.5j, -0.3 + 0.2j):
            legs = integrate_segment(
                lambda w: eval_expr(e, w), 0j, mid
            ) + integrate_segment(lambda w: eval_expr(e, w), mid, target)
            assert abs(legs - direct) < 1e-10


class TestWirtingerHolomorphy:
    @pytest.mark.parametrize("text", ["z^3-2*z", "exp(z)", "exp(z)*sin(z)+z^2"])
    def test_dbar_vanishes(self, text):
        e = parse_expr(text)
        z, h = 0.3 + 0.2j, 1e-5
        fx = (eval_expr(e, z + h) - eval_expr(e, z - h)) / (2 * h)
        fy = (eval_expr(e, z + 1j * h) - eval_expr(e, z - 1j * h)) / (2 * h)
        assert abs(0.5 * (fx + 1j * fy)) < 1e-8


# --- printing round trip -----------------------------------------------

_atoms = st.one_of(
    st.just(Z),
    st.just(Const(1j)),
    st.integers(0, 9).map(lambda k: Const(complex(k))),
    st.floats(0.0, 8.0, allow_nan=False).map(lambda x: Const(complex(round(x, 3)))),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        st.tuples(children, children).map(lambda ab: Div(*ab)),
        children.map(Neg),
        st.tuples(children, st.integers(0, 4)).map(lambda bk: Pow(*bk)),
        children.map(Exp),
        children.map(Sin),
        children.map(Cos),
    )


_parse_image_trees = st.recursive(_atoms, _combine, max_leaves=20)


@given(_parse_image_trees)
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(tree):
    assert parse_expr(to_string(tree)) == tree


@pytest.mark.parametrize(
    "text",
    ["-z^2", "2*(-z)", "z-(1-z)", "z/(2*z)", "exp(z^2)-sin(z)*cos(z)", "1e-3*z"],
)
def test_parse_print_idempotent(text):
    first = parse_expr(text)
    assert parse_expr(to_string(first)) == first
