"""Expression trees for holomorphic functions of one complex variable.

The grammar (all binary operators left-associative)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | factor
    factor := atom ('^' integer)?
    atom   := variable | 'i' | decimal literal
            | 'exp(' expr ')' | 'sin(' expr ')' | 'cos(' expr ')'
            | '(' expr ')'

Implicit multiplication is not accepted, and exponents must be literal
nonnegative integers.  Trees built only from +, -, *, integer powers and
literals are polynomials: `poly_coeffs` gives their exact coefficients,
which is how they enter the chain.  The chain replaces every other tree
(a division or one of the entire functions exp/sin/cos) by a Taylor
surrogate taken from its values on a circle (`chain.build_alpha_chain`).

Evaluation accepts scalars or numpy arrays of points.  Differentiation is
symbolic throughout.  `antiderivative` evaluates the antiderivative of a
general tree: polynomial ones integrate termwise, the others by an
adaptive path integral from the domain base point.
"""

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import EvaluationError, ParseError
from .quadrature import integrate_segment


class HoloExpr:
    """Base class for expression-tree nodes."""

    __slots__ = ()

    def __str__(self):
        return to_string(self)

    @property
    def is_polynomial(self):
        return is_polynomial(self)


@dataclass(frozen=True)
class Var(HoloExpr):
    name: str


@dataclass(frozen=True)
class Const(HoloExpr):
    value: complex


@dataclass(frozen=True)
class Add(HoloExpr):
    left: HoloExpr
    right: HoloExpr


@dataclass(frozen=True)
class Sub(HoloExpr):
    left: HoloExpr
    right: HoloExpr


@dataclass(frozen=True)
class Mul(HoloExpr):
    left: HoloExpr
    right: HoloExpr


@dataclass(frozen=True)
class Div(HoloExpr):
    left: HoloExpr
    right: HoloExpr


@dataclass(frozen=True)
class Pow(HoloExpr):
    base: HoloExpr
    exponent: int


@dataclass(frozen=True)
class Neg(HoloExpr):
    operand: HoloExpr


@dataclass(frozen=True)
class Exp(HoloExpr):
    operand: HoloExpr


@dataclass(frozen=True)
class Sin(HoloExpr):
    operand: HoloExpr


@dataclass(frozen=True)
class Cos(HoloExpr):
    operand: HoloExpr


ZERO = Const(0j)
ONE = Const(1 + 0j)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or text[j] == "."):
                if text[j] == ".":
                    if seen_dot:
                        raise ParseError("malformed number", i)
                    seen_dot = True
                j += 1
            if j + 1 < n and text[j] in "eE" and (
                text[j + 1].isdigit()
                or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
            ):
                j += 2 if text[j + 1] in "+-" else 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def parse_unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_factor()

    def parse_factor(self):
        node = self.parse_atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind == "op" and text == "-":
                raise ParseError("negative exponents are not supported", pos)
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            node = Pow(node, int(text))
        return node

    def parse_atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(complex(float(text)))
        if kind == "name":
            if text == "i":
                return Const(1j)
            if text in _FUNCTIONS:
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return _FUNCTIONS[text](inner)
            if text in self.variables:
                return Var(text)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos)


def parse_expr(text, variables=("z",)):
    """Parse expression text into a HoloExpr tree.

    `variables` lists the admissible variable names ("z" by default; the
    scalar-function helpers use ("x", "y")).  Raises ParseError with the
    character offset of the first offending position.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), tuple(variables))
    node = parser.parse_expr()
    kind, _, pos = parser.peek()
    if kind != "eof":
        raise ParseError("unexpected trailing input", pos)
    return node


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC_ADD = 10
_PREC_NEG = 15
_PREC_MUL = 20
_PREC_POW = 30
_PREC_ATOM = 100


def _fmt_real(x):
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _const_str(value):
    """Format a complex literal; returns (text, precedence)."""
    re, im = value.real, value.imag
    if im == 0.0:
        if re >= 0:
            return _fmt_real(re), _PREC_ATOM
        return f"(-{_fmt_real(-re)})", _PREC_ATOM
    if re == 0.0 and im == 1.0:
        return "i", _PREC_ATOM
    re_part = _fmt_real(re) if re >= 0 else f"-{_fmt_real(-re)}"
    op = "+" if im >= 0 else "-"
    return f"({re_part}{op}{_fmt_real(abs(im))}*i)", _PREC_ATOM


def _to_string(e):
    """Returns (text, precedence of the outermost construct)."""
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Const):
        return _const_str(e.value)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left = _wrap(e.left, _PREC_ADD)
        right = _wrap(e.right, _PREC_ADD + 1)
        return f"{left}{op}{right}", _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _wrap(e.left, _PREC_MUL)
        right = _wrap(e.right, _PREC_MUL + 1)
        return f"{left}{op}{right}", _PREC_MUL
    if isinstance(e, Neg):
        return f"-{_wrap(e.operand, _PREC_POW)}", _PREC_NEG
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _PREC_ATOM)}^{e.exponent}", _PREC_POW
    if isinstance(e, Exp):
        return f"exp({_to_string(e.operand)[0]})", _PREC_ATOM
    if isinstance(e, Sin):
        return f"sin({_to_string(e.operand)[0]})", _PREC_ATOM
    if isinstance(e, Cos):
        return f"cos({_to_string(e.operand)[0]})", _PREC_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e, min_prec):
    text, prec = _to_string(e)
    return f"({text})" if prec < min_prec else text


def to_string(e):
    return _to_string(e)[0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_UFUNCS = {Exp: np.exp, Sin: np.sin, Cos: np.cos}


def _eval(e, env):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Add):
        return _eval(e.left, env) + _eval(e.right, env)
    if isinstance(e, Sub):
        return _eval(e.left, env) - _eval(e.right, env)
    if isinstance(e, Mul):
        return _eval(e.left, env) * _eval(e.right, env)
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, Div):
        num = _eval(e.left, env)
        den = _eval(e.right, env)
        if np.any(den == 0):
            z = _offending_point(den == 0, env)
            raise EvaluationError("division by zero", z)
        return num / den
    if isinstance(e, Pow):
        base = _eval(e.base, env)
        if e.exponent == 0:
            numeric = isinstance(base, np.ndarray) and base.dtype != object
            return np.ones_like(base) if numeric else 1 + 0j
        return base ** e.exponent
    if type(e) in _UFUNCS:
        value = _eval(e.operand, env)
        ufunc = _UFUNCS[type(e)]
        if isinstance(value, np.ndarray) and value.dtype == object:
            # entries are Python scalars: each gets the one-point call
            ufunc = np.frompyfunc(ufunc, 1, 1)
        return ufunc(value)
    raise TypeError(f"not an expression node: {e!r}")


def _offending_point(mask, env):
    vals = env.get("z")
    if vals is None:
        vals = env.get("x", 0) + 1j * np.asarray(env.get("y", 0))
    vals = np.asarray(vals)
    if vals.ndim == 0:
        return complex(vals)
    return complex(vals[np.argmax(np.asarray(mask))])


def eval_expr(e, z):
    """Evaluate a one-variable tree at the point(s) z.

    z may be a complex scalar or a numpy array of points; the result has
    matching shape.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        return complex(_eval(e, {"z": complex(z)}))
    out = np.asarray(_eval(e, {"z": z}), dtype=complex)
    if out.shape != z.shape:
        out = np.broadcast_to(out, z.shape).copy()
    return out


def eval_env(e, env):
    """Evaluate against an explicit variable environment (e.g. x, y).

    Object arrays of Python numbers evaluate entry by entry with the
    arithmetic of a scalar environment, bit for bit."""
    return _eval(e, env)


# ---------------------------------------------------------------------------
# Structure predicates and simplification
# ---------------------------------------------------------------------------

def is_polynomial(e):
    """True iff the tree contains no division or entire function."""
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, (Add, Sub, Mul)):
        return is_polynomial(e.left) and is_polynomial(e.right)
    if isinstance(e, Neg):
        return is_polynomial(e.operand)
    if isinstance(e, Pow):
        return is_polynomial(e.base)
    return False


def _is_zero(e):
    return isinstance(e, Const) and e.value == 0


def _is_one(e):
    return isinstance(e, Const) and e.value == 1


def simplify(e):
    """Light bottom-up cleanup: constant folding on +,-,*,/ and pruning of
    zero/one identities.  Keeps transcendental nodes untouched."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        a = simplify(e.operand)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.operand
        return Neg(a)
    if isinstance(e, (Exp, Sin, Cos)):
        return type(e)(simplify(e.operand))
    if isinstance(e, Pow):
        base = simplify(e.base)
        if e.exponent == 0:
            return ONE
        if e.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value ** e.exponent)
        return Pow(base, e.exponent)
    a = simplify(e.left)
    b = simplify(e.right)
    if isinstance(e, Add):
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value + b.value)
        return Add(a, b)
    if isinstance(e, Sub):
        if _is_zero(b):
            return a
        if _is_zero(a):
            return simplify(Neg(b))
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value - b.value)
        return Sub(a, b)
    if isinstance(e, Mul):
        if _is_zero(a) or _is_zero(b):
            return ZERO
        if _is_one(a):
            return b
        if _is_one(b):
            return a
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(a.value * b.value)
        return Mul(a, b)
    if isinstance(e, Div):
        if _is_zero(a):
            return ZERO
        if _is_one(b):
            return a
        if isinstance(a, Const) and isinstance(b, Const) and b.value != 0:
            return Const(a.value / b.value)
        return Div(a, b)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _diff(e, var):
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Add):
        return Add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Neg):
        return Neg(_diff(e.operand, var))
    if isinstance(e, Mul):
        return Add(
            Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var))
        )
    if isinstance(e, Div):
        num = Sub(
            Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var))
        )
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return ZERO
        inner = _diff(e.base, var)
        return Mul(Mul(Const(complex(e.exponent)), Pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Exp):
        return Mul(Exp(e.operand), _diff(e.operand, var))
    if isinstance(e, Sin):
        return Mul(Cos(e.operand), _diff(e.operand, var))
    if isinstance(e, Cos):
        return Mul(Neg(Sin(e.operand)), _diff(e.operand, var))
    raise TypeError(f"not an expression node: {e!r}")


def differentiate(e, var="z"):
    """Symbolic derivative with literal-zero subtrees pruned."""
    return simplify(_diff(e, var))


# ---------------------------------------------------------------------------
# Polynomial coefficients
# ---------------------------------------------------------------------------

def poly_coeffs(e, var="z"):
    """Ascending coefficient array of a polynomial tree.

    Raises ValueError on non-polynomial input.  The zero polynomial gives
    array([0j]).
    """
    if isinstance(e, Const):
        return np.array([e.value], dtype=complex)
    if isinstance(e, Var):
        if e.name != var:
            raise ValueError(f"unexpected variable {e.name!r}")
        return np.array([0j, 1 + 0j])
    if isinstance(e, Add):
        return _poly_add(poly_coeffs(e.left, var), poly_coeffs(e.right, var))
    if isinstance(e, Sub):
        return _poly_add(poly_coeffs(e.left, var), -poly_coeffs(e.right, var))
    if isinstance(e, Neg):
        return -poly_coeffs(e.operand, var)
    if isinstance(e, Mul):
        return _trim(np.convolve(poly_coeffs(e.left, var), poly_coeffs(e.right, var)))
    if isinstance(e, Pow):
        base = poly_coeffs(e.base, var)
        out = np.array([1 + 0j])
        for _ in range(e.exponent):
            out = np.convolve(out, base)
        return _trim(out)
    raise ValueError(f"not a polynomial: {to_string(e)}")


def _poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return _trim(out)


def _trim(c):
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _canonical(c):
    """An ascending coefficient array in canonical form: exact trailing
    zeros trimmed and, unless a single nonzero constant remains, negative
    zeros cleared."""
    c = _trim(c)
    return c.copy() if len(c) == 1 and c[0] != 0 else c + 0.0


def _poly_integral(coeffs, constant, base_point):
    """Ascending coefficients of the antiderivative of `coeffs` that
    takes the value `constant` at base_point."""
    shifted = np.concatenate([[0j], coeffs / (1 + np.arange(len(coeffs)))])
    shifted[0] = constant - np.polynomial.polynomial.polyval(base_point, shifted)
    return shifted


# ---------------------------------------------------------------------------
# Antiderivatives
# ---------------------------------------------------------------------------

class Antiderivative:
    """Antiderivative of a one-variable tree, anchored at the domain base
    point: value(base_point) == constant.

    Polynomial integrands integrate termwise into polynomial coefficients
    (mode "symbolic").  Everything else evaluates by adaptive quadrature
    along the straight segment from the base point (mode "quadrature");
    results are cached per point, which keeps nested antiderivatives
    affordable.  Instances are immutable apart from that cache.
    """

    def __init__(self, expr, constant, domain, abs_tol=1e-12):
        self.expr = expr
        self.constant = complex(constant)
        self.domain = domain
        self.abs_tol = abs_tol
        if is_polynomial(expr):
            self.mode = "symbolic"
            self._coeffs = _poly_integral(
                poly_coeffs(expr), self.constant, domain.base_point
            )
        else:
            self.mode = "quadrature"
            self._coeffs = None
            self._cache = {}

    def value(self, z):
        """Evaluate at a scalar or an array of points."""
        if self.mode == "symbolic":
            z = np.asarray(z, dtype=complex)
            out = np.polynomial.polynomial.polyval(z, self._coeffs)
            return complex(out) if z.ndim == 0 else out
        z_arr = np.asarray(z, dtype=complex)
        if z_arr.ndim == 0:
            return self._quad_value(complex(z_arr))
        flat = z_arr.ravel()
        out = np.array([self._quad_value(complex(w)) for w in flat])
        return out.reshape(z_arr.shape)

    def _quad_value(self, z):
        hit = self._cache.get(z)
        if hit is not None:
            return hit
        val = self.constant + integrate_segment(
            lambda w: _eval(self.expr, {"z": w}),
            self.domain.base_point,
            z,
            abs_tol=self.abs_tol,
        )
        self._cache[z] = val
        return val


def antiderivative(e, c, d: Domain, abs_tol=1e-12):
    """Antiderivative of e with value c at the base point of d."""
    return Antiderivative(e, c, d, abs_tol=abs_tol)
