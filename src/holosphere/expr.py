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
nonnegative integers.  Every tree node is one `HoloExpr(op, args)`:
"var" (name,), "const" (value,), "+", "-", "*" or "/" (left, right),
"neg", "exp", "sin" or "cos" (operand,), or "^" (base, exponent).
Trees built only from +, -, *, integer powers and literals are
polynomials: `poly_coeffs` gives their exact coefficients, which is how
they enter the chain.  The chain replaces every other tree (a division
or one of the entire functions exp/sin/cos) by a Taylor surrogate taken
from its values on a circle (`chain.build_alpha_chain`).

Evaluation accepts scalars or numpy arrays of points.  `Antiderivative`
evaluates the antiderivative of a general tree: polynomial ones
integrate termwise, the others by an adaptive path integral from the
domain base point.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError
from .quadrature import integrate_segment


@dataclass(frozen=True)
class HoloExpr:
    """One node of an expression tree: the operation `op` on `args`.

    op                    args
    "var"                 (name,), the variable's name
    "const"               (value,), a complex literal
    "+", "-", "*", "/"    (left, right)
    "neg"                 (operand,), unary minus
    "^"                   (base, exponent), the exponent an int >= 0
    "exp", "sin", "cos"   (operand,)

    Every other argument is a HoloExpr.  Trees are immutable and equal
    when their ops and arguments are.
    """

    op: str
    args: tuple


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
                node = HoloExpr(text, (node, rhs))
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = HoloExpr(text, (node, rhs))
            else:
                return node

    def parse_unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return HoloExpr("neg", (self.parse_unary(),))
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
            node = HoloExpr("^", (node, int(text)))
        return node

    def parse_atom(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return HoloExpr("const", (complex(float(text)),))
        if kind == "name":
            if text == "i":
                return HoloExpr("const", (1j,))
            if text in ("exp", "sin", "cos"):
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
                return HoloExpr(text, (inner,))
            if text in self.variables:
                return HoloExpr("var", (text,))
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos)


def parse_expr(text, variables=("z",)):
    """Parse expression text into a HoloExpr tree: one node for each
    variable, literal, operator and function of the text, none for
    parentheses.

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
# Evaluation
# ---------------------------------------------------------------------------

_OPERATIONS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "neg": operator.neg,
    "exp": np.exp, "sin": np.sin, "cos": np.cos,
}


def _eval(e, env):
    op, args = e.op, e.args
    if op == "const":
        return args[0]
    if op == "var":
        return env[args[0]]
    if op == "^":
        base, exponent = _eval(args[0], env), args[1]
        if exponent == 0:
            return np.ones_like(base) if isinstance(base, np.ndarray) else 1 + 0j
        return base ** exponent
    values = [_eval(arg, env) for arg in args]
    if op == "/" and np.any(values[1] == 0):
        z = _offending_point(values[1] == 0, env)
        raise EvaluationError("division by zero", z)
    return _OPERATIONS[op](*values)


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


# ---------------------------------------------------------------------------
# Polynomial coefficients
# ---------------------------------------------------------------------------

def poly_coeffs(e):
    """Ascending coefficient array of a polynomial tree in z.

    Raises ValueError on non-polynomial input (a division or an
    exp/sin/cos node): the package's one test of which trees are
    polynomials.  The zero polynomial gives array([0j]).
    """
    op, args = e.op, e.args
    if op == "const":
        return np.array([args[0]], dtype=complex)
    if op == "var":
        return np.array([0j, 1 + 0j])
    if op == "+":
        return _trim(_padded_sum(poly_coeffs(args[0]), poly_coeffs(args[1])))
    if op == "-":
        return _trim(_padded_sum(poly_coeffs(args[0]), -poly_coeffs(args[1])))
    if op == "neg":
        return -poly_coeffs(args[0])
    if op == "*":
        return _trim(np.convolve(poly_coeffs(args[0]), poly_coeffs(args[1])))
    if op == "^":
        base = poly_coeffs(args[0])
        out = np.array([1 + 0j])
        for _ in range(args[1]):
            out = np.convolve(out, base)
        return _trim(out)
    raise ValueError(f"not a polynomial: a {op!r} node")


def _padded_sum(a, b):
    """The sum of two ascending coefficient arrays, as long as the longer."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return out


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
        try:
            coeffs = poly_coeffs(expr)
        except ValueError:
            self.mode = "quadrature"
            self._coeffs = None
            self._cache = {}
        else:
            self.mode = "symbolic"
            self._coeffs = _poly_integral(coeffs, self.constant, domain.base_point)

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

