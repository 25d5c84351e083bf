"""Expression parser turning user input into sparse polynomials.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr     :=  term (('+' | '-') term)*
    term     :=  unary (('*' | '/') unary)*      '/' only over Q, literal RHS
    unary    :=  '-'* atom (('^' | '**') INT)*   right-associative literal tower
    atom     :=  INT | 'i' | 'x'<digits> | '(' expr ')'

Tokens: a decimal-digit run, ``x`` and its digits, ``i``, ``(``, ``)``, ``**``
and ``-+*/^``.  Digits and whitespace are the Unicode classes ``str.isdecimal``
and ``str.isspace`` accept: ``x\u0663`` is x3, a superscript ``\u00b2`` an error.

``i`` is accepted only where the ring has it (Z[i]); ``/`` only over a field
(Q) and only with an integer literal denominator.  Exponents are capped at
``EXPONENT_CAP``, and every product and power is sized before it is built:
t1*t2 terms for a product and C(t+k-1, k) for the k-th power of t terms
bound the result, and a bound over ``TERM_CAP`` raises ``BudgetError``.
Past the cap a product's or power's bound also counts the monomials it can
hold (see ``_monomial_count``), since merging can leave far fewer terms.
Parentheses nest to any depth: the parser keeps them on a list, not on the
Python stack.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from math import comb

from .errors import BudgetError
from .poly import SparsePoly
from .rings import Ring

EXPONENT_CAP = 64
# (x1+...+x6)^14, 11,628 terms in about 0.15 s, parses; (x1+...+x6)^20 would
# build 53,130 terms in about 1.3 s (2-core Xeon, Python 3.11) and is refused
# before it multiplies.
TERM_CAP = 20_000

# One named group per token class; ``bad`` takes any other non-space character.
_TOKEN = re.compile(
    r"(?P<int>\d+)|(?P<var>x\d*)|(?P<imag>i)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<op>\*\*|[-+*/^])|(?P<bad>\S)"
)


class Token(namedtuple("Token", ("kind", "text", "pos"))):
    """``kind`` is "int", "var", "imag", "op", "lparen", "rparen" or "end";
    ``pos`` is the 0-based offset into the source string."""

    __slots__ = ()

    @property
    def value(self) -> int:
        return int(self.text) if self.kind == "int" else int(self.text[1:])


class ParseError(Exception):
    """Syntax or ring error, carrying a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return f"{self.message} at position {self.position + 1}"


def tokenize(source: str) -> list[Token]:
    """The tokens of ``source`` and an ``end`` token; ``**`` is stored as ``^``.  A
    digit run past ``sys.get_int_max_str_digits()`` is refused at its first digit."""
    tokens: list[Token] = []
    limit = sys.get_int_max_str_digits()
    for m in _TOKEN.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        if text == "x":
            raise ParseError("expected digits after 'x'", pos)
        if 0 < limit < len(text) - (kind == "var"):  # a digit run, after an 'x' or not
            first = pos + (kind == "var")
            raise ParseError(f"integer literal longer than {limit} digits", first)
        tokens.append(Token(kind, "^" if text == "**" else text, pos))
    tokens.append(Token("end", "", len(source)))
    return tokens


def parse_poly(source: str, nvars: int, ring: Ring) -> SparsePoly:
    """Parse an expression into a SparsePoly, raising ParseError with position.

    One loop reads the tokens.  An open parenthesis saves the enclosing
    partial sum, its pending sign, the partial product and the pending
    negation on ``stack``; its ``)`` restores them and takes the sum it
    closes as the next factor, so nesting costs no Python stack."""
    tokens = tokenize(source)
    stack: list[tuple] = []
    total, sign, product, negate = None, "+", None, False
    i = 0
    while True:
        # an operand: minus signs, then '(' or an atom
        tok = tokens[i]
        i += 1
        if tok.kind == "op" and tok.text == "-":
            negate = not negate
            continue
        if tok.kind == "lparen":
            stack.append((total, sign, product, negate))
            total, sign, product, negate = None, "+", None, False
            continue
        factor = _atom(tok, nvars, ring)
        while True:
            # after an operand: its exponents, divisors, then what follows
            factor, i = _powers(factor, tokens, i)
            factor = -factor if negate else factor
            if product is None:
                product = factor
            else:
                _check_terms(_product_bound(product, factor), "product")
                product = product * factor
            negate = False
            product, i = _divisors(product, tokens, i, ring)
            tok = tokens[i]
            i += 1
            if tok.kind == "op" and tok.text == "*":
                break
            if total is None:
                total = product
            else:
                total = total + product if sign == "+" else total - product
            if tok.kind == "op" and tok.text in "+-":
                sign, product = tok.text, None
                break
            if tok.kind == "rparen" and stack:
                factor = total
                total, sign, product, negate = stack.pop()
                continue
            if stack:
                raise ParseError("expected ')'", tok.pos)
            if tok.kind == "end":
                return total
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def _atom(tok: Token, nvars: int, ring: Ring) -> SparsePoly:
    if tok.kind == "int":
        return SparsePoly.constant(ring, nvars, int(tok.text))
    if tok.kind == "imag":
        if ring.imaginary_unit is None:
            raise ParseError(f"'i' is only available over Z[i], not {ring.label}", tok.pos)
        return SparsePoly.constant(ring, nvars, ring.imaginary_unit)
    if tok.kind == "var":
        index = tok.value
        if not 1 <= index <= nvars:
            raise ParseError(f"unknown variable x{index} (arity is {nvars})", tok.pos)
        return SparsePoly.variable(ring, nvars, index)
    raise ParseError("expected a number, variable, or parenthesized expression", tok.pos)


def _powers(base: SparsePoly, tokens: list[Token], i: int) -> tuple[SparsePoly, int]:
    """``base`` raised to the exponent tower at ``tokens[i]``, and the index
    after it.  The whole tower is read before any exponent is checked
    against the cap."""
    literals = []
    while tokens[i].kind == "op" and tokens[i].text == "^":
        tok = tokens[i + 1]
        if tok.kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal", tok.pos)
        literals.append(tok)
        i += 2
    if literals:
        exponent = 1
        for tok in reversed(literals):  # right-associative
            exponent = _capped_power(tok, exponent)
        _check_terms(_power_bound(base, exponent), "power")
        base = base**exponent
    return base, i


def _divisors(
    product: SparsePoly, tokens: list[Token], i: int, ring: Ring
) -> tuple[SparsePoly, int]:
    """``product`` divided by each '/' literal at ``tokens[i]``, and the index
    after them."""
    while tokens[i].kind == "op" and tokens[i].text == "/":
        if not ring.is_field:
            raise ParseError(f"'/' is only available over Q, not {ring.label}", tokens[i].pos)
        lit = tokens[i + 1]
        if lit.kind != "int":
            raise ParseError("denominator must be an integer literal", lit.pos)
        if lit.value == 0:
            raise ParseError("division by zero", lit.pos)
        product = product * ring.exact_div(1, lit.value)
        i += 2
    return product, i


def _product_bound(f: SparsePoly, g: SparsePoly) -> int:
    """A bound on the term count of f*g: t1*t2, and once that passes TERM_CAP
    the smaller of it and the ``_monomial_count`` of f's and g's terms with L
    and D the sums of the factors' lowest and highest total degrees."""
    bound = len(f.coeffs) * len(g.coeffs)
    if bound <= TERM_CAP:
        return bound
    low = min(map(sum, f.terms)) + min(map(sum, g.terms))
    return min(bound, _monomial_count([*f.terms, *g.terms], low, f.degree() + g.degree()))


def _power_bound(base: SparsePoly, k: int) -> int:
    """A bound on the term count of base^k: C(t+k-1, k), the multisets of k
    of base's t terms, and once that passes TERM_CAP the smaller of it and
    the ``_monomial_count`` of base's terms with L and D k times base's
    lowest and highest total degrees."""
    bound = comb(max(len(base.coeffs), 1) + k - 1, k)
    if bound <= TERM_CAP:
        return bound
    low = k * min(map(sum, base.terms))
    return min(bound, _monomial_count(list(base.terms), low, k * base.degree()))


def _monomial_count(terms: list, low: int, high: int) -> int:
    """C(v+D, v) - C(v+L-1, v), with D = ``high`` and L = ``low``: the number of
    monomials in the v variables ``terms`` use whose total degree lies
    between L and D."""
    v = sum(map(any, zip(*terms)))
    return comb(v + high, v) - comb(v + low - 1, v)


def _check_terms(bound: int, what: str) -> None:
    """Raise BudgetError, before a product or power is built, when the bound
    on its term count exceeds TERM_CAP."""
    if bound > TERM_CAP:
        raise BudgetError(
            f"a {what} may expand to {bound} terms, over the parser's cap of "
            f"{TERM_CAP} (required {bound})",
            bound,
        )


def _capped_power(tok: Token, e: int) -> int:
    """``tok``'s literal raised to ``e``, or a ParseError at ``tok`` when that
    exceeds EXPONENT_CAP.  The message shows the power, or ``literal^e`` when
    the power has more digits than ``sys.get_int_max_str_digits()`` allows."""
    value = tok.value**e  # e <= EXPONENT_CAP: the capped power on its right
    if value <= EXPONENT_CAP:
        return value
    limit = sys.get_int_max_str_digits()
    shown = f"{tok.text}^{e}" if limit and value >= 10**limit else value
    raise ParseError(f"exponent {shown} exceeds the cap {EXPONENT_CAP}", tok.pos)
