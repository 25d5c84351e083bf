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
``EXPONENT_CAP``, and the work is budgeted by the term pairs it multiplies:
each product of t1 and t2 terms is charged t1*t2 just before it is built,
``base^k`` is built as k-1 such products by ``base``, and once an input's
running total passes ``PAIR_BUDGET`` parsing raises ``BudgetError``.
Parentheses nest to any depth: the parser keeps them on a list, not on the
Python stack.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple

from .errors import BudgetError
from .poly import SparsePoly
from .rings import Ring

EXPONENT_CAP = 64
# (x1+...+x6)^15 multiplies 232,554 term pairs into its 15,504 terms in about
# 0.1 s; (x1+...+x6)^16 reaches 325,578 pairs at its last product and is
# refused there, also after about 0.1 s (process time, 2-core Xeon, Python 3.11).
PAIR_BUDGET = 1 << 18

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
    closes as the next factor, so nesting costs no Python stack.  ``times``
    charges each product against ``PAIR_BUDGET`` before it builds it."""
    tokens = tokenize(source)
    pairs = 0

    def times(f: SparsePoly, g: SparsePoly) -> SparsePoly:
        nonlocal pairs
        pairs += len(f.coeffs) * len(g.coeffs)
        if pairs > PAIR_BUDGET:
            raise BudgetError(
                f"parsing would multiply at least {pairs} term pairs, over the parser's "
                f"budget of {PAIR_BUDGET}",
                pairs,
            )
        return f * g

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
            factor, i = _powers(factor, tokens, i, times)
            factor = -factor if negate else factor
            if product is None:
                product = factor
            else:
                product = times(product, factor)
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


def _powers(base: SparsePoly, tokens: list[Token], i: int, times) -> tuple[SparsePoly, int]:
    """``base`` raised to the exponent tower at ``tokens[i]``, and the index
    after it.  The whole tower is read before any exponent is checked
    against the cap; ``base^k`` is then k-1 products by ``base``, each charged
    by ``times`` with the operands in hand, or the constant 1 for k = 0."""
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
        power = base if exponent else SparsePoly.constant(base.ring, base.nvars, 1)
        for _ in range(exponent - 1):
            power = times(power, base)
        base = power
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
