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
The source is read in one pass into one coefficient table, packed as
``SparsePoly.coeffs`` is; over Q the table holds int numerators over one
denominator, made into ``Fraction``s once at the end (``Ring.unscaled``).
Parentheses nest to any depth: the parser keeps them on a list, not on the
Python stack.
"""

from __future__ import annotations

import re
import sys
from math import lcm

from .errors import BudgetError
from .poly import SparsePoly, _merge, _mul_terms, _occupied, _repack
from .rings import Ring

EXPONENT_CAP = 64
# (x1+...+x6)^15 multiplies 232,554 term pairs into its 15,504 terms in about
# 0.1 s; (x1+...+x6)^16 reaches 325,578 pairs at its last product and is
# refused there, also after about 0.1 s (process time, 2-core Xeon, Python 3.11).
PAIR_BUDGET = 1 << 18

_TOKEN = re.compile(r"\d+|x\d*|\*\*|\S")
_BAD = re.compile(r"[^\d\sxi()*/^+-]|x(?!\d)")  # a character no token starts with, a bare 'x'


class ParseError(Exception):
    """Syntax or ring error, carrying a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        return f"{self.message} at position {self.position + 1}"


def parse_poly(source: str, nvars: int, ring: Ring) -> SparsePoly:
    """Parse an expression into a SparsePoly, raising ParseError with position.

    A malformed token is refused first, the first in the source: a digit run
    past ``sys.get_int_max_str_digits()`` at its first digit.  Then one loop
    reads the token texts.  An operand is a (table, top, den) triple: nonzero
    values keyed by monomials packed at the width that holds the exponent
    bound ``top``, over ``den``.  An open parenthesis saves the enclosing
    partial sum, its pending sign, the partial product and the pending
    negation on ``stack``; its ``)`` restores them and takes the sum it closes
    as the next factor, so nesting costs no Python stack.  ``times`` charges
    each product against ``PAIR_BUDGET`` before ``_product`` builds it."""
    tokens, limit = _TOKEN.findall(source), sys.get_int_max_str_digits()
    bad = _BAD.search(source)
    if 0 < limit < len(source) and (long := re.search(rf"\d{{{limit + 1}}}", source)):
        if not bad or long.start() < bad.start():
            raise ParseError(f"integer literal longer than {limit} digits", long.start())
    if bad:
        raise ParseError("expected digits after 'x'" if bad[0] == "x"
                         else f"unexpected character {bad[0]!r}", bad.start())
    tokens.append("")  # the end
    pairs = 0

    def times(f: tuple, g: tuple) -> tuple:
        nonlocal pairs
        pairs += len(f[0]) * len(g[0])
        if pairs > PAIR_BUDGET:
            raise BudgetError(f"parsing would multiply at least {pairs} term pairs, over the "
                              f"parser's budget of {PAIR_BUDGET}", pairs)
        return _product(f, g, nvars)

    stack: list[tuple] = []
    total, minus, product, negate = ({}, 0, 1), False, None, False
    i = 0
    while True:
        # an operand: minus signs, then '(' or an atom
        tok = tokens[i]
        i += 1
        if tok == "-":
            negate = not negate
            continue
        if tok == "(":
            stack.append((total, minus, product, negate))
            total, minus, product, negate = ({}, 0, 1), False, None, False
            continue
        if tok[:1] == "x":
            if not 1 <= (index := int(tok[1:])) <= nvars:
                raise _error(source, i - 1, f"unknown variable x{index} (arity is {nvars})")
            factor = ({1 << index - 1: ring.integral_one}, 1, 1)
        elif tok.isdecimal():
            factor = ({0: ring.integral_one * value} if (value := int(tok)) else {}, 0, 1)
        elif tok == "i":
            if ring.imaginary_unit is None:
                raise _error(source, i - 1, f"'i' is only available over Z[i], not {ring.label}")
            factor = ({0: ring.imaginary_unit}, 0, 1)
        else:
            raise _error(source, i - 1, "expected a number, variable, or parenthesized expression")
        while True:
            # after an operand: its exponents, divisors, then what follows
            if tokens[i] == "^" or tokens[i] == "**":
                factor, i = _powers(factor, tokens, i, times, source, ring.integral_one)
            product = factor if product is None else times(product, factor)
            while tokens[i] == "/":
                if not ring.is_field:
                    raise _error(source, i, f"'/' is only available over Q, not {ring.label}")
                if not tokens[i + 1].isdecimal():
                    raise _error(source, i + 1, "denominator must be an integer literal")
                if not int(tokens[i + 1]):
                    raise _error(source, i + 1, "division by zero")
                product = (product[0], product[1], product[2] * int(tokens[i + 1]))
                i += 2
            tok = tokens[i]
            i += 1
            if tok == "*":
                break
            total, product = _add(total, product, minus != negate), None
            if tok == "+" or tok == "-":
                minus, negate = tok == "-", False
                break
            if tok == ")" and stack:
                factor = total
                total, minus, product, negate = stack.pop()
                continue
            if stack:
                raise _error(source, i - 1, "expected ')'")
            if not tok:
                return SparsePoly._trusted(ring, nvars, ring.unscaled(total[2], total[0]), total[1])
            raise _error(source, i - 1, f"unexpected {'^' if tok == '**' else tok!r}")


def _error(source: str, index: int, message: str) -> ParseError:
    """A ParseError at the index-th token of ``source``, or at its end past the last."""
    starts = [m.start() for m in _TOKEN.finditer(source)] + [len(source)]
    return ParseError(message, starts[index])


def _at(table: dict, width: int, wider: int) -> dict:
    return table if width == wider else {_repack(k, width, wider): c for k, c in table.items()}


def _product(f: tuple, g: tuple, n: int) -> tuple:
    """The operand f*g, its bound the sum of the two when they share a
    variable, else the larger, and its width widened to hold that, as in
    ``SparsePoly.__mul__``: one ``_mul_terms`` call."""
    (a, ta, da), (b, tb, db) = f, g
    top = ta | tb
    if ta and tb:  # else the sum is the larger bound
        w = top.bit_length()
        a, b = _at(a, ta.bit_length(), w), _at(b, tb.bit_length(), w)
        top = ta + tb if _occupied(a, n, w) & _occupied(b, n, w) else max(ta, tb)
        if top >> w:
            a, b = _at(a, w, top.bit_length()), _at(b, w, top.bit_length())
    return _mul_terms(a, b), top, da * db


def _add(total: tuple, term: tuple, minus: bool) -> tuple:
    """The operand total + term, or total - term, merged into total's table
    at the wider width of the two, over their least common denominator."""
    (t, tt, den), (p, tp, pd) = total, term
    w = (tt | tp).bit_length()  # a constant's key is 0 at every width
    p = _at(p, tp.bit_length() or w, w)
    if not t:
        return {k: -c for k, c in p.items()} if minus else p, max(tt, tp), pd
    t = _at(t, tt.bit_length() or w, w)
    if den != pd:
        den, td = lcm(den, pd), den
        for k, c in t.items():
            t[k] = c * (den // td)
        p = {k: c * (den // pd) for k, c in p.items()}
    _merge(t, ((k, -c) for k, c in p.items()) if minus else p.items())
    return t, max(tt, tp), den


def _powers(base: tuple, tokens: list[str], i: int, times, source: str, one) -> tuple[tuple, int]:
    """``base`` raised to the exponent tower at ``tokens[i]``, and the index
    after it.  The whole tower is read before any exponent is checked
    against the cap (the message shows the power, or ``literal^e`` when it
    has more digits than ``sys.get_int_max_str_digits()`` allows); ``base^k``
    is then k-1 products by ``base``, each charged by ``times`` with the
    operands in hand, or the constant ``one`` for k = 0."""
    literals = []
    while tokens[i] == "^" or tokens[i] == "**":
        if not tokens[i + 1].isdecimal():
            raise _error(source, i + 1, "exponent must be a nonnegative integer literal")
        literals.append(i + 1)
        i += 2
    exponent = 1
    for j in reversed(literals):  # right-associative
        value = int(tokens[j]) ** exponent  # exponent <= EXPONENT_CAP: the power on its right
        if value > EXPONENT_CAP:
            limit = sys.get_int_max_str_digits()
            shown = f"{tokens[j]}^{exponent}" if limit and value >= 10**limit else value
            raise _error(source, j, f"exponent {shown} exceeds the cap {EXPONENT_CAP}")
        exponent = value
    power = base if exponent else ({0: one}, 0, 1)
    for _ in range(exponent - 1):
        power = times(power, base)
    return power, i
