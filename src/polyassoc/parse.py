"""Expression parser turning user input into sparse polynomials.

Grammar (whitespace-insensitive, no implicit multiplication):

    expr     :=  term (('+' | '-') term)*
    term     :=  unary (('*' | '/') unary)*      '/' only over Q, literal RHS
    unary    :=  '-'* atom (('^' | '**') INT)*   right-associative literal tower
    atom     :=  INT | 'i' | 'x'<digits> | '(' expr ')'

``i`` is accepted only over Z[i]; ``/`` only over Q and only with an integer
literal denominator.  Exponents are capped at ``EXPONENT_CAP`` to bound memory,
and parentheses nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .poly import SparsePoly
from .rings import GaussianInt, Ring

EXPONENT_CAP = 64
# Each open parenthesis holds four parser frames (expr, term, unary, atom);
# this many stay well inside Python's default recursion limit of 1000.
MAX_NESTING = 200


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "var" | "imag" | "op" | "lparen" | "rparen" | "end"
    text: str
    pos: int  # 0-based offset into the source string

    @property
    def value(self) -> int:
        return int(self.text) if self.kind == "int" else int(self.text[1:])


class ParseError(Exception):
    """Syntax or ring error, carrying a 0-based position and the expected set."""

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.message = message
        self.position = position
        self.expected = expected

    def __str__(self) -> str:
        return f"{self.message} at position {self.position + 1}"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = _digit_run_end(source, i)
            tokens.append(Token("int", source[i:j], i))
            i = j
            continue
        if ch == "x":
            j = _digit_run_end(source, i + 1)
            if j == i + 1:
                raise ParseError("expected digits after 'x'", i, ("variable index",))
            tokens.append(Token("var", source[i:j], i))
            i = j
            continue
        if ch == "i":
            tokens.append(Token("imag", "i", i))
            i += 1
            continue
        if ch == "*":
            if i + 1 < length and source[i + 1] == "*":
                tokens.append(Token("op", "^", i))
                i += 2
            else:
                tokens.append(Token("op", "*", i))
                i += 1
            continue
        if ch in "+-/^()":
            kind = "lparen" if ch == "(" else "rparen" if ch == ")" else "op"
            tokens.append(Token(kind, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, ())
    tokens.append(Token("end", "", length))
    return tokens


def _digit_run_end(source: str, start: int) -> int:
    """The end of the decimal digit run at ``start``.  A run longer than the
    interpreter's int conversion limit (0: none) is refused at its first digit."""
    j = start
    while j < len(source) and source[j].isdecimal():
        j += 1
    limit = sys.get_int_max_str_digits()
    if limit and j - start > limit:
        raise ParseError(f"integer literal longer than {limit} digits", start, ())
    return j


class _Parser:
    def __init__(self, source: str, nvars: int, ring: Ring):
        self.tokens = tokenize(source)
        self.index = 0
        self.depth = 0  # parentheses open around the current position
        self.nvars = nvars
        self.ring = ring

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            self.index += 1
            return True
        return False

    def parse(self) -> SparsePoly:
        poly = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos, ("operator", "end of input"))
        return poly

    def expr(self) -> SparsePoly:
        poly = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                poly = poly + rhs if tok.text == "+" else poly - rhs
            else:
                return poly

    def term(self) -> SparsePoly:
        poly = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                poly = poly * self.unary()
            elif tok.kind == "op" and tok.text == "/":
                if self.ring is not Ring.Q:
                    raise ParseError(
                        f"'/' is only available over Q, not {self.ring.label}", tok.pos, ()
                    )
                self.advance()
                lit = self.peek()
                if lit.kind != "int":
                    raise ParseError(
                        "denominator must be an integer literal", lit.pos, ("integer",)
                    )
                self.advance()
                if lit.value == 0:
                    raise ParseError("division by zero", lit.pos, ())
                poly = poly * Fraction(1, lit.value)
            else:
                return poly

    def unary(self) -> SparsePoly:
        """Minus signs and exponent towers are read in loops, so a long run
        of either costs no stack depth."""
        negate = False
        while self.expect_op("-"):
            negate = not negate
        base = self.atom()
        literals = []
        while self.expect_op("^"):
            tok = self.advance()
            if tok.kind != "int":
                raise ParseError(
                    "exponent must be a nonnegative integer literal", tok.pos, ("integer",)
                )
            literals.append(tok)
        if literals:
            exponent = 1
            for tok in reversed(literals):  # right-associative
                exponent = _capped_power(tok, exponent)
            base = base**exponent
        return -base if negate else base

    def atom(self) -> SparsePoly:
        tok = self.advance()
        if tok.kind == "int":
            return SparsePoly.constant(self.ring, self.nvars, int(tok.text))
        if tok.kind == "imag":
            if self.ring is not Ring.ZI:
                raise ParseError(
                    f"'i' is only available over Z[i], not {self.ring.label}", tok.pos, ()
                )
            return SparsePoly.constant(self.ring, self.nvars, GaussianInt(0, 1))
        if tok.kind == "var":
            index = tok.value
            if not 1 <= index <= self.nvars:
                raise ParseError(
                    f"unknown variable x{index} (arity is {self.nvars})", tok.pos, ()
                )
            return SparsePoly.variable(self.ring, self.nvars, index)
        if tok.kind == "lparen":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos, ())
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos, (")",))
            return inner
        raise ParseError(
            "expected a number, variable, or parenthesized expression",
            tok.pos,
            ("integer", "variable", "("),
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
    raise ParseError(f"exponent {shown} exceeds the cap {EXPONENT_CAP}", tok.pos, ())


def parse_poly(source: str, nvars: int, ring: Ring) -> SparsePoly:
    """Parse an expression into a SparsePoly, raising ParseError with position."""
    return _Parser(source, nvars, ring).parse()
