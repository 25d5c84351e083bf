"""Exact arithmetic for the supported coefficient rings.

Three infinite integral domains are available: the integers, the rationals,
and the Gaussian integers.  Elements are plain Python values -- ``int`` for
Z, ``fractions.Fraction`` for Q, and :class:`GaussianInt` for Z[i] -- so all
arithmetic is exact and arbitrary precision.  :class:`Frac` holds a reduced
numerator/denominator pair over any of the three rings and is used wherever
a quantity may live in the fraction field rather than the ring itself.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction


class GaussianInt:
    """Gaussian integer ``re + im*i`` with arbitrary-precision components."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = int(re)
        self.im = int(im)

    @classmethod
    def _trusted(cls, re: int, im: int) -> GaussianInt:
        """Wrap components already of type ``int``, skipping the ``int()``
        calls of ``__init__``; arithmetic results are built this way."""
        g = cls.__new__(cls)
        g.re = re
        g.im = im
        return g

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"

    def __str__(self) -> str:
        return gaussian_str(self)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # agree with int hashing on real values, like Fraction does
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __reduce__(self):
        return (GaussianInt, (self.re, self.im))

    @property
    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def conjugate(self) -> GaussianInt:
        return GaussianInt._trusted(self.re, -self.im)

    def __neg__(self) -> GaussianInt:
        return GaussianInt._trusted(-self.re, -self.im)

    def __add__(self, other):
        if type(other) is not GaussianInt:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return GaussianInt._trusted(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianInt:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return GaussianInt._trusted(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianInt:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return GaussianInt._trusted(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> GaussianInt:
        return _pow(self, k, GaussianInt(1))

    def __divmod__(self, other):
        # Euclidean division by rounding the exact quotient componentwise;
        # the remainder satisfies norm(r) <= norm(other) / 2.
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        n = other.norm
        if n == 0:
            raise ZeroDivisionError("division by zero")
        t = self * other.conjugate()
        q = GaussianInt(_round_div(t.re, n), _round_div(t.im, n))
        return q, self - q * other

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]


def _as_gauss(x) -> GaussianInt | None:
    """A foreign operand as a GaussianInt (bools become ints), or None.

    The operators test ``type(other) is GaussianInt`` before calling this,
    so the common case costs no call."""
    if isinstance(x, GaussianInt):
        return x
    if isinstance(x, int):
        return GaussianInt._trusted(int(x), 0)
    return None


def _pow(base, k: int, one):
    """base**k by square-and-multiply from ``one``, squaring no further than
    the top bit of k."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    result = one
    while True:
        if k & 1:
            result = result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b for b > 0 (ties rounded up)."""
    return (2 * a + b) // (2 * b)


def gaussian_gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """Greatest common divisor in Z[i], normalized to the canonical associate."""
    while b:
        a, b = b, a % b
    return canonical_associate(a)


def canonical_unit(g: GaussianInt) -> GaussianInt:
    """The unit u such that g*u lies in the half-open quadrant re > 0, im >= 0."""
    if not g:
        raise ValueError("zero has no canonical unit")
    for u in _UNITS_ZI:
        c = g * u
        if c.re > 0 and c.im >= 0:
            return u
    raise AssertionError("unreachable: some rotation lands in the canonical quadrant")


def canonical_associate(g: GaussianInt) -> GaussianInt:
    return g * canonical_unit(g) if g else GaussianInt(0)


def gaussian_str(g: GaussianInt) -> str:
    """Display form ``a+bi`` with explicit signs (``3``, ``i``, ``2-i``, ``1+2i``)."""
    if g.im == 0:
        return str(g.re)
    if g.im == 1:
        imag = "i"
    elif g.im == -1:
        imag = "-i"
    else:
        imag = f"{g.im}i"
    if g.re == 0:
        return imag
    sign = "+" if g.im > 0 else "-"
    mag = "i" if abs(g.im) == 1 else f"{abs(g.im)}i"
    return f"{g.re}{sign}{mag}"


_UNITS_ZI = (GaussianInt(1), GaussianInt(0, 1), GaussianInt(-1), GaussianInt(0, -1))


class Ring(Enum):
    """The available base rings; values double as the CLI ring flags."""

    Z = "z"
    Q = "q"
    ZI = "zi"

    def __init__(self, value):
        # element type, zero and one, made once per member
        self._type = {"z": int, "q": Fraction, "zi": GaussianInt}[value]
        self._zero = self._type(0)
        self._one = self._type(1)

    @property
    def label(self) -> str:
        return {"z": "Z", "q": "Q", "zi": "Z[i]"}[self.value]

    @property
    def is_field(self) -> bool:
        return self is Ring.Q

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def coerce(self, x):
        """Normalize x into this ring's element type, rejecting foreign values.

        A value already of the element type is returned as it is.
        """
        if type(x) is self._type:
            return x
        if self is Ring.Z:
            if isinstance(x, int):
                return int(x)  # flattens bool
            if isinstance(x, Fraction) and x.denominator == 1:
                return x.numerator
            if isinstance(x, GaussianInt) and x.im == 0:
                return x.re
            raise TypeError(f"{x!r} is not an element of Z")
        if self is Ring.Q:
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise TypeError(f"{x!r} is not an element of Q")
        if isinstance(x, GaussianInt):
            return x
        if isinstance(x, int):
            return GaussianInt(x)
        raise TypeError(f"{x!r} is not an element of Z[i]")

    def roots_of_unity(self, m: int) -> tuple:
        """All ring elements w with w**m == 1; in Z, Q and Z[i] every root of
        unity is among 1, i, -1, -i."""
        if m < 1:
            raise ValueError("exponent must be positive")
        candidates = _UNITS_ZI if self is Ring.ZI else (self.one, -self.one)
        return tuple(u for u in candidates if u**m == self.one)

    def exact_div(self, a, b):
        """The q with b*q == a when q exists in the ring, else None."""
        a = self.coerce(a)
        b = self.coerce(b)
        if not b:
            raise ZeroDivisionError("division by zero")
        if self is Ring.Z:
            q, r = divmod(a, b)
            return q if r == 0 else None
        if self is Ring.Q:
            return a / b
        n = b.norm
        t = a * b.conjugate()
        if t.re % n or t.im % n:
            return None
        return GaussianInt(t.re // n, t.im // n)

    def nth_roots(self, x, k: int) -> tuple:
        """All ring elements r with r**k == x, positive representative first."""
        if k < 1:
            raise ValueError("root index must be positive")
        x = self.coerce(x)
        if self is Ring.Z:
            return _int_nth_roots(x, k)
        if self is Ring.Q:
            num = _int_nth_roots(x.numerator, k)
            den = _int_nth_roots(x.denominator, k)
            if not num or not den:
                return ()
            base = Fraction(num[0], den[0])
            if k % 2 == 0 and base != 0:
                return (base, -base)
            return (base,)
        raise NotImplementedError("n-th roots over Z[i] are not needed")

    def element_str(self, x) -> str:
        """Exact display rendering: plain for Z, num/den for Q, a+bi for Z[i]."""
        x = self.coerce(x)
        if self is Ring.ZI:
            return gaussian_str(x)
        return str(x)


def integer_nth_root(x: int, k: int):
    """Exact integer k-th root of x (sign-aware), or None."""
    if k < 1:
        raise ValueError("root index must be positive")
    if x < 0:
        if k % 2 == 0:
            return None
        r = integer_nth_root(-x, k)
        return None if r is None else -r
    if x in (0, 1):
        return x
    lo, hi = 1, 1
    while hi**k < x:
        hi <<= 1
    while lo <= hi:
        mid = (lo + hi) // 2
        v = mid**k
        if v == x:
            return mid
        if v < x:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def _int_nth_roots(x: int, k: int) -> tuple:
    r = integer_nth_root(x, k)
    if r is None:
        return ()
    if k % 2 == 0 and r != 0:
        return (r, -r)
    return (r,)


class Frac:
    """Reduced fraction of ring elements with a canonical representative.

    Over Z the denominator is positive; over Q it is 1 (a field is its own
    fraction field); over Z[i] numerator and denominator are divided by their
    gcd and the denominator is unit-normalized into re > 0, im >= 0.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: Ring, num, den=None):
        den = ring.one if den is None else ring.coerce(den)
        num = ring.coerce(num)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if ring is Ring.Q:
            num, den = num / den, Fraction(1)
        elif ring is Ring.Z:
            f = Fraction(num, den)
            num, den = f.numerator, f.denominator
        else:
            g = gaussian_gcd(num, den) if num else canonical_associate(den)
            num = ring.exact_div(num, g)
            den = ring.exact_div(den, g)
            u = canonical_unit(den)
            num, den = num * u, den * u
        self.ring = ring
        self.num = num
        self.den = den

    def __repr__(self) -> str:
        return f"Frac({self.ring.name}, {self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == self.ring.one:
            return self.ring.element_str(self.num)
        return f"{_frac_part(self.ring, self.num)}/{_frac_part(self.ring, self.den)}"

    def __reduce__(self):
        return (Frac, (self.ring, self.num, self.den))

    def _coerced(self, other) -> Frac | None:
        if isinstance(other, Frac):
            return other if other.ring is self.ring else None
        try:
            return Frac(self.ring, other)
        except TypeError:
            return None

    def __eq__(self, other) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.ring, self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __neg__(self) -> Frac:
        return Frac(self.ring, -self.num, self.den)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Frac(self.ring, self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Frac(self.ring, self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return Frac(self.ring, self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Frac:
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return Frac(self.ring, self.num**k, self.den**k)

    def in_base_ring(self):
        """The ring element equal to this fraction, or None if it lies outside R."""
        return self.num if self.den == self.ring.one else None


def _frac_part(ring: Ring, x) -> str:
    s = ring.element_str(x)
    return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s
