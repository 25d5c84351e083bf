"""Exact arithmetic for the supported coefficient rings, and every decision
that differs between them.

Three infinite integral domains are available: the integers, the rationals,
and the Gaussian integers.  Elements are plain Python values -- ``int`` for
Z, ``fractions.Fraction`` for Q, and :class:`GaussianInt` for Z[i] -- so all
arithmetic is exact and arbitrary precision.  Each :class:`Ring` member
holds its ring's class, the one place where that ring's behaviour is
written; the other modules ask the ring and never test which ring they
hold.  :class:`Frac` is the normal form of a fraction-field value (a
reduced numerator/denominator pair over any of the three rings), kept for
parameters such as a shifted product's offset; no arithmetic but negation.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt, lcm
from operator import mul

from .errors import BudgetError


_new = object.__new__  # builds a GaussianInt without __init__, bound once


class GaussianInt:
    """Gaussian integer ``re + im*i`` with arbitrary-precision components."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0):
        self.re = int(re)
        self.im = int(im)

    @classmethod
    def _trusted(cls, re: int, im: int) -> GaussianInt:
        """Wrap components already of type ``int``, skipping the ``int()``
        calls of ``__init__``; the operators below build theirs the same way, inline."""
        g = _new(cls)
        g.re = re
        g.im = im
        return g

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"

    def __str__(self) -> str:
        """Display form ``a+bi`` with explicit signs (``3``, ``i``, ``2-i``, ``1+2i``)."""
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        imag = ("" if abs(im) == 1 else str(abs(im))) + "i"
        if re == 0:
            return imag if im > 0 else f"-{imag}"
        return f"{re}{'+' if im > 0 else '-'}{imag}"

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
        """re - im*i; the Gaussian division reference in tests/test_rings.py calls it."""
        g = _new(GaussianInt)
        g.re = self.re
        g.im = -self.im
        return g

    def __neg__(self) -> GaussianInt:
        g = _new(GaussianInt)
        g.re = -self.re
        g.im = -self.im
        return g

    def __add__(self, other):
        if type(other) is not GaussianInt:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        g = _new(GaussianInt)
        g.re = self.re + other.re
        g.im = self.im + other.im
        return g

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianInt:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        g = _new(GaussianInt)
        g.re = self.re - other.re
        g.im = self.im - other.im
        return g

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
        g = _new(GaussianInt)
        g.re = self.re * other.re - self.im * other.im
        g.im = self.re * other.im + self.im * other.re
        return g

    __rmul__ = __mul__

    def __pow__(self, k: int) -> GaussianInt:
        return _pow(self, k, _ONE)


_ONE = GaussianInt._trusted(1, 0)  # every power starts here; no operator writes its operands


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


def _elementary(xs: list, degree: int) -> list:
    """e_0 .. e_degree of the ints xs, one variable at a time by e_k <- e_k + x * e_(k-1),
    for the k <= j that can be nonzero after j variables: at most n*degree products."""
    e = [1] + [0] * degree
    for j, x in enumerate(xs, 1):
        for k in range(min(j, degree), 0, -1):
            e[k] += x * e[k - 1]
    return e


TRIAL_DIVISORS = 1 << 20  # the largest trial divisor that certifies a modulus


@cache
def _split_prime(c: int) -> tuple[int, int]:
    """The least prime P = 1 (mod 4) above 2c^2, certified by trial division,
    and r = a^((P-1)/4) (mod P) for the least a that makes r^2 = -1 (mod P),
    which a quadratic non-residue a does (Euler's criterion)."""
    p = max(2 * c * c + 1, 5)  # 1 is no prime
    p += (1 - p) % 4
    if isqrt(p) > TRIAL_DIVISORS:
        raise BudgetError(
            f"certifying a prime modulus above 2*{c}^2 needs trial divisors up to "
            f"{isqrt(p)}, past the limit {TRIAL_DIVISORS}", None,
        )
    while any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += 4
    a = 2
    while (r := pow(a, (p - 1) // 4, p)) * r % p != p - 1:
        a += 1
    return p, r


class _RingClass:
    """One ring's behaviour, held by its :class:`Ring` member and reached only
    through it.  The defaults fit a Euclidean ring (``divmod``) whose
    elements are their own single integer coordinate, as Z's are."""

    is_field, dim, imaginary_unit = False, 1, None  # dim: integer coordinates per element
    grammar_str = staticmethod(str)

    def coords(self, x) -> tuple:
        return (x,)

    def elements(self, coords: list) -> list:
        return coords

    def scaled(self, coeffs) -> tuple[int, list]:
        return 1, list(coeffs)

    def plan(self, coeffs, indices: list) -> tuple:
        return self.kernel, list(zip(self.natives(coeffs), indices))

    def symmetric_plan(self, sizes: list) -> tuple:
        return self.symmetric_kernel, self.natives(sizes)

    @staticmethod
    def products(values: list, factors: list) -> list:
        return [v * f for v in values for f in factors]

    @staticmethod
    def dot(values, factors):
        return sum(map(mul, values, factors))

    def element(self, value):
        return value

    def divide(self, a, b):
        q, r = self.divmod(a, b)
        return None if r else q

    def residue_map(self, c: int) -> tuple:
        """A prime P = 1 (mod 4) above 2c^2 and a ring homomorphism into Z/P,
        as a map to ints read mod P, that sends no nonzero element whose
        coordinates are at most c to 0.  Over Z each int is its own
        representative (|x| <= c < P)."""
        return _split_prime(c)[0], int

    def fraction(self, num, den) -> tuple:
        """num/den over the gcd of the two (Euclid's algorithm), times the unit
        that leaves the denominator's first coordinate positive and the others
        nonnegative: Z's denominator positive, Z[i]'s in re > 0, im >= 0."""
        g, r = den, num
        while r:
            g, r = r, self.divmod(g, r)[1]
        num, den = self.divide(num, g), self.divide(den, g)
        for u in self.units:
            first, *rest = self.coords(den * u)
            if first > 0 and min(rest, default=0) >= 0:
                return num * u, den * u
        raise AssertionError("unreachable: some unit lands in the canonical quadrant")


class _Integers(_RingClass):
    type, label, units = int, "Z", (1, -1)
    divmod = staticmethod(divmod)

    def coerce(self, x):
        if isinstance(x, int):
            return int(x)  # flattens bool
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        if isinstance(x, GaussianInt) and x.im == 0:
            return x.re
        return None

    def root(self, x, k: int):
        return integer_nth_root(x, k)

    def natives(self, point) -> list:
        return [v if type(v) is int else Ring.Z.coerce(v) for v in point]

    @staticmethod
    def kernel(terms: list, xs: list) -> int:
        total = 0
        for v, indices in terms:
            for j in indices:
                v *= xs[j]
            total += v
        return total

    @staticmethod
    def symmetric_kernel(sizes: list, xs: list) -> int:
        return sum(map(mul, sizes, _elementary(xs, len(sizes) - 1)))


class _Rationals(_RingClass):
    """Q: drawn and boxed elements stay ints, which Q takes as they are."""

    type, label, units, is_field = Fraction, "Q", (Fraction(1), Fraction(-1)), True
    residue_map = None  # no map of Q into Z/P is a homomorphism; enumerate refuses fields

    def coerce(self, x):
        return Fraction(x) if isinstance(x, (int, Fraction)) else None

    def divide(self, a, b):
        return a / b

    def fraction(self, num, den) -> tuple:
        return num / den, Fraction(1)  # a field is its own fraction field

    def root(self, x, k: int):
        num, den = integer_nth_root(x.numerator, k), integer_nth_root(x.denominator, k)
        return None if num is None or den is None else Fraction(num, den)

    def coords(self, x) -> tuple:
        return x.numerator, x.denominator

    def scaled(self, coeffs) -> tuple[int, list]:
        coeffs = list(coeffs)
        den = lcm(*(c.denominator for c in coeffs))
        return den, [c.numerator * (den // c.denominator) for c in coeffs]

    def natives(self, point) -> list:
        return [v if type(v) is Fraction or type(v) is int else Ring.Q.coerce(v) for v in point]

    def plan(self, coeffs, indices: list) -> tuple:
        # Every term is scaled up to the total degree, so that at a point
        # whose coordinates share the denominator V all terms share den * V^degree.
        den, nums = self.scaled(coeffs)
        degree = max(map(len, indices), default=0)
        return self.kernel, (den, degree, [(c, degree - len(f), f) for c, f in zip(nums, indices)])

    @staticmethod
    def kernel(plan: tuple, xs: list) -> Fraction:
        den, degree, terms = plan
        common = lcm(*(v.denominator for v in xs))
        nums = [v.numerator * (common // v.denominator) for v in xs]
        powers = [common**k for k in range(degree + 1)]
        total = 0
        for v, deficit, indices in terms:
            v *= powers[deficit]
            for j in indices:
                v *= nums[j]
            total += v
        return Fraction(total, den * powers[degree])

    def symmetric_plan(self, sizes: list) -> tuple:
        return self.symmetric_kernel, self.scaled(sizes)

    @staticmethod
    def symmetric_kernel(plan: tuple, xs: list) -> Fraction:
        # over the common denominator V, e_k of the numerators is V^k e_k(x)
        (den, sizes), common, total = plan, lcm(*(v.denominator for v in xs)), 0
        nums = [v.numerator * (common // v.denominator) for v in xs]
        for c, e in zip(sizes, _elementary(nums, len(sizes) - 1)):
            total = total * common + c * e  # sum of c_k V^k e_k V^(d - k), by Horner
        return Fraction(total, den * common ** (len(sizes) - 1))


class _GaussianIntegers(_RingClass):
    """Z[i]: an element's coordinates are its real and imaginary parts."""

    type, label, dim = GaussianInt, "Z[i]", 2
    units = (GaussianInt(1), GaussianInt(0, 1), GaussianInt(-1), GaussianInt(0, -1))
    imaginary_unit = units[1]

    def coerce(self, x):
        return _as_gauss(x)

    def divmod(self, a, b) -> tuple:
        # t = a * conj(b) over n = norm(b), rounded componentwise (ties up), so
        # norm(remainder) <= n / 2; in coordinates, building no intermediate element
        x, y, u, v, n = a.re, a.im, b.re, b.im, b.norm
        qx, qy = (2 * (x * u + y * v) + n) // (2 * n), (2 * (y * u - x * v) + n) // (2 * n)
        r = GaussianInt._trusted(x - qx * u + qy * v, y - qx * v - qy * u)
        return GaussianInt._trusted(qx, qy), r

    def root(self, x, k: int):
        raise NotImplementedError("n-th roots over Z[i] are not needed")

    def residue_map(self, c: int) -> tuple:
        # a + bi -> a + b*r: P splits in Z[i] (Fermat), so the kernel is a prime
        # of norm P, and a nonzero a + bi in it has a^2 + b^2 >= P > 2c^2
        p, r = _split_prime(c)
        return p, lambda x: (x.re + r * x.im) % p

    def coords(self, x) -> tuple:
        return x.re, x.im

    def elements(self, coords: list) -> list:
        return [GaussianInt._trusted(re, im) for re, im in zip(coords[::2], coords[1::2])]

    def grammar_str(self, x) -> str:
        text = str(x)
        if not x.im:
            return text
        if text[-2:-1].isdigit():
            text = text[:-1] + "*i"  # 2i -> 2*i
        return f"({text})" if x.re else text

    def natives(self, point) -> list:
        point = [v if type(v) in (GaussianInt, int) else Ring.ZI.coerce(v) for v in point]
        return [(v, 0) if type(v) is int else (v.re, v.im) for v in point]

    def element(self, value: tuple) -> GaussianInt:
        return GaussianInt._trusted(*value)

    @staticmethod
    def kernel(terms: list, xs: list) -> tuple[int, int]:
        re_total = im_total = 0
        for (re, im), indices in terms:
            for j in indices:
                x, y = xs[j]
                re, im = re * x - im * y, re * y + im * x
            re_total += re
            im_total += im
        return re_total, im_total

    @staticmethod
    def symmetric_kernel(sizes: list, xs: list) -> tuple[int, int]:
        degree = len(sizes) - 1
        re, im = [1] + [0] * degree, [0] * (degree + 1)
        for j, (x, y) in enumerate(xs, 1):  # as _elementary does, in coordinates
            for k in range(min(j, degree), 0, -1):
                a, b = re[k - 1], im[k - 1]
                re[k] += x * a - y * b
                im[k] += x * b + y * a
        return _GaussianIntegers.dot(sizes, zip(re, im))

    @staticmethod
    def products(values: list, factors: list) -> list:
        return [(a * c - b * d, a * d + b * c) for a, b in values for c, d in factors]

    @staticmethod
    def dot(values, factors) -> tuple[int, int]:
        re = im = 0
        for (a, b), (c, d) in zip(values, factors):
            re += a * c - b * d
            im += a * d + b * c
        return re, im


class Ring(Enum):
    """The available base rings; values double as the CLI ring flags.  Each
    member holds its ring's class and copies its constants: ``label``,
    ``is_field``, ``dim`` (integer coordinates per element) and
    ``imaginary_unit`` (i, or None where the ring has no i).  It binds the
    class's ``grammar_str`` (the form the grammar reads back), ``scaled`` (a
    common denominator, 1 outside Q, and each coefficient times it) and its
    evaluation in three steps: ``natives(point)``, the coordinates checked
    (TypeError) and converted, ints over Z, ``Fraction``s or ints over Q,
    ``(re, im)`` pairs over Z[i]; ``plan(coeffs, indices)``, the kernel from
    native coordinates to a native value and its data, each term's variable
    indices repeated by exponent, or ``symmetric_plan(sizes)``, the same for
    p = sum c_k e_k from c_0 .. c_d; and ``element(value)``, the ring element.
    On native values it also binds ``products`` (each value times each
    factor) and ``dot`` (the sum of pairwise products).  ``residue_map(c)``
    gives the census walk a prime P and the ring's map into Z/P, one-to-one
    on elements whose coordinates are at most c/2 (None over a field)."""

    Z = "z"
    Q = "q"
    ZI = "zi"

    def __init__(self, value):
        # the ring's class, its constants, its bound steps, and zero and one, made once
        ops = self._ops = {"z": _Integers, "q": _Rationals, "zi": _GaussianIntegers}[value]()
        self._type, self.label, self.is_field, self.dim = ops.type, ops.label, ops.is_field, ops.dim
        self.imaginary_unit = ops.imaginary_unit
        self.grammar_str, self.scaled = ops.grammar_str, ops.scaled
        self.natives, self.plan, self.element = ops.natives, ops.plan, ops.element
        self.symmetric_plan, self.products, self.dot = ops.symmetric_plan, ops.products, ops.dot
        self.residue_map = ops.residue_map
        self._zero, self._one = self._type(0), self._type(1)

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
        y = self._ops.coerce(x)
        if y is None:
            raise TypeError(f"{x!r} is not an element of {self.label}")
        return y

    def roots_of_unity(self, m: int) -> tuple:
        """All ring elements w with w**m == 1; in Z, Q and Z[i] every root of
        unity is a unit of Z[i]."""
        if m < 1:
            raise ValueError("exponent must be positive")
        return tuple(u for u in self._ops.units if u**m == self.one)

    def exact_div(self, a, b):
        """The q with b*q == a when q exists in the ring, else None."""
        a, b = self.coerce(a), self.coerce(b)
        if not b:
            raise ZeroDivisionError("division by zero")
        return a if b == self._one else self._ops.divide(a, b)

    def nth_roots(self, x, k: int) -> tuple:
        """All r with r**k == x, one root times each k-th root of unity, positive first."""
        if k < 1:
            raise ValueError("root index must be positive")
        r = self._ops.root(self.coerce(x), k)
        if r is None:
            return ()
        return tuple(r * u for u in self.roots_of_unity(k)) if r else (r,)

    def element_str(self, x) -> str:
        """Exact display rendering of a ring or fraction element: plain for Z,
        num/den for Q, a+bi for Z[i]."""
        return str(x if isinstance(x, Frac) else self.coerce(x))

    def coords(self, x) -> tuple:
        """Integer coordinates of x, by which elements sort: Z's x, Q's numerator
        and denominator, Z[i]'s re and im; a fraction's numerator's and denominator's."""
        if isinstance(x, Frac):
            return self._ops.coords(x.num), self._ops.coords(x.den)
        return self._ops.coords(x)

    def draw(self, randints, half_width: int, count: int) -> list:
        """``count`` elements whose ``dim`` coordinates each are read, in
        order, from ``randints(-half_width, half_width, dim * count)``."""
        return self._ops.elements(randints(-half_width, half_width, self.dim * count))

    def box(self, bound: int) -> list:
        """The ``box_size(bound)`` elements with every coordinate in
        [-bound, bound], in lexicographic order of their coordinates."""
        side = range(-bound, bound + 1)
        return self._ops.elements([c for cs in product(side, repeat=self.dim) for c in cs])

    def box_size(self, bound: int) -> int:
        return (2 * bound + 1) ** self.dim

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


class Frac:
    """Reduced fraction of ring elements in its ring's ``fraction`` normal form.

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
        self.ring = ring
        self.num, self.den = ring._ops.fraction(num, den)

    def __repr__(self) -> str:
        return f"Frac({self.ring.name}, {self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.den == self.ring.one:
            return self.ring.element_str(self.num)
        return f"{_frac_part(self.ring, self.num)}/{_frac_part(self.ring, self.den)}"

    def __reduce__(self):
        return (Frac, (self.ring, self.num, self.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frac):
            try:
                other = Frac(self.ring, other)
            except TypeError:
                return NotImplemented
        elif other.ring is not self.ring:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # agree with the ring element's hash on values in the ring, as __eq__ does
        return hash(self.num) if self.den == self.ring.one else hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __neg__(self) -> Frac:
        return Frac(self.ring, -self.num, self.den)


def _frac_part(ring: Ring, x) -> str:
    s = ring.element_str(x)
    return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s
