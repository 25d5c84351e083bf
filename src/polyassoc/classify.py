"""Classification of associative polynomial n-ary operations.

Every associative polynomial operation over the supported rings falls into
exactly one of six families:

    (i)    constant                     p = c
    (ii)   left projection              p = x1
    (iii)  right projection             p = xn
    (iv)   translated sum               p = c + x1 + ... + xn
    (v)    twisted sum                  p = sum w^(k-1) xk, w != 1, w^(n-1) = 1, n >= 3
    (vi)   shifted product              p = -b + a * prod (xk + b)

with the shifted-product parameters living in the fraction field subject to
membership conditions (a*b^k in R for k < n, a*b^n - b in R).  Each family
defines its coefficient table once, as ``table`` (linear families) or
``ShiftedProduct.ladder``; deciding the family, extracting exact parameters
and rebuilding the polynomial all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Sequence, Union

from .assoc import CompositionWitness, is_associative
from .poly import MultilinearPoly, SparsePoly, from_size_coeffs
from .rings import Frac, GaussianInt, Ring


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; reported as exit code 3 by the CLI."""


@dataclass(frozen=True)
class Constant:
    value: object = field(metadata={"param": "c"})
    clause: ClassVar[str] = "i"
    type_tag: ClassVar[str] = "constant"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        """The constant term and the weights of x1 .. xn."""
        return ring.coerce(self.value), [ring.zero] * n


@dataclass(frozen=True)
class LeftProjection:
    clause: ClassVar[str] = "ii"
    type_tag: ClassVar[str] = "left-projection"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.zero, [ring.one] + [ring.zero] * (n - 1)


@dataclass(frozen=True)
class RightProjection:
    clause: ClassVar[str] = "iii"
    type_tag: ClassVar[str] = "right-projection"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.zero, [ring.zero] * (n - 1) + [ring.one]


@dataclass(frozen=True)
class TranslatedSum:
    shift: object = field(metadata={"param": "c"})  # the additive constant
    clause: ClassVar[str] = "iv"
    type_tag: ClassVar[str] = "translated-sum"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.coerce(self.shift), [ring.one] * n


@dataclass(frozen=True)
class TwistedSum:
    omega: object = field(metadata={"param": "omega"})  # slot k weighs omega^(k-1)
    clause: ClassVar[str] = "v"
    type_tag: ClassVar[str] = "twisted-sum"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        """Raises ValueError unless n >= 3, omega != 1 and omega^(n-1) = 1."""
        if n < 3:
            raise ValueError("twisted sums require arity at least 3")
        omega = ring.coerce(self.omega)
        if omega == ring.one:
            raise ValueError("twisted sums require a weight different from 1")
        if omega ** (n - 1) != ring.one:
            raise ValueError(
                f"weight {ring.element_str(omega)} fails w^{n - 1} = 1 at arity {n}"
            )
        return ring.zero, [omega**k for k in range(n)]


@dataclass(frozen=True)
class ShiftedProduct:
    a: object = field(metadata={"param": "a"})  # ring element, nonzero
    b: Frac = field(metadata={"param": "b"})  # fraction-field offset
    clause: ClassVar[str] = "vi"
    type_tag: ClassVar[str] = "shifted-product"

    def ladder(self, ring: Ring, n: int) -> list[Frac]:
        """The size coefficients c_0 .. c_n in the fraction field:
        c_k = a*b^(n-k) for k >= 1 and c_0 = a*b^n - b."""
        a = ring.coerce(self.a)
        if not a:
            raise ValueError("shifted products require a nonzero scale")
        b = self.b if isinstance(self.b, Frac) else Frac(ring, self.b)
        if b.ring is not ring:
            raise ValueError("offset belongs to a different ring")
        ladder = [b ** (n - k) * a for k in range(n + 1)]
        ladder[0] = ladder[0] - b
        return ladder


@dataclass(frozen=True)
class LadderViolation:
    """Why a degree->1 coefficient table is not a shifted product.

    ``kind`` is one of "not-symmetric", "zero-top-coefficient", "ladder",
    "constant-term"; ``index`` is the violating subset size where relevant.
    """

    kind: str
    index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class NotAssociative:
    witness: Union[CompositionWitness, LadderViolation, None]
    clause: ClassVar[str] = ""
    type_tag: ClassVar[str] = "not-associative"


LinearFamily = Union[Constant, LeftProjection, RightProjection, TranslatedSum, TwistedSum]
Classification = Union[LinearFamily, ShiftedProduct, NotAssociative]


def classify(p: SparsePoly) -> Classification:
    """Decide associativity and name the family with exact parameters."""
    if p.nvars < 2:
        raise ValueError("arity must be at least 2")
    verdict = is_associative(p)
    if not verdict.associative:
        return NotAssociative(verdict.witness)
    ml = p.to_multilinear()
    if ml is None:
        raise InternalInvariantError("associative operation with a squared variable")
    return classify_associative(ml)


def classify_associative(p: MultilinearPoly) -> Classification:
    """Classify a multilinear operation already known to be associative.

    A linear one belongs to the family whose table, with parameters read
    off the input, equals the input's table.
    """
    ring, n = p.ring, p.n
    if p.degree() <= 1:
        c0, linear = p.coeff(0), [p.coeff(1 << k) for k in range(n)]
        matches, twisted = [], TwistedSum(linear[1])
        for cls in (Constant(c0), LeftProjection(), RightProjection(), TranslatedSum(c0), twisted):
            try:
                if cls.table(ring, n) == (c0, linear):
                    matches.append(cls)
            except ValueError:  # parameters outside the family at this arity
                pass
        if len(matches) != 1:
            raise InternalInvariantError(
                f"linear associative operation matched {len(matches)} families: {p.render()}"
            )
        return matches[0]
    extracted = extract_type6(p)
    if isinstance(extracted, NotAssociative):
        raise InternalInvariantError(
            f"associative operation of degree > 1 is not a shifted product: {p.render()}"
        )
    return extracted


def extract_type6(p: MultilinearPoly) -> ShiftedProduct | NotAssociative:
    """Extract shifted-product parameters from a degree > 1 coefficient table.

    Requires a symmetric table with nonzero top coefficient; sets a to the
    top coefficient and b to the ratio of the next size down, then compares
    sizes 1 .. n-1 and then the constant term with ``ShiftedProduct.ladder``,
    exactly in the fraction field.  The first violated condition is reported.
    """
    ring, n = p.ring, p.n
    if p.degree() <= 1:
        raise ValueError("expected an operation of degree greater than 1")
    size_coeffs = p.size_coeffs()
    if size_coeffs is None:
        return NotAssociative(
            LadderViolation("not-symmetric", None, "coefficients vary within a subset size")
        )
    a = size_coeffs[n]
    if not a:
        return NotAssociative(
            LadderViolation(
                "zero-top-coefficient", n, "degree > 1 requires a nonzero full-product term"
            )
        )
    b = Frac(ring, size_coeffs[n - 1], a)
    ladder = ShiftedProduct(a, b).ladder(ring, n)
    for k in range(1, n):
        if ladder[k] != size_coeffs[k]:
            return NotAssociative(
                LadderViolation("ladder", k, f"size-{k} coefficient breaks c_k = a*b^(n-k)")
            )
    if ladder[0] != size_coeffs[0]:
        return NotAssociative(
            LadderViolation("constant-term", 0, "constant term breaks c_0 = a*b^n - b")
        )
    return ShiftedProduct(a, b)


def verify_condpol(size_coeffs: Sequence) -> bool:
    """Check the bilinear compatibility equations of a symmetric coefficient table.

    ``size_coeffs`` lists c_0 .. c_n for p = sum c_k * P_k (P_k elementary
    symmetric).  Returns True iff c_(j+1)*c_k + c_j*[k == 0] == c_j*c_(k+1)
    for every j in 1..n-1 and k in 0..n-1.
    """
    n = len(size_coeffs) - 1
    if n < 1:
        raise ValueError("expected at least c_0 and c_1")
    for j in range(1, n):
        for k in range(n):
            lhs = size_coeffs[j + 1] * size_coeffs[k]
            if k == 0:
                lhs = lhs + size_coeffs[j]
            if lhs != size_coeffs[j] * size_coeffs[k + 1]:
                return False
    return True


def reconstruct(cls: Classification, n: int, ring: Ring) -> SparsePoly:
    """The unique polynomial of the classified family; inverse of classify."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if isinstance(cls, NotAssociative):
        raise ValueError("cannot reconstruct a non-associative classification")
    if isinstance(cls, ShiftedProduct):
        size_coeffs = [value.in_base_ring() for value in cls.ladder(ring, n)]
        if None in size_coeffs:
            raise ValueError(
                f"parameters a={ring.element_str(cls.a)}, b={cls.b} leave the ring "
                f"at subset size {size_coeffs.index(None)}"
            )
        ml = from_size_coeffs(ring, n, size_coeffs)
    elif isinstance(cls, LinearFamily):
        constant, weights = cls.table(ring, n)
        ml = MultilinearPoly(ring, n, {0: constant, **{1 << k: w for k, w in enumerate(weights)}})
    else:
        raise TypeError(f"not a classification: {cls!r}")
    return ml.to_sparse()


def _params(cls: Classification) -> dict[str, object]:
    """Report name -> value of each field whose "param" metadata names it."""
    return {f.metadata["param"]: getattr(cls, f.name) for f in fields(cls) if f.metadata}


def classification_params(cls: Classification, ring: Ring) -> dict[str, str]:
    """Exact parameter strings for reports and census rows."""
    return {name: _value_str(x, ring) for name, x in _params(cls).items()}


def _value_str(x, ring: Ring) -> str:
    """Display form of a ring or fraction element."""
    return str(x) if isinstance(x, Frac) else ring.element_str(x)


def _value_key(x):
    """Ordering key of a ring or fraction element: Z[i] as (re, im)."""
    if isinstance(x, Frac):
        return (_value_key(x.num), _value_key(x.den))
    return (x.re, x.im) if isinstance(x, GaussianInt) else x


def param_sort_key(cls: Classification):
    """Deterministic ordering key among classifications of one census run."""
    clauses = ("i", "ii", "iii", "iv", "v", "vi", "")
    return (clauses.index(cls.clause), tuple(map(_value_key, _params(cls).values())))
