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
membership conditions (a*b^k in R for k < n, a*b^n - b in R).  This module
decides the family, extracts exact parameters, and rebuilds the polynomial
from a classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

from .assoc import CompositionWitness, is_associative
from .poly import MultilinearPoly, SparsePoly, from_size_coeffs
from .rings import Frac, GaussianInt, Ring


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed; reported as exit code 3 by the CLI."""


@dataclass(frozen=True)
class Constant:
    value: object
    clause: ClassVar[str] = "i"
    type_tag: ClassVar[str] = "constant"


@dataclass(frozen=True)
class LeftProjection:
    clause: ClassVar[str] = "ii"
    type_tag: ClassVar[str] = "left-projection"


@dataclass(frozen=True)
class RightProjection:
    clause: ClassVar[str] = "iii"
    type_tag: ClassVar[str] = "right-projection"


@dataclass(frozen=True)
class TranslatedSum:
    shift: object  # the additive constant
    clause: ClassVar[str] = "iv"
    type_tag: ClassVar[str] = "translated-sum"


@dataclass(frozen=True)
class TwistedSum:
    omega: object  # root of unity weighting slot k by omega^(k-1)
    clause: ClassVar[str] = "v"
    type_tag: ClassVar[str] = "twisted-sum"


@dataclass(frozen=True)
class ShiftedProduct:
    a: object  # ring element, nonzero
    b: Frac  # fraction-field offset
    clause: ClassVar[str] = "vi"
    type_tag: ClassVar[str] = "shifted-product"


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


Classification = Union[
    Constant,
    LeftProjection,
    RightProjection,
    TranslatedSum,
    TwistedSum,
    ShiftedProduct,
    NotAssociative,
]


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
    """Classify a multilinear operation already known to be associative."""
    ring, n = p.ring, p.n
    if p.degree() <= 1:
        constant = p.coeff(0)
        linear = [p.coeff(1 << k) for k in range(n)]
        matches: list[Classification] = []
        if not any(linear):
            matches.append(Constant(constant))
        if not constant and linear[0] == ring.one and not any(linear[1:]):
            matches.append(LeftProjection())
        if not constant and linear[-1] == ring.one and not any(linear[:-1]):
            matches.append(RightProjection())
        if all(c == ring.one for c in linear):
            matches.append(TranslatedSum(constant))
        if (
            n >= 3
            and not constant
            and linear[0] == ring.one
            and linear[1] != ring.one
            and all(linear[k] == linear[1] ** k for k in range(n))
            and linear[1] ** (n - 1) == ring.one
        ):
            matches.append(TwistedSum(linear[1]))
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
    top coefficient and b to the ratio of the next size down, then checks
    the full coefficient ladder c_k = a*b^(n-k) and the constant term
    c_0 = a*b^n - b, all exactly in the fraction field.  The first violated
    condition is reported.
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
    for k in range(1, n):
        if Frac(ring, size_coeffs[k]) != b ** (n - k) * a:
            return NotAssociative(
                LadderViolation("ladder", k, f"size-{k} coefficient breaks c_k = a*b^(n-k)")
            )
    if Frac(ring, size_coeffs[0]) != b**n * a - b:
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
    if isinstance(cls, Constant):
        return SparsePoly.constant(ring, n, cls.value)
    if isinstance(cls, LeftProjection):
        return SparsePoly.variable(ring, n, 1)
    if isinstance(cls, RightProjection):
        return SparsePoly.variable(ring, n, n)
    if isinstance(cls, TranslatedSum):
        acc = SparsePoly.constant(ring, n, cls.shift)
        for k in range(1, n + 1):
            acc = acc + SparsePoly.variable(ring, n, k)
        return acc
    if isinstance(cls, TwistedSum):
        if n < 3:
            raise ValueError("twisted sums require arity at least 3")
        omega = ring.coerce(cls.omega)
        if omega == ring.one:
            raise ValueError("twisted sums require a weight different from 1")
        if omega ** (n - 1) != ring.one:
            raise ValueError(
                f"weight {ring.element_str(omega)} fails w^{n - 1} = 1 at arity {n}"
            )
        acc = SparsePoly.zero(ring, n)
        for k in range(1, n + 1):
            acc = acc + SparsePoly.variable(ring, n, k) * omega ** (k - 1)
        return acc
    if isinstance(cls, ShiftedProduct):
        a = ring.coerce(cls.a)
        if not a:
            raise ValueError("shifted products require a nonzero scale")
        b = cls.b if isinstance(cls.b, Frac) else Frac(ring, cls.b)
        if b.ring is not ring:
            raise ValueError("offset belongs to a different ring")
        size_coeffs = []
        for k in range(n + 1):
            value = b ** (n - k) * a
            if k == 0:
                value = value - b
            member = value.in_base_ring()
            if member is None:
                raise ValueError(
                    f"parameters a={ring.element_str(a)}, b={b} leave the ring "
                    f"at subset size {k}"
                )
            size_coeffs.append(member)
        return from_size_coeffs(ring, n, size_coeffs).to_sparse()
    raise TypeError(f"not a classification: {cls!r}")


def classification_params(cls: Classification, ring: Ring) -> dict[str, str]:
    """Exact parameter strings for reports and census rows."""
    if isinstance(cls, Constant):
        return {"c": ring.element_str(cls.value)}
    if isinstance(cls, TranslatedSum):
        return {"c": ring.element_str(cls.shift)}
    if isinstance(cls, TwistedSum):
        return {"omega": ring.element_str(cls.omega)}
    if isinstance(cls, ShiftedProduct):
        return {"a": ring.element_str(cls.a), "b": str(cls.b)}
    return {}


def _value_key(x):
    """Ordering key of a ring or fraction element: Z[i] as (re, im)."""
    if isinstance(x, Frac):
        return (_value_key(x.num), _value_key(x.den))
    return (x.re, x.im) if isinstance(x, GaussianInt) else x


def param_sort_key(cls: Classification):
    """Deterministic ordering key among classifications of one census run."""
    order = {"i": 0, "ii": 1, "iii": 2, "iv": 3, "v": 4, "vi": 5, "": 6}
    params: tuple = ()
    if isinstance(cls, Constant):
        params = (_value_key(cls.value),)
    elif isinstance(cls, TranslatedSum):
        params = (_value_key(cls.shift),)
    elif isinstance(cls, TwistedSum):
        params = (_value_key(cls.omega),)
    elif isinstance(cls, ShiftedProduct):
        params = (_value_key(cls.a), _value_key(cls.b))
    return (order[cls.clause], params)
