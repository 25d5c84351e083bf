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
``ShiftedProduct.ladder`` (in the ring, by exact division; ``ValueError`` at
the first size that leaves it), and ``reconstruct`` builds the polynomial
from it.
Recognition reads candidate parameters off the input and keeps the one
candidate that ``reconstruct`` rebuilds into the input.  Each family also
answers its own structure questions: ``group`` (is the whole ring an n-ary
group, and with which skew map) and ``reduction`` (is it the iterate of a
binary operation).
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
class SkewMap:
    """Affine map x -> alpha*x + beta."""

    alpha: object
    beta: object

    def as_poly(self, ring: Ring) -> SparsePoly:
        return SparsePoly(ring, 1, {(1,): self.alpha, (0,): self.beta})

    def render(self, ring: Ring) -> str:
        return self.as_poly(ring).render().replace("x1", "x").replace(" ", "")


@dataclass(frozen=True)
class Reduction:
    """A binary operation whose iterate reproduces the n-ary one."""

    binary_op: SparsePoly  # in two variables
    params: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        return self.binary_op.render().replace("x1", "x").replace("x2", "y")


GroupStatus = tuple[str, SkewMap | None, tuple[str, ...]]  # "yes" | "no" | "field-restricted"
ReductionStatus = tuple[str, Reduction | None, str | None]  # "yes" | "no" | "out-of-scope"


class LinearFamily:
    """An operation c + sum w_k x_k, given by ``table(ring, n)``."""

    def group(self, ring: Ring, n: int) -> GroupStatus:
        """The whole ring is an n-ary group iff every weight w_k is a unit; the
        skew solves p(x, .., x, x-bar) = x: x-bar = ((1 - sum_(k<n) w_k)x - c) / w_n."""
        c, weights = self.table(ring, n)
        if not all(w and ring.exact_div(ring.one, w) is not None for w in weights):
            return "no", None, ()
        alpha = ring.exact_div(ring.one - sum(weights[:-1], ring.zero), weights[-1])
        return "yes", SkewMap(alpha, ring.exact_div(-c, weights[-1])), ()


@dataclass(frozen=True)
class Constant(LinearFamily):
    value: object = field(metadata={"param": "c"})
    clause: ClassVar[str] = "i"
    type_tag: ClassVar[str] = "constant"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        """The constant term and the weights of x1 .. xn."""
        return ring.coerce(self.value), [ring.zero] * n

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        op = SparsePoly.constant(ring, 2, self.value)
        return "yes", Reduction(op, {"c": ring.element_str(self.value)}), None


@dataclass(frozen=True)
class LeftProjection(LinearFamily):
    clause: ClassVar[str] = "ii"
    type_tag: ClassVar[str] = "left-projection"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.zero, [ring.one] + [ring.zero] * (n - 1)

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        return "yes", Reduction(SparsePoly.variable(ring, 2, 1)), None


@dataclass(frozen=True)
class RightProjection(LinearFamily):
    clause: ClassVar[str] = "iii"
    type_tag: ClassVar[str] = "right-projection"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.zero, [ring.zero] * (n - 1) + [ring.one]

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        return "yes", Reduction(SparsePoly.variable(ring, 2, 2)), None


@dataclass(frozen=True)
class TranslatedSum(LinearFamily):
    shift: object = field(metadata={"param": "c"})  # the additive constant
    clause: ClassVar[str] = "iv"
    type_tag: ClassVar[str] = "translated-sum"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.coerce(self.shift), [ring.one] * n

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        """Reduces iff the constant splits as (n-1)*c0, giving x + y + c0."""
        c0 = ring.exact_div(self.shift, ring.coerce(n - 1))
        if c0 is None:
            note = f"constant {ring.element_str(self.shift)} is not divisible by {n - 1}"
            return "no", None, note
        op = SparsePoly(ring, 2, {(1, 0): 1, (0, 1): 1, (0, 0): c0})
        return "yes", Reduction(op, {"c0": ring.element_str(c0)}), None


@dataclass(frozen=True)
class TwistedSum(LinearFamily):
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

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        return "no", None, "twisted sums are never iterates of a binary operation"


@dataclass(frozen=True)
class ShiftedProduct:
    a: object = field(metadata={"param": "a"})  # ring element, nonzero
    b: Frac = field(metadata={"param": "b"})  # fraction-field offset
    clause: ClassVar[str] = "vi"
    type_tag: ClassVar[str] = "shifted-product"

    def ladder(self, ring: Ring, n: int) -> list:
        """The size coefficients c_0 .. c_n in the ring, by exact division with
        b = num/den in lowest terms: c_k = a*num^(n-k) / den^(n-k) for k >= 1
        and c_0 = (a*num^n - num*den^(n-1)) / den^n.  Raises ValueError at the
        first size k whose c_k leaves the ring."""
        a = ring.coerce(self.a)
        if not a:
            raise ValueError("shifted products require a nonzero scale")
        b = self.b if isinstance(self.b, Frac) else Frac(ring, self.b)
        if b.ring is not ring:
            raise ValueError("offset belongs to a different ring")
        num, den = b.num, b.den
        ladder = [ring.exact_div(a * num**n - num * den ** (n - 1), den**n)]
        ladder += [ring.exact_div(a * num ** (n - k), den ** (n - k)) for k in range(1, n + 1)]
        if None in ladder:
            raise ValueError(
                f"parameters a={ring.element_str(a)}, b={self.b} leave the ring "
                f"at subset size {ladder.index(None)}"
            )
        return ladder

    def group(self, ring: Ring, n: int) -> GroupStatus:
        """A group only on a punctured domain and only over a field, reported
        as "field-restricted" (the skew there is not an affine polynomial map,
        so none is given)."""
        if ring.is_field:
            return "field-restricted", None, (
                f"group on {ring.label} minus {{{-self.b}}} only; shifting the domain "
                f"by the offset reduces it to the punctured product case",
            )
        return "no", None, (
            f"not a group on all of {ring.label}; product-family operations only form "
            f"groups on a punctured domain over a field",
        )

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        """Decided only over a field with offset 0 (on the punctured domain),
        where it reduces iff some r in the ring has r^(n-1) = a."""
        scope = "shifted-product reducibility is only decided"
        if not ring.is_field:
            return "out-of-scope", None, f"{scope} over a field ({ring.label} is not one)"
        if self.b != ring.zero:
            return "out-of-scope", None, f"{scope} for offset 0 on the punctured domain"
        roots = ring.nth_roots(self.a, n - 1)
        if not roots:
            a = ring.element_str(self.a)
            return "no", None, f"no element r of {ring.label} has r^{n - 1} = {a}"
        params = {"a0": ring.element_str(roots[0])}
        if len(roots) > 1:
            params["roots"] = ", ".join(ring.element_str(r) for r in roots)
        return "yes", Reduction(SparsePoly(ring, 2, {(1, 1): roots[0]}), params), None


@dataclass(frozen=True)
class NotAssociative:
    witness: CompositionWitness | None
    clause: ClassVar[str] = ""
    type_tag: ClassVar[str] = "not-associative"


Classification = Union[LinearFamily, ShiftedProduct, NotAssociative]


def classify(p: SparsePoly) -> Classification:
    """Decide associativity and name the family with exact parameters."""
    verdict = is_associative(p)
    if not verdict.associative:
        return NotAssociative(verdict.witness)
    return classify_associative(p)


def classify_associative(p: SparsePoly) -> Classification:
    """Classify an operation already known to be associative.

    The candidates come from p alone.  With a nonzero coefficient a on
    x1*...*xn, the one candidate is the shifted product with scale a and
    offset c/a, c being the coefficient on x1*...*x(n-1); otherwise they are
    the five linear families with parameters read off p.  The family is the
    one candidate that ``reconstruct`` rebuilds into p.  Raises
    ``InternalInvariantError`` when p has a squared variable: every
    associative operation is multilinear.
    """
    ring, n = p.ring, p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    p = p.to_multilinear()
    if p is None:
        raise InternalInvariantError("associative operation with a squared variable")
    a = p.coeff((1 << n) - 1)
    if a:
        candidates = [ShiftedProduct(a, Frac(ring, p.coeff((1 << (n - 1)) - 1), a))]
    else:
        c0 = p.coeff(0)
        candidates = [
            Constant(c0), LeftProjection(), RightProjection(), TranslatedSum(c0),
            TwistedSum(p.coeff(0b10)),
        ]
    matches = []
    for cls in candidates:
        try:
            if reconstruct(cls, n, ring).coeffs == p.coeffs:
                matches.append(cls)
        except ValueError:  # parameters outside the family at this arity
            pass
    if len(matches) != 1:
        raise InternalInvariantError(
            f"associative operation matched {len(matches)} families: {p.render()}"
        )
    return matches[0]


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
        return from_size_coeffs(ring, n, cls.ladder(ring, n))
    if isinstance(cls, LinearFamily):
        constant, weights = cls.table(ring, n)
        return MultilinearPoly(ring, n, {0: constant, **{1 << k: w for k, w in enumerate(weights)}})
    raise TypeError(f"not a classification: {cls!r}")


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
