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
``ShiftedProduct.ladder`` (in the ring, from one table of powers, by exact
division only for an offset outside the ring; ``ValueError`` at the first
size that leaves it), and ``reconstruct`` builds the polynomial
from it.
Recognition reads candidate parameters off the input and keeps the one
candidate whose reconstruction is the input (``_families``; a shifted
product is compared with its ladder, size by size, without building its
table).

The theorem is an equivalence: over an infinite commutative integral domain
the six families are exactly the associative polynomial operations.  So
multilinear input is decided by recognition (``_decide``): a family that
rebuilds p proves it associative, and no slot composition is built.  The
O(t) prefix step (``assoc._prefix_witness``) runs first, and the full
comparison (``assoc._compare_closed_forms``) only when no family matches,
for the witness.  Each family also answers its own structure questions:
``group`` (is the whole ring an n-ary group, and with which skew map) and
``reduction`` (is it the iterate of a binary operation).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from math import comb
from operator import mul

from .assoc import CompositionWitness, _compare_closed_forms, _prefix_witness, is_associative
from .errors import InternalInvariantError
from .poly import MultilinearPoly, SparsePoly, _size_table, _Value
from .rings import Frac, Ring


class SkewMap(_Value):
    """Affine map x -> alpha*x + beta."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        _Value.__init__(self, alpha, beta)

    def as_poly(self, ring: Ring) -> SparsePoly:
        return SparsePoly(ring, 1, {(1,): self.alpha, (0,): self.beta})

    def render(self, ring: Ring) -> str:
        return self.as_poly(ring).render().replace("x1", "x").replace(" ", "")


class Reduction(_Value):
    """A binary operation, in two variables, whose iterate reproduces the n-ary one."""

    __slots__ = ("binary_op", "params")

    def __init__(self, binary_op: SparsePoly, params: dict[str, str] | None = None):
        _Value.__init__(self, binary_op, {} if params is None else params)

    def render(self) -> str:
        return self.binary_op.render().replace("x1", "x").replace("x2", "y")


GroupStatus = tuple[str, SkewMap | None, tuple[str, ...]]  # "yes" | "no" | "field-restricted"
ReductionStatus = tuple[str, Reduction | None, str | None]  # "yes" | "no" | "out-of-scope"


class LinearFamily(_Value):
    """An operation c + sum w_k x_k, given by ``table(ring, n)``.  Each family
    names the report parameter of each of its fields in ``param_names``."""

    __slots__ = ()
    param_names: tuple[str, ...] = ()

    def group(self, ring: Ring, n: int) -> GroupStatus:
        """The whole ring is an n-ary group iff every weight w_k is a unit; the
        skew solves p(x, .., x, x-bar) = x: x-bar = ((1 - sum_(k<n) w_k)x - c) / w_n."""
        c, weights = self.table(ring, n)
        if not all(w and ring.exact_div(ring.one, w) is not None for w in weights):
            return "no", None, ()
        alpha = ring.exact_div(ring.one - sum(weights[:-1], ring.zero), weights[-1])
        return "yes", SkewMap(alpha, ring.exact_div(-c, weights[-1])), ()


class Constant(LinearFamily):
    __slots__ = ("value",)
    param_names = ("c",)
    clause = "i"
    type_tag = "constant"

    def __init__(self, value):
        _Value.__init__(self, value)

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        """The constant term and the weights of x1 .. xn."""
        return ring.coerce(self.value), [ring.zero] * n

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        op = SparsePoly.constant(ring, 2, self.value)
        return "yes", Reduction(op, {"c": ring.element_str(self.value)}), None


class LeftProjection(LinearFamily):
    __slots__ = ()
    clause = "ii"
    type_tag = "left-projection"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.zero, [ring.one] + [ring.zero] * (n - 1)

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        return "yes", Reduction(SparsePoly.variable(ring, 2, 1)), None


class RightProjection(LinearFamily):
    __slots__ = ()
    clause = "iii"
    type_tag = "right-projection"

    def table(self, ring: Ring, n: int) -> tuple[object, list]:
        return ring.zero, [ring.zero] * (n - 1) + [ring.one]

    def reduction(self, ring: Ring, n: int) -> ReductionStatus:
        return "yes", Reduction(SparsePoly.variable(ring, 2, 2)), None


class TranslatedSum(LinearFamily):
    __slots__ = ("shift",)  # the additive constant
    param_names = ("c",)
    clause = "iv"
    type_tag = "translated-sum"

    def __init__(self, shift):
        _Value.__init__(self, shift)

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


class TwistedSum(LinearFamily):
    __slots__ = ("omega",)  # slot k weighs omega^(k-1)
    param_names = ("omega",)
    clause = "v"
    type_tag = "twisted-sum"

    def __init__(self, omega):
        _Value.__init__(self, omega)

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


class ShiftedProduct(_Value):
    __slots__ = ("a", "b")  # a nonzero ring element, a fraction-field offset
    param_names = ("a", "b")
    clause = "vi"
    type_tag = "shifted-product"

    def __init__(self, a, b: Frac):
        _Value.__init__(self, a, b)

    def ladder(self, ring: Ring, n: int) -> list:
        """The size coefficients c_0 .. c_n in the ring, with b = num/den in
        lowest terms: c_k = a*num^(n-k) / den^(n-k) for k >= 1 and c_0 =
        (a*num^n - num*den^(n-1)) / den^n, from a*num^j and den^j, j <= n, by n
        products each.  With den = 1 (b in the ring) nothing is divided; else
        ValueError is raised at the first size k whose c_k leaves the ring."""
        a = ring.coerce(self.a)
        if not a:
            raise ValueError("shifted products require a nonzero scale")
        b = self.b if isinstance(self.b, Frac) else Frac(ring, self.b)
        if b.ring is not ring:
            raise ValueError("offset belongs to a different ring")
        num, den = b.num, b.den
        nums = list(accumulate([num] * n, mul, initial=a))  # nums[j] = a*num^j
        if den == ring.one:
            return [nums[n] - num] + nums[n - 1::-1]
        dens = list(accumulate([den] * n, mul, initial=ring.one))
        ladder = [ring.exact_div(nums[n] - num * dens[n - 1], dens[n])]
        ladder += [ring.exact_div(nums[n - k], dens[n - k]) for k in range(1, n + 1)]
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
        """At n = 2 the operation is its own 1-fold iterate (a0 = a).  Above, it is decided
        over a field with offset 0 alone: it reduces iff some r in R has r^(n-1) = a."""
        if n == 2:
            params = {"a0": ring.element_str(self.a)}
            return "yes", Reduction(reconstruct(self, 2, ring), params), None
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


class NotAssociative(_Value):
    __slots__ = ("witness",)
    param_names = ()
    clause = ""
    type_tag = "not-associative"

    def __init__(self, witness: CompositionWitness | None):
        _Value.__init__(self, witness)


Classification = LinearFamily | ShiftedProduct | NotAssociative
CLAUSES = ("i", "ii", "iii", "iv", "v", "vi", "")  # the census order of the families


def classify(p: SparsePoly) -> Classification:
    """Decide associativity (``_decide``) and name the family with exact parameters."""
    witness, families = _decide(p)
    if witness is not None:
        return NotAssociative(witness)
    # through classify_associative, whose calls bench/layertrace.py counts as
    # the recognitions of a traced run; it raises on a squared variable
    return classify_associative(p, families)


def _decide(p: SparsePoly) -> tuple[CompositionWitness | None, list[Classification]]:
    """The witness that p is not associative, or None and the families that
    rebuild p.

    Multilinear p is decided in three steps.  A witness of the prefix step
    (``assoc._prefix_witness``) is the answer.  Otherwise a family that
    rebuilds p (``_families``) proves p associative, by the theorem.  With no
    family, p is not associative, and the full comparison
    (``assoc._compare_closed_forms``) finds the witness; if it finds none, the
    theorem and the code disagree, an ``InternalInvariantError``.  Input with
    a squared variable is never associative and goes to ``is_associative``.
    """
    ml = p.to_multilinear()
    if ml is None:
        return is_associative(p).witness, []
    if ml.n < 2:
        raise ValueError("arity must be at least 2")
    witness = _prefix_witness(ml)
    families = _families(ml) if witness is None else []
    if witness is None and not families:
        witness = _compare_closed_forms(ml).witness
        if witness is None:
            raise InternalInvariantError(f"slot compositions agree but no family rebuilds {p.render()}")
    return witness, families


def classify_associative(
    p: SparsePoly, families: list[Classification] | None = None
) -> Classification:
    """Classify an operation already known to be associative: the one family
    that rebuilds it (``_families``, or ``families`` when the caller has
    already listed them).  Raises ``InternalInvariantError`` when p has a
    squared variable (every associative operation is multilinear) or when
    not exactly one family rebuilds it.
    """
    if p.nvars < 2:
        raise ValueError("arity must be at least 2")
    ml = p.to_multilinear()
    if ml is None:
        raise InternalInvariantError("associative operation with a squared variable")
    matches = _families(ml) if families is None else families
    if len(matches) != 1:
        raise InternalInvariantError(
            f"associative operation matched {len(matches)} families: {ml.render()}"
        )
    return matches[0]


def _families(p: MultilinearPoly) -> list[Classification]:
    """The candidates, read off p alone, whose reconstruction is p.

    With a nonzero coefficient a on x1*...*xn, the one candidate is the
    shifted product with scale a and offset c/a, c being the coefficient on
    x1*...*x(n-1); it rebuilds p iff p holds exactly the masks of the sizes
    its ladder gives a nonzero c_k, each with that c_k, so no table of up to
    2^n masks is built.  Otherwise the candidates are the linear families
    whose masks have p's shape (constant: none of one bit; projection:
    exactly one; sum: all n), with parameters read off p, each compared with
    its reconstruction, and a mask of two or more variables rules them all out.
    """
    ring, n, coeffs = p.ring, p.n, p.coeffs
    a = p.coeff((1 << n) - 1)
    if a:
        product = ShiftedProduct(a, Frac(ring, p.coeff((1 << (n - 1)) - 1), a))
        try:
            ladder = product.ladder(ring, n)
        except ValueError:  # the offset leaves the ring at some size
            return []
        masks = sum(comb(n, k) for k, c in enumerate(ladder) if c)
        rebuilt = len(coeffs) == masks and all(
            c == ladder[m.bit_count()] for m, c in coeffs.items()
        )
        return [product] if rebuilt else []
    if any(m & (m - 1) for m in coeffs):  # every linear family's masks have at most one bit
        return []
    c0, singles = p.coeff(0), len(coeffs) - (0 in coeffs)  # the masks of one bit
    candidates = [Constant(c0)] if not singles else []
    if singles == 1:
        candidates += [LeftProjection(), RightProjection()]
    elif singles == n:  # a sum's weights are all nonzero
        candidates += [TranslatedSum(c0), TwistedSum(p.coeff(0b10))]
    matches = []
    for cls in candidates:
        try:
            if reconstruct(cls, n, ring).coeffs == coeffs:
                matches.append(cls)
        except ValueError:  # parameters outside the family at this arity
            pass
    return matches


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
    # ``ladder`` and ``table`` give ring elements: wrapped as they are, zeros dropped
    if isinstance(cls, ShiftedProduct):
        coeffs = _size_table(n, cls.ladder(ring, n))
    elif isinstance(cls, LinearFamily):
        constant, weights = cls.table(ring, n)
        table = [(0, constant)] + [(1 << k, w) for k, w in enumerate(weights)]
        coeffs = {m: c for m, c in table if c}
    else:
        raise TypeError(f"not a classification: {cls!r}")
    return MultilinearPoly._trusted(ring, n, coeffs)


def _params(cls: Classification) -> dict[str, object]:
    """Report name -> value of each field that ``param_names`` names, in order."""
    return dict(zip(cls.param_names, cls._fields()))


def classification_params(cls: Classification, ring: Ring) -> dict[str, str]:
    """Exact parameter strings for reports and census rows."""
    return {name: ring.element_str(x) for name, x in _params(cls).items()}


def param_sort_key(cls: Classification, ring: Ring):
    """Deterministic ordering key among classifications of one census run."""
    return (CLAUSES.index(cls.clause), tuple(map(ring.coords, _params(cls).values())))
