"""Group structure, mediality, and reducibility of classified operations.

For an associative n-ary operation the questions answered here are: does it
make the whole ring an n-ary group (every one-unknown equation uniquely
solvable), and if so what is the skew map x -> x-bar with p(x,..,x,x-bar) = x;
is the operation medial (applying it to the rows of an n x n argument matrix
equals applying it to the columns); and is it reducible, i.e. the (n-1)-fold
iterate of some binary semigroup operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .classify import (
    Classification,
    Constant,
    LeftProjection,
    NotAssociative,
    RightProjection,
    ShiftedProduct,
    TranslatedSum,
    TwistedSum,
)
from .oracle import OracleConfig, XorShift64Star
from .poly import SparsePoly
from .rings import Ring


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


@dataclass(frozen=True)
class StructureReport:
    group: str  # "yes" | "no" | "field-restricted"
    skew: SkewMap | None
    skew_verified: bool | None
    skew_endomorphism: bool | None
    medial: bool
    medial_method: str  # "symbolic" | "sampled"
    reducible: str  # "yes" | "no" | "out-of-scope"
    reduction: Reduction | None
    notes: tuple[str, ...] = ()


def group_status(cls: Classification, ring: Ring, n: int) -> tuple[str, SkewMap | None, tuple[str, ...]]:
    """Group verdict and skew map for a classified operation.

    Constants and projections never form groups.  Translated sums do, with
    skew (2-n)x - c; twisted sums do, with skew x.  Shifted products form a
    group only on a punctured domain and only over a field; that case is
    reported as "field-restricted" with a note (the skew there is not an
    affine polynomial map, so none is emitted).
    """
    if isinstance(cls, NotAssociative):
        raise ValueError("group status is defined for associative operations only")
    if isinstance(cls, (Constant, LeftProjection, RightProjection)):
        return "no", None, ()
    if isinstance(cls, TranslatedSum):
        skew = SkewMap(ring.coerce(2 - n), -ring.coerce(cls.shift))
        return "yes", skew, ()
    if isinstance(cls, TwistedSum):
        return "yes", SkewMap(ring.one, ring.zero), ()
    # shifted product
    excluded = str(-cls.b)
    if ring.is_field:
        return (
            "field-restricted",
            None,
            (
                f"group on {ring.label} minus {{{excluded}}} only; shifting the domain "
                f"by the offset reduces it to the punctured product case",
            ),
        )
    return (
        "no",
        None,
        (
            f"not a group on all of {ring.label}; product-family operations only form "
            f"groups on a punctured domain over a field",
        ),
    )


def verify_skew(p: SparsePoly, skew: SkewMap) -> bool:
    """Check p(x, ..., x, alpha*x + beta) = x as a univariate identity."""
    ring = p.ring
    x = SparsePoly.variable(ring, 1, 1)
    args = [x] * (p.nvars - 1) + [skew.as_poly(ring)]
    return p.substitute(args) == x


def skew_is_endomorphism(p: SparsePoly, skew: SkewMap) -> bool:
    """Check skew(p(x1,..,xn)) = p(skew(x1),..,skew(xn)) symbolically."""
    ring, n = p.ring, p.nvars
    lhs = p * skew.alpha + SparsePoly.constant(ring, n, skew.beta)
    mapped = [
        SparsePoly.variable(ring, n, j) * skew.alpha
        + SparsePoly.constant(ring, n, skew.beta)
        for j in range(1, n + 1)
    ]
    return lhs == p.substitute(mapped)


def is_medial(p: SparsePoly) -> tuple[bool, str]:
    """Row/column interchange identity over an n x n matrix of arguments.

    Symbolic in n^2 variables for n <= 3; for larger arities the identity is
    sampled at seeded random points and the method is reported as such.
    """
    n = p.nvars
    if n <= 3:
        m = n * n
        rows = [
            p.substitute([SparsePoly.variable(p.ring, m, r * n + c + 1) for c in range(n)])
            for r in range(n)
        ]
        cols = [
            p.substitute([SparsePoly.variable(p.ring, m, r * n + c + 1) for r in range(n)])
            for c in range(n)
        ]
        return p.substitute(rows) == p.substitute(cols), "symbolic"
    cfg = OracleConfig(mode="random")
    rng = XorShift64Star(cfg.seed)
    for _ in range(cfg.samples):
        matrix = [
            [rng.element(p.ring, cfg.value_range) for _ in range(n)] for _ in range(n)
        ]
        by_rows = p.evaluate([p.evaluate(row) for row in matrix])
        by_cols = p.evaluate([p.evaluate([matrix[r][c] for r in range(n)]) for c in range(n)])
        if by_rows != by_cols:
            return False, "sampled"
    return True, "sampled"


def iterate_binary(op: SparsePoly, n: int) -> SparsePoly:
    """Left-nested (n-1)-fold iterate of a binary operation, in n variables."""
    if op.nvars != 2:
        raise ValueError("expected a binary operation")
    if n < 2:
        raise ValueError("arity must be at least 2")
    acc = SparsePoly.variable(op.ring, n, 1)
    for k in range(2, n + 1):
        acc = op.substitute([acc, SparsePoly.variable(op.ring, n, k)])
    return acc


def reducibility(
    cls: Classification, ring: Ring, n: int
) -> tuple[str, Reduction | None, str | None]:
    """Reducibility verdict: status, binary operation, and an optional note.

    Constants and projections are derived from the constant / left-zero /
    right-zero binary operations.  A translated sum reduces iff its constant
    splits as (n-1)*c0, giving x + y + c0.  Twisted sums never reduce.  A
    shifted product is decided only over a field with offset 0 (on the
    punctured domain), where it reduces iff the scale has an (n-1)-st root;
    other shifted products are out of the stated scope.
    """
    if isinstance(cls, NotAssociative):
        raise ValueError("reducibility is defined for associative operations only")
    x = SparsePoly.variable(ring, 2, 1)
    y = SparsePoly.variable(ring, 2, 2)
    if isinstance(cls, Constant):
        op = SparsePoly.constant(ring, 2, cls.value)
        return "yes", Reduction(op, {"c": ring.element_str(cls.value)}), None
    if isinstance(cls, LeftProjection):
        return "yes", Reduction(x), None
    if isinstance(cls, RightProjection):
        return "yes", Reduction(y), None
    if isinstance(cls, TranslatedSum):
        c0 = ring.exact_div(cls.shift, ring.coerce(n - 1))
        if c0 is None:
            return "no", None, f"constant {ring.element_str(cls.shift)} is not divisible by {n - 1}"
        op = x + y + SparsePoly.constant(ring, 2, c0)
        return "yes", Reduction(op, {"c0": ring.element_str(c0)}), None
    if isinstance(cls, TwistedSum):
        return "no", None, "twisted sums are never iterates of a binary operation"
    if not ring.is_field:
        return (
            "out-of-scope",
            None,
            f"shifted-product reducibility is only decided over a field ({ring.label} is not one)",
        )
    if cls.b != ring.zero:
        return (
            "out-of-scope",
            None,
            "shifted-product reducibility is only decided for offset 0 on the punctured domain",
        )
    roots = ring.nth_roots(cls.a, n - 1)
    if not roots:
        return "no", None, f"{ring.element_str(cls.a)} has no exact {n - 1}-st root"
    a0 = roots[0]
    op = x * y * a0
    params = {"a0": ring.element_str(a0)}
    if len(roots) > 1:
        params["roots"] = ", ".join(ring.element_str(r) for r in roots)
    return "yes", Reduction(op, params), None


def analyze(p: SparsePoly, cls: Classification, ring: Ring) -> StructureReport:
    """Full structure report for an operation with its classification."""
    if isinstance(cls, NotAssociative):
        raise ValueError("structure analysis is defined for associative operations only")
    n = p.nvars
    group, skew, notes = group_status(cls, ring, n)
    skew_ok = endo_ok = None
    if skew is not None:
        skew_ok = verify_skew(p, skew)
        endo_ok = skew_is_endomorphism(p, skew)
    medial, method = is_medial(p)
    status, reduction, note = reducibility(cls, ring, n)
    if note:
        notes = notes + (note,)
    if reduction is not None and iterate_binary(reduction.binary_op, n) != p:
        raise AssertionError("reduction iterate does not reproduce the operation")
    return StructureReport(
        group=group,
        skew=skew,
        skew_verified=skew_ok,
        skew_endomorphism=endo_ok,
        medial=medial,
        medial_method=method,
        reducible=status,
        reduction=reduction,
        notes=notes,
    )
