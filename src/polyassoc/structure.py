"""Structure reports of classified operations, and the routes that check them.

For an associative n-ary operation a report says: does it make the whole
ring an n-ary group (every one-unknown equation uniquely solvable), and if so
what is the skew map x -> x-bar with p(x,..,x,x-bar) = x; is the operation
medial (applying it to the rows of an n x n argument matrix equals applying
it to the columns); and is it reducible, i.e. the (n-1)-fold iterate of some
binary semigroup operation.  Each family answers the group and reducibility
questions itself (``group`` and ``reduction`` in ``classify``); this module
checks those answers against p by independent routes (``verify_skew``,
``skew_is_endomorphism``, ``iterate_binary``), and checks mediality, which
every family has over a commutative ring, from p alone (``is_medial``),
raising ``InternalInvariantError`` when any of them fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Classification, InternalInvariantError, NotAssociative, Reduction, SkewMap
from .oracle import DEFAULT_SEED, _samples_agree
from .poly import SparsePoly


@dataclass(frozen=True)
class StructureReport:
    group: str  # "yes" | "no" | "field-restricted"
    skew: SkewMap | None
    skew_verified: bool | None  # True when there is a skew map, else None
    skew_endomorphism: bool | None
    medial: bool
    medial_method: str  # "symbolic" | "sampled"
    reducible: str  # "yes" | "no" | "out-of-scope"
    reduction: Reduction | None
    notes: tuple[str, ...] = ()


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
    sampled at seeded points (``oracle._samples_agree``), each n x n matrix
    drawn row-major, and the method is reported as such.  Both sides have
    total degree at most deg(p)^2.
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

    def sides(flat):
        by_rows = p.evaluate([p.evaluate(flat[r * n:(r + 1) * n]) for r in range(n)])
        return [by_rows, p.evaluate([p.evaluate(flat[c::n]) for c in range(n)])]

    return _samples_agree(p.ring, p.degree() ** 2, n * n, sides, DEFAULT_SEED), "sampled"


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


def analyze(p: SparsePoly, cls: Classification) -> StructureReport:
    """Full structure report for an operation with its classification."""
    if isinstance(cls, NotAssociative):
        raise ValueError("structure analysis is defined for associative operations only")
    ring, n = p.ring, p.nvars
    group, skew, notes = cls.group(ring, n)
    if skew is not None and not verify_skew(p, skew):
        raise InternalInvariantError(f"skew map {skew.render(ring)} fails p(x, .., x, x-bar) = x")
    if skew is not None and not skew_is_endomorphism(p, skew):
        raise InternalInvariantError(f"skew map {skew.render(ring)} is not an endomorphism")
    checked = None if skew is None else True  # a failed check raised above
    medial, method = is_medial(p)
    if not medial:  # every family is medial over a commutative ring
        raise InternalInvariantError("the operation fails the medial identity")
    status, reduction, note = cls.reduction(ring, n)
    if note:
        notes = notes + (note,)
    if reduction is not None and iterate_binary(reduction.binary_op, n) != p:
        raise InternalInvariantError("reduction iterate does not reproduce the operation")
    return StructureReport(
        group=group,
        skew=skew,
        skew_verified=checked,
        skew_endomorphism=checked,
        medial=medial,
        medial_method=method,
        reducible=status,
        reduction=reduction,
        notes=notes,
    )
