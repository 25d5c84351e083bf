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

Mediality of multilinear p at n <= 3 is exact and expands nothing: with c_0
the constant term and g(R) = sum over T containing R of c_T * c_0^|T-R|
(the coefficients of p shifted by c_0), the row side p(p(X_1), .., p(X_n))
has coefficient g(R) * prod over r in R of c_(M_r) at the n x n 0/1 matrix
M with nonempty rows R and rows M_r, and the column side the same with
columns.  Each side has at most 2^(n^2) entries, 512 at n = 3.  At larger
arities, and on input with a squared variable, the identity is sampled.
"""

from __future__ import annotations

from .classify import Classification, InternalInvariantError, NotAssociative, Reduction, SkewMap
from .oracle import DEFAULT_SEED, _samples_agree
from .poly import MultilinearPoly, SparsePoly, _Value


class StructureReport(_Value):
    """``group`` is "yes", "no" or "field-restricted"; ``skew_verified`` is
    True when there is a skew map, else None; ``medial_method`` is "symbolic"
    or "sampled"; ``reducible`` is "yes", "no" or "out-of-scope"."""

    __slots__ = ("group", "skew", "skew_verified", "skew_endomorphism", "medial",
                 "medial_method", "reducible", "reduction", "notes")

    def __init__(self, group: str, skew: SkewMap | None, skew_verified: bool | None,
                 skew_endomorphism: bool | None, medial: bool, medial_method: str,
                 reducible: str, reduction: Reduction | None, notes: tuple[str, ...] = ()):
        _Value.__init__(self, group, skew, skew_verified, skew_endomorphism, medial,
                        medial_method, reducible, reduction, notes)


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

    For multilinear p at n <= 3 the check is exact and reads both sides
    off p's coefficients (``_medial_sides``), reported as "symbolic": the
    row side has coefficient g(R) * prod over r in R of c_(M_r) at the 0/1
    matrix M with nonempty rows R and rows M_r, for g(R) = sum over T
    containing R of c_T * c_0^|T-R|, and the column side the same with
    columns; each side has at most 2^(n^2) entries.  For larger arities,
    and for input with a squared variable, the identity is
    sampled at seeded points (``oracle._samples_agree``), each n x n matrix
    drawn row-major, and the method is reported as such.  Both sides have
    total degree at most deg(p)^2.
    """
    n = p.nvars
    ml = p.to_multilinear() if n <= 3 else None
    if ml is not None:
        rows, cols = _medial_sides(ml)
        return rows == cols, "symbolic"
    return _samples_agree(p.ring, p.degree()**2, n * n, _sampled_sides(p), DEFAULT_SEED), "sampled"


def _sampled_sides(p: SparsePoly):
    """An n x n matrix, flat and row-major -> the native values of both medial
    sides there: one conversion per matrix, no ring element built."""
    kernel, plan = p.plan()
    natives, n = p.ring.natives, p.nvars

    def sides(flat):
        xs = natives(flat)
        by_rows = kernel(plan, [kernel(plan, xs[r * n:(r + 1) * n]) for r in range(n)])
        return [by_rows, kernel(plan, [kernel(plan, xs[c::n]) for c in range(n)])]

    return sides


def _medial_sides(p: MultilinearPoly) -> tuple[dict, dict]:
    """Both sides of the medial identity of multilinear p, as dicts from an
    n x n 0/1 matrix M (entry (r, c) at bit r*n + c) to den^(n+1) times the
    coefficient of the monomial that M marks, den the common denominator of
    p's coefficients (``Ring.scaled``; 1 outside Q).

    With c_0 the constant term, p(X_r) = c_0 + y_r, so the row side
    p(p(X_1), .., p(X_n)) is q(y_1, .., y_n) for q(y) = p(y_1 + c_0, ..,
    y_n + c_0), whose coefficient at a row set R is
    g(R) = sum over T containing R of c_T * c_0^|T-R|.  The rows X_r are
    disjoint blocks of variables, so the row side's coefficient at M is g(R)
    times the product of c_(M_r) over r in R, where R is the set of M's
    nonempty rows and M_r is row r of M; the column side is the same with
    columns.  Each M comes from one R and one term of p per row of R, so no
    two entries merge, and each side has at most 2^(n^2) entries.  Scaled
    by den^(n+1), the coefficient at M is the sum over T containing R of
    den^(n-|T|) * s_T * s_0^|T-R|, times the product of s_(M_r), for
    s = den * c; so over Q every product is of ints.
    """
    n = p.nvars
    den, scaled = p.ring.scaled(p.coeffs.values())
    coeffs = dict(zip(p.coeffs, scaled))
    s0 = coeffs.get(0, 0)
    powers = [s0**k for k in range(n + 1)]
    weighted = [(t, s * den ** (n - t.bit_count())) for t, s in coeffs.items()]
    # A key holds a matrix's row-side mask in its low n^2 bits and its
    # column-side mask above them.  Term t put in row r of the row side sits
    # at t << r*n; put in column r of the column side, its bit j sits at (j, r).
    width = n * n
    low = (1 << width) - 1
    places = [
        [((t << r * n) | sum(1 << (j * n + r) for j in range(n) if t >> j & 1) << width, s)
         for t, s in coeffs.items() if t]
        for r in range(n)
    ]
    rows: dict[int, object] = {}
    cols: dict[int, object] = {}
    for nonempty in range(1 << n):
        g = sum(
            w * powers[(t & ~nonempty).bit_count()]
            for t, w in weighted if t & nonempty == nonempty
        )
        if not g:
            continue
        side = {0: g}
        for r in range(n):
            if nonempty >> r & 1:
                side = {key | at: v * s for key, v in side.items() for at, s in places[r]}
        for key, v in side.items():
            rows[key & low] = v
            cols[key >> width] = v
    return rows, cols


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
