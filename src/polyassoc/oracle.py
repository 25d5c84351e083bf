"""Implementation-independent verification and exhaustive search.

Everything here avoids the closed-form composition machinery: equality and
associativity are checked by evaluating polynomials at points (exact on a
large-enough grid or, for multilinear associativity, at the 0/1 points that
can carry a monomial; probabilistic on random samples), and the enumerator
walks entire boxes of multilinear coefficient tables, classifying every
associative candidate into a census.

Random sampling uses xorshift64*: the 64-bit state evolves by
``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and the output is
``x * 2685821657736338717 mod 2**64``; integers in a range are drawn by
rejection so the distribution is exactly uniform.  Identical seeds give
identical samples everywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from math import prod
from operator import itemgetter

from .assoc import associative_multilinear
from .classify import (
    Classification,
    classification_params,
    classify_associative,
    param_sort_key,
    _value_key,
)
from .poly import MultilinearPoly, SparsePoly
from .rings import GaussianInt, Ring

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717

# Marsaglia's xorshift64 example seed; any nonzero state works.
DEFAULT_SEED = 88172645463325252

GRID_GUARD = 1 << 20
DEFAULT_BUDGET = 1 << 24
# Python's default limit on int-to-str conversion; any count of at least
# 2^(4 * MAX_COUNT_DIGITS) has more digits than this.
MAX_COUNT_DIGITS = 4300


class BudgetError(ValueError):
    """A grid or enumeration would exceed its configured budget.

    ``required`` is the smallest budget that admits the request.  An
    enumeration box of more than ``MAX_COUNT_DIGITS`` decimal digits is not
    built: ``required`` is then None and the message writes the count as a
    power, such as ``3^16384``.
    """

    def __init__(self, message: str, required: int | None):
        super().__init__(message)
        self.required = required


class XorShift64Star:
    """Deterministic 64-bit PRNG (xorshift64* with the standard constants)."""

    def __init__(self, seed: int = DEFAULT_SEED):
        self.state = (seed & _MASK64) or 1

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * _MULTIPLIER) & _MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], exact via rejection sampling."""
        if lo > hi:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def element(self, ring: Ring, half_width: int):
        """A ring element with integer coordinates in [-half_width, half_width]:
        a ``GaussianInt`` over Z[i], a plain int (which Q accepts as it is) otherwise."""
        if ring is Ring.ZI:
            return GaussianInt(
                self.randint(-half_width, half_width),
                self.randint(-half_width, half_width),
            )
        return self.randint(-half_width, half_width)


@dataclass(frozen=True)
class OracleConfig:
    mode: str = "grid"  # "grid" (exact) or "random" (probabilistic)
    samples: int = 1000
    seed: int = DEFAULT_SEED
    value_range: int = 100

    def __post_init__(self):
        if self.mode not in ("grid", "random"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        if self.samples < 1 or self.value_range < 1:
            raise ValueError("samples and value_range must be positive")


def associated_value(p: SparsePoly, slot: int, point):
    """Evaluate the slot composition of p at a point in 2n-1 coordinates."""
    n = p.nvars
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    if len(point) != 2 * n - 1:
        raise ValueError(f"expected {2 * n - 1} coordinates")
    point = list(point)
    inner = p.evaluate(point[slot - 1 : slot - 1 + n])
    return p.evaluate(point[: slot - 1] + [inner] + point[slot - 1 + n :])


def _composition_degree_bounds(p: SparsePoly, slot: int) -> list[int]:
    """Per-variable degree bounds of the slot composition (1-based vars)."""
    n = p.nvars
    slot_degree = p.degree_in_var(slot)
    bounds = []
    for j in range(1, 2 * n):
        if slot <= j <= slot + n - 1:
            bounds.append(p.degree_in_var(j - slot + 1) * slot_degree)
        elif j < slot:
            bounds.append(p.degree_in_var(j))
        else:
            bounds.append(p.degree_in_var(j - n + 1))
    return bounds


def _check_grid_guard(total: int) -> None:
    if total > GRID_GUARD:
        raise BudgetError(
            f"grid of {total} points exceeds the {GRID_GUARD}-point guard", total
        )


def _slot_bound(masks: list[int], slot: int) -> int:
    """How many masks the candidate set of a slot can hold: t per term that
    contains x_slot, one per term that does not."""
    with_slot = sum((m >> (slot - 1)) & 1 for m in masks)
    return with_slot * len(masks) + len(masks) - with_slot


def _slot_candidates(masks: list[int], n: int, slot: int) -> set[int]:
    """A superset of the support of the slot composition, as masks over 2n-1
    variables.

    Substituting p for x_slot multiplies each term containing x_slot by
    every term of the nested call, whose variables sit in the window
    slot..slot+n-1; a term without x_slot passes through.  Either way the
    term's other variables keep their place before the window or move past
    it, and the window is disjoint from them, so each product is one mask.
    """
    bit = 1 << (slot - 1)
    inner = [m << (slot - 1) for m in masks]
    out: set[int] = set()
    for m in masks:
        placed = (m & (bit - 1)) | ((m >> slot) << (slot + n - 1))
        if m & bit:
            out.update(placed | i for i in inner)
        else:
            out.add(placed)
    return out


def _assoc_on_support(p: SparsePoly, masks: list[int]) -> bool:
    """The n-1 equations of multilinear p, whose terms are ``masks``, each at
    its candidate 0/1 points."""
    n, m = p.nvars, 2 * p.nvars - 1
    bounds = [_slot_bound(masks, s) for s in range(1, n + 1)]
    _check_grid_guard(sum(min(1 << m, a + b) for a, b in zip(bounds, bounds[1:])))
    lhs = _slot_candidates(masks, n, 1)
    known: dict[int, object] = {}  # slot i's values by mask, from equation i-1
    for i in range(1, n):
        rhs = _slot_candidates(masks, n, i + 1)
        values: dict[int, object] = {}
        for mask in lhs | rhs:
            point = [(mask >> j) & 1 for j in range(m)]
            left = known.get(mask)
            if left is None:
                left = associated_value(p, i, point)
            right = values[mask] = associated_value(p, i + 1, point)
            if left != right:
                return False
        lhs, known = rhs, values
    return True


def assoc_pointwise(p: SparsePoly, cfg: OracleConfig) -> bool:
    """Check the n-1 associativity equations at grid or sampled points.

    Grid mode is exact.  For multilinear p, equation i (slot i against slot
    i+1) is checked only at the 0/1 indicator points of candidate masks: the
    union of the two slots' candidate sets, each a superset of its
    composition's support that follows from substitution alone.  That
    suffices (the minimal-monomial argument of sparse identity testing;
    Klivans and Spielman 2001): let D be a nonzero multilinear difference of
    the two compositions and S an inclusion-minimal monomial of D.  At the
    indicator point 1_S every other monomial of D vanishes, so D(1_S) is
    coef(S), which is nonzero, and S is a candidate since every monomial of
    D is.  The guard bounds the candidates of all n-1 equations together,
    from the term counts, before any set is built: slot s contributes at
    most t masks per term containing x_s and one per other term, and an
    equation at most its 2^(2n-1)-point grid.

    Other input is checked on the full grid extending one past each
    variable's degree in either composition; the guard bounds each
    equation's grid.

    Random mode compares the n slot compositions at seeded points with
    coordinates drawn from a finite set S.  A nonzero difference of total
    degree d vanishes at such a point with probability at most d/|S|
    (Schwartz 1980; Zippel 1979), so agreement on every sample is evidence,
    not proof.
    """
    n = p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    if cfg.mode == "grid":
        ml = p.to_multilinear()
        if ml is not None:
            return _assoc_on_support(p, list(ml.coeffs))
        for i in range(1, n):
            lo = _composition_degree_bounds(p, i)
            hi = _composition_degree_bounds(p, i + 1)
            sides = [max(a, b) + 1 for a, b in zip(lo, hi)]
            _check_grid_guard(prod(sides))
            for point in product(*(range(s) for s in sides)):
                if associated_value(p, i, point) != associated_value(p, i + 1, point):
                    return False
        return True
    rng = XorShift64Star(cfg.seed)
    for _ in range(cfg.samples):
        point = [rng.element(p.ring, cfg.value_range) for _ in range(2 * n - 1)]
        values = [associated_value(p, i, point) for i in range(1, n + 1)]
        if any(v != values[0] for v in values[1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive enumeration of multilinear coefficient tables


@dataclass(frozen=True)
class CensusRow:
    type_tag: str
    params: str
    count: int


@dataclass
class EnumerationResult:
    ring: Ring
    n: int
    bound: int
    total: int  # nominal size of the coefficient box
    checked: int  # candidates decided individually
    bulk_rejected: int  # candidates removed wholesale by pruning filters
    survivors: list[tuple[MultilinearPoly, Classification]]
    census: list[CensusRow]
    oracle_mismatches: int = 0
    mismatch_examples: list[MultilinearPoly] = field(default_factory=list)


def _value_domain(ring: Ring, bound: int) -> list:
    if ring is Ring.Z:
        return list(range(-bound, bound + 1))
    return [
        GaussianInt(re, im)
        for re in range(-bound, bound + 1)
        for im in range(-bound, bound + 1)
    ]


def _enumerate_chunk(args) -> tuple[int, int, list[MultilinearPoly], list[MultilinearPoly]]:
    """Walk one slice of the coefficient box (split on the top coefficient).

    Masks run from the full subset downward, and for each top value the
    slice is the product of one value list per mask.  Pruning shortens the
    lists: a zero top coefficient forces degree <= 1 and idempotent
    first/last linear coefficients, and a nonzero one forces size-uniform
    coefficients, one free value per subset size.  Every table left out is
    rejected wholesale.  Returns (checked, bulk_rejected, survivors, oracle
    mismatches).
    """
    ring, n, bound, first_values, prune, cross_check = args
    domain = _value_domain(ring, bound)
    order = sorted(range(1 << n), key=lambda m: (-m.bit_count(), -m))
    sizes = [m.bit_count() for m in order]
    zero = ring.zero
    idempotents = [v for v in domain if v * v == v]
    checked = 0
    survivors: list[MultilinearPoly] = []
    mismatches: list[MultilinearPoly] = []
    for top in first_values:
        if prune and top != zero:
            # list j holds the value shared by every mask of size n - j
            lists = [[top]] + [domain] * n
            per_mask = itemgetter(*(n - k for k in sizes))
        else:
            lists = [[top]]
            for mask, size in zip(order[1:], sizes[1:]):
                if not prune or size == 0:
                    lists.append(domain)
                elif size >= 2:
                    lists.append([zero])
                else:
                    lists.append(idempotents if mask in (1, 1 << (n - 1)) else domain)
            per_mask = itemgetter(*range(len(order)))
        for values in product(*lists):
            checked += 1
            ml = MultilinearPoly(ring, n, {m: v for m, v in zip(order, per_mask(values)) if v})
            verdict = associative_multilinear(ml)
            if cross_check:
                pointwise = assoc_pointwise(ml.to_sparse(), OracleConfig(mode="grid"))
                if pointwise != verdict.associative:
                    mismatches.append(ml)
            if verdict.associative:
                survivors.append(ml)
    bulk = len(first_values) * len(domain) ** (len(order) - 1) - checked
    return checked, bulk, survivors, mismatches


def enumerate_associative(
    n: int,
    ring: Ring,
    bound: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = False,
    cross_check: bool = False,
    jobs: int = 1,
) -> EnumerationResult:
    """Classify every multilinear coefficient table in a box.

    Walks all tables with entries in [-bound, bound] (both components over
    Z[i]), keeps the associative ones, classifies each, and tallies a census
    by (family, exact parameters).  ``cross_check`` additionally compares
    every individually-checked candidate against the pointwise grid oracle
    and records any disagreement; it requires ``prune=False`` so that every
    candidate is actually visited.  ``jobs`` splits the box into that many
    chunks, at most one per value of the top coefficient, mapped over at
    most ``os.cpu_count()`` worker processes.
    """
    if n < 2:
        raise ValueError("arity must be at least 2")
    if ring is Ring.Q:
        raise ValueError("enumeration over Q is unsupported (boxes are infinite up to reduction)")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if cross_check and prune:
        raise ValueError("cross_check requires prune=False (every candidate must be visited)")
    side = 2 * bound + 1
    d, slots = (side * side if ring is Ring.ZI else side), 1 << n
    # d ** slots has at least (bit_length(d) - 1) * slots bits.  Past both
    # the budget's bit length and 4 * MAX_COUNT_DIGITS it is surely over
    # budget and too long to print, so it is not built.
    if (d.bit_length() - 1) * slots < max(budget.bit_length(), 4 * MAX_COUNT_DIGITS):
        total = d**slots
    else:
        total = None
    if total is None or total > budget:
        required = total if total is not None and total < 10**MAX_COUNT_DIGITS else None
        shown = f"{d}^{slots}" if required is None else required
        raise BudgetError(
            f"box holds {shown} candidate tables; pass budget={shown} or more "
            f"(configured budget {budget})",
            required,
        )
    if slots > budget:
        raise BudgetError(
            f"a table holds {slots} coefficients; pass budget={slots} or more "
            f"(configured budget {budget})",
            slots,
        )
    domain = _value_domain(ring, bound)
    chunks = _split(domain, max(1, jobs))
    args = [(ring, n, bound, chunk, prune, cross_check) for chunk in chunks]
    if len(args) > 1:
        from multiprocessing import Pool

        with Pool(min(len(args), os.cpu_count() or 1)) as pool:
            parts = pool.map(_enumerate_chunk, args)
    else:
        parts = [_enumerate_chunk(a) for a in args]
    checked = sum(part[0] for part in parts)
    bulk = sum(part[1] for part in parts)

    def table_key(ml: MultilinearPoly) -> list:
        return [_value_key(ml.coeff(m)) for m in range(1 << n)]

    found = sorted((ml for part in parts for ml in part[2]), key=table_key)
    mismatches = sorted((ml for part in parts for ml in part[3]), key=table_key)
    survivors = [(ml, classify_associative(ml)) for ml in found]
    census = _build_census(survivors, ring)
    return EnumerationResult(
        ring=ring,
        n=n,
        bound=bound,
        total=total,
        checked=checked,
        bulk_rejected=bulk,
        survivors=survivors,
        census=census,
        oracle_mismatches=len(mismatches),
        mismatch_examples=mismatches[:10],
    )


def _split(domain: list, parts: int) -> list[list]:
    """Consecutive slices of the domain, at most one per element."""
    parts = min(parts, len(domain))
    step, extra = divmod(len(domain), parts)
    out = []
    start = 0
    for k in range(parts):
        size = step + (1 if k < extra else 0)
        out.append(domain[start : start + size])
        start += size
    return out


def _build_census(survivors, ring: Ring) -> list[CensusRow]:
    groups: dict[tuple, list] = {}
    for _, cls in survivors:
        params = " ".join(f"{k}={v}" for k, v in classification_params(cls, ring).items())
        groups.setdefault((param_sort_key(cls), cls.type_tag, params), []).append(cls)
    rows = []
    for (_, type_tag, params), members in sorted(groups.items()):
        rows.append(CensusRow(type_tag, params, len(members)))
    return rows


def census_csv(result: EnumerationResult) -> str:
    """Deterministic CSV: one row per (family, exact parameters)."""
    lines = ["type,params,count"]
    for row in result.census:
        lines.append(f"{row.type_tag},{row.params},{row.count}")
    return "\n".join(lines) + "\n"


def candidates_text(result: EnumerationResult) -> str:
    """Canonical polynomial strings of all associative candidates, one per line."""
    return "".join(ml.render() + "\n" for ml, _ in result.survivors)
