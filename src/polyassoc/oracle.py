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


class BudgetError(ValueError):
    """A grid or enumeration would exceed its configured budget."""

    def __init__(self, message: str, required: int):
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
        """A ring element with integer coordinates in [-half_width, half_width]."""
        if ring is Ring.ZI:
            return GaussianInt(
                self.randint(-half_width, half_width),
                self.randint(-half_width, half_width),
            )
        return ring.coerce(self.randint(-half_width, half_width))


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


def polys_equal_oracle(p: SparsePoly, q: SparsePoly, cfg: OracleConfig) -> bool:
    """Pointwise equality check, independent of any symbolic normal form.

    Grid mode is conclusive: the grid extends one past the per-variable
    degree in each variable, and a polynomial over an integral domain
    vanishing on such a grid is zero.  Random mode only samples.
    """
    if p.ring is not q.ring or p.nvars != q.nvars:
        raise ValueError("polynomials must share ring and arity")
    if cfg.mode == "grid":
        sides = [
            max(p.degree_in_var(j), q.degree_in_var(j)) + 1
            for j in range(1, p.nvars + 1)
        ]
        _check_grid_guard(prod(sides))
        for point in product(*(range(s) for s in sides)):
            if p.evaluate(point) != q.evaluate(point):
                return False
        return True
    rng = XorShift64Star(cfg.seed)
    for _ in range(cfg.samples):
        point = [rng.element(p.ring, cfg.value_range) for _ in range(p.nvars)]
        if p.evaluate(point) != q.evaluate(point):
            return False
    return True


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
    for i in range(1, n):
        rhs = _slot_candidates(masks, n, i + 1)
        for mask in lhs | rhs:
            point = [(mask >> j) & 1 for j in range(m)]
            if associated_value(p, i, point) != associated_value(p, i + 1, point):
                return False
        lhs = rhs
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

    Masks are assigned from the full subset downward so the pruning filters
    (degree collapse when the top coefficient is zero, size-uniformity when
    it is not, and idempotence of the first/last linear coefficients) can
    cut whole subtrees.  Returns (checked, bulk_rejected, survivors, oracle
    mismatches).
    """
    ring, n, bound, first_values, prune, cross_check = args
    domain = _value_domain(ring, bound)
    order = sorted(range(1 << n), key=lambda m: (-m.bit_count(), -m))
    first_of_size = {}
    for idx, mask in enumerate(order):
        first_of_size.setdefault(mask.bit_count(), idx)
    domain_size = len(domain)
    zero = ring.zero
    full_mask = (1 << n) - 1
    x1_mask, xn_mask = 1, 1 << (n - 1)
    checked = 0
    bulk = 0
    survivors: list[MultilinearPoly] = []
    mismatches: list[MultilinearPoly] = []
    assignment: list = [None] * len(order)

    def leaf():
        nonlocal checked
        checked += 1
        coeffs = {m: v for m, v in zip(order, assignment) if v}
        ml = MultilinearPoly(ring, n, coeffs)
        verdict = associative_multilinear(ml)
        if cross_check:
            pointwise = assoc_pointwise(ml.to_sparse(), OracleConfig(mode="grid"))
            if pointwise != verdict.associative:
                mismatches.append(ml)
        if verdict.associative:
            survivors.append(ml)

    def rec(idx: int):
        nonlocal bulk
        if idx == len(order):
            leaf()
            return
        mask = order[idx]
        size = mask.bit_count()
        values = first_values if idx == 0 else domain
        for v in values:
            if prune and idx > 0:
                top = assignment[0]
                if size >= 2 and mask != full_mask and top == zero and v != zero:
                    bulk += domain_size ** (len(order) - idx - 1)
                    continue
                if size >= 1 and top != zero:
                    ref_idx = first_of_size[size]
                    if ref_idx < idx and v != assignment[ref_idx]:
                        bulk += domain_size ** (len(order) - idx - 1)
                        continue
                if top == zero and mask in (x1_mask, xn_mask) and v * v != v:
                    bulk += domain_size ** (len(order) - idx - 1)
                    continue
            assignment[idx] = v
            rec(idx + 1)
        assignment[idx] = None

    rec(0)
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
    domain = _value_domain(ring, bound)
    total = len(domain) ** (1 << n)
    if total > budget:
        raise BudgetError(
            f"box holds {total} candidate tables; pass budget={total} or more "
            f"(configured budget {budget})",
            total,
        )
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
