"""Implementation-independent verification and exhaustive search.

The pointwise checks avoid the closed-form composition machinery: multilinear
associativity is checked exactly at the 0/1 points that can carry a
monomial, a family of points at a time, each composition affine in one
subset sum of p's coefficients there, and probabilistically by evaluating
the compositions at random samples; other input, never associative, is
checked by its per-variable degrees.
The enumerator walks entire boxes of multilinear coefficient tables, one
value list at a time with c_0's last, checks each slot composition equation
once its coefficients are set, so a failure settles a whole sub-box, and
solves each list's value from one equation linear in it, so only one value
is tried where its coefficient A is nonzero (one root at most, R being an
integral domain).  It confirms each table that passes every equation by
``assoc.associative_multilinear``'s decision, from the table's n closed-form
slot compositions, which it keeps, and classifies the tables into a census.

Random sampling uses xorshift64*: the 64-bit state evolves by
``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and the output is
``x * 2685821657736338717 mod 2**64``; integers in a range are drawn by
rejection so the distribution is exactly uniform.  Identical seeds give
identical samples everywhere.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from itertools import count
from math import prod

# associative_multilinear: the walk's decision, bound here for its readers
from .assoc import _closed_forms_verdict, _pulled_masks, associative_multilinear
from .classify import Classification, classification_params, classify_associative, param_sort_key
from .errors import BudgetError, InternalInvariantError
from .poly import MultilinearPoly, SparsePoly, _Value
from .rings import Ring

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717

# Marsaglia's xorshift64 example seed; any nonzero state works.
DEFAULT_SEED = 88172645463325252

GRID_GUARD = 1 << 20
DEFAULT_BUDGET = 1 << 24
ERROR_BITS = 64  # a sampled check passes a false identity with probability <= 2^-64
SAMPLE_HALF_WIDTH = (1 << 63) - 1  # the widest that XorShift64Star.randints accepts


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

    def randints(self, lo: int, hi: int, count: int) -> list[int]:
        """``count`` uniform integers in [lo, hi], exact via rejection sampling."""
        if lo > hi:
            raise ValueError("empty range")
        span = hi - lo + 1
        if span > 1 << 64:
            raise ValueError("range holds more than 2^64 values")
        limit = (1 << 64) - ((1 << 64) % span)
        next_u64 = self.next_u64
        draws = []
        while len(draws) < count:
            u = next_u64()
            if u < limit:
                draws.append(lo + u % span)
        return draws

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]: ``randints`` with a count of one."""
        return self.randints(lo, hi, 1)[0]

    def elements(self, ring: Ring, half_width: int, count: int) -> list:
        """``count`` ring elements with integer coordinates in [-half_width,
        half_width], drawn coordinate by coordinate (``Ring.draw``)."""
        return ring.draw(self.randints, half_width, count)

    def element(self, ring: Ring, half_width: int):
        """One ring element: ``elements`` with a count of one."""
        return self.elements(ring, half_width, 1)[0]


class OracleConfig(_Value):
    __slots__ = ("mode", "seed")

    def __init__(self, mode: str = "grid", seed: int = DEFAULT_SEED):
        """``mode`` is "grid" (exact) or "random" (probabilistic)."""
        if mode not in ("grid", "random"):
            raise ValueError(f"unknown oracle mode {mode!r}")
        _Value.__init__(self, mode, seed)


def _samples_agree(ring: Ring, degree: int, width: int, values, seed: int) -> bool:
    """Whether the list ``values(point)`` is all equal at each of k seeded points.

    A nonzero difference of total degree <= ``degree`` vanishes at a uniform
    point of S^width with probability at most degree/|S| (Schwartz 1980;
    Zippel 1979); k is the least count with (degree/|S|)^k <= 2^-ERROR_BITS.
    The points are drawn once per key (``_sample_points``); each reaches
    ``values`` as a fresh list, and the check stops at the first point
    whose values differ.
    """
    points = _sample_points(ring, degree, width, seed)
    return all(len(set(values(list(point)))) == 1 for point in points)


# Keys are few: one `enumerate` call spot-checks every survivor with one
# seed, at three degrees, and sampled mediality uses one key per (deg(p), n).
# 16 keeps a mixed run's keys while holding at most 16 sets of <= 64 points.
@lru_cache(maxsize=16)
def _sample_points(ring: Ring, degree: int, width: int, seed: int) -> tuple[tuple, ...]:
    """The k points of ``_samples_agree``: a prefix of the seeded stream.

    S is ``ring.box(SAMPLE_HALF_WIDTH)``, of 2^64 - 1 elements over Z and Q
    and (2^64 - 1)^2 over Z[i], so k <= 2 over Z and Q below degree 2^32 and
    k = 1 over Z[i] below degree 2^64 - 1.  A degree with |S| <= 2*degree
    raises BudgetError before any draw; below it, k <= 64.
    """
    size = ring.box_size(SAMPLE_HALF_WIDTH)
    if size <= 2 * degree:
        raise BudgetError(
            f"a sampled check of degree {degree} needs more than {size} sample values", None
        )
    k = next(k for k in count(1) if size**k >= degree**k << ERROR_BITS)
    rng = XorShift64Star(seed)
    return tuple(tuple(rng.elements(ring, SAMPLE_HALF_WIDTH, width)) for _ in range(k))


def associated_value(p: SparsePoly, slot: int, point):
    """Evaluate the slot composition of p at a point in 2n-1 coordinates."""
    n = p.nvars
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range 1..{n}")
    if len(point) != 2 * n - 1:
        raise ValueError(f"expected {2 * n - 1} coordinates")
    return p.ring.element(_compositions(p, [slot - 1])(point)[0])


def _compositions(p: SparsePoly, slots):
    """A point in 2n-1 coordinates -> the native values of p's compositions at
    the 0-based ``slots``: one conversion per point, no ring element built."""
    kernel, plan = p.plan()
    natives, n = p.ring.natives, p.nvars

    def values(point):
        xs = natives(point)
        return [kernel(plan, xs[:s] + [kernel(plan, xs[s:s + n])] + xs[s + n:]) for s in slots]

    return values


def _composition_degrees(degrees: list[int], slot: int) -> list[int]:
    """The slot composition's degree in each of x1..x_(2n-1), from p's
    ``degrees`` d_1..d_n: d_j before the nested window, d_s * d_(j-s+1) in it
    and d_(j-n+1) past it, exact over an integral domain.

    Equal vectors at all n slots force every d_j <= 1: slots s and s+1 agree
    at x_s and x_(s+n) only if d_s(d_1 - 1) = 0 = d_(s+1)(d_n - 1), so d_1,
    d_n <= 1, and d_1 = 0 zeroes d_1..d_(n-1); with d_1 = 1, agreement at
    x_(s+1) gives d_(s+1) = d_s * d_2, so d_n = d_2^(n-1) bounds d_2.
    """
    window = [degrees[slot - 1] * d for d in degrees]
    return degrees[: slot - 1] + window + degrees[slot:]


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


class _SubsetSums(dict):
    """p(1_S) = the sum of c_T over T within S, by mask S, each computed on
    first read and kept (Yates 1937; Bjorklund, Husfeldt, Kaski and Koivisto
    2007).  The coefficients are scaled once to integers over their common
    denominator ``den`` (``Ring.scaled``), so each entry is den * p(1_S);
    ``den`` is 1 outside Q.  Each sum starts from zero in the scaled coefficients' type."""

    def __init__(self, p: MultilinearPoly):
        super().__init__()
        self.den, (zero, *scaled) = p.ring.scaled([p.ring.zero, *p.coeffs.values()])
        self.terms = zero, list(zip(p.coeffs, scaled))

    def __missing__(self, mask: int):
        value = self[mask] = _subset_sum(self.terms, mask)
        return value


def _subset_sum(terms: tuple, mask: int):
    """Zero plus the coefficients whose masks lie within ``mask``, for ``terms`` = (zero, pairs)."""
    zero, pairs = terms
    return sum((c for t, c in pairs if t & mask == t), zero)


def _families(masks: list[int], lo: int, hi: int, ends: tuple) -> dict[int, int]:
    """Equation s's families by n-bit key k (slot s+1's outer variables, a = x_s
    at ``lo``, b = x_(s+n) at ``hi``) with their source kinds: 1 (2) for a term t
    with x_s (x_(s+1)), at each a (b) in ``ends``; 4 for t lacking one, at k = t."""
    a0, a1, b0, b1 = 0 in ends[0], 1 in ends[0], 0 in ends[1], 1 in ends[1]
    families: dict[int, int] = {}
    get = families.get
    for t in masks:
        if t & lo:
            if a0:
                families[t ^ lo] = get(t ^ lo, 0) | 1
            if a1:
                families[t] = get(t, 0) | 1
        if t & hi:
            if b0:
                families[t ^ hi] = get(t ^ hi, 0) | 2
            if b1:
                families[t] = get(t, 0) | 2
        if ~t & (lo | hi):
            families[t] = get(t, 0) | 4
    return families


def _window_parts(masks: list[int], n: int, key: int) -> set[int]:
    """The parts C = x_(s+1)..x_(s+n-1) a family of ``key`` = a | b << 1 | kinds << 2
    is checked at: w >> 1 for terms w & 1 = a, w mod 2^(n-1) for w >> (n-1) = b, 0."""
    a, b, kinds = key & 1, key >> 1 & 1, key >> 2
    parts = {0} if kinds & 4 else set()
    if kinds & 1:
        parts.update(w >> 1 for w in masks if w & 1 == a)
    if kinds & 2:
        parts.update(w & ((1 << (n - 1)) - 1) for w in masks if w >> (n - 1) == b)
    return parts


def _relation(sums: _SubsetSums, n: int, key: int, parts: set[int]) -> tuple:
    """(u(C0), v(C0), pivot) on the ``parts`` of a family of ``key``, u(C) = S(a | C << 1),
    v(C) = S(C | b << (n-1)), U = u - u(C0), V = v - v(C0): pivot is None when (U, V)
    vanishes there, the first nonzero (U, V) when U and V are proportional, else False."""
    a, top = key & 1, (key >> 1 & 1) << (n - 1)
    c0, *rest = parts
    u0, v0, pivot = sums[a | c0 << 1], sums[c0 | top], None
    for c in rest:
        du, dv = sums[a | c << 1] - u0, sums[c | top] - v0
        if pivot is None:
            pivot = (du, dv) if du or dv else None
        elif du * pivot[1] != dv * pivot[0]:
            return u0, v0, False
    return u0, v0, pivot


def _assoc_on_support(p: MultilinearPoly) -> bool:
    """The n-1 equations of multilinear p, each checked once per family of its
    candidate 0/1 points (``assoc_pointwise``)."""
    n, m, masks = p.nvars, 2 * p.nvars - 1, list(p.coeffs)
    bounds = [_slot_bound(masks, s) for s in range(1, n + 1)]
    _check_grid_guard(sum(min(1 << m, a + b) for a, b in zip(bounds, bounds[1:])))
    sums = _SubsetSums(p)
    ends = {w & 1 for w in masks}, {w >> (n - 1) for w in masks}  # the a's and b's of terms
    relations: dict[int, tuple] = {}  # by key, shared by all equations
    for s in range(1, n):
        lo, hi = 1 << (s - 1), 1 << s
        for k, kinds in _families(masks, lo, hi, ends).items():
            key = k >> (s - 1) & 3 | kinds << 2
            relation = relations.get(key)
            if relation is None:
                relation = relations[key] = _relation(sums, n, key, _window_parts(masks, n, key))
            if not _family_holds(sums, lo, hi, k, relation):
                return False
    return True


def _family_holds(sums: _SubsetSums, lo: int, hi: int, k: int, relation: tuple) -> bool:
    """Whether equation s (x_s at ``lo``, x_(s+1) at ``hi``) holds on all of family k:
    alpha + beta*u(C0) = gamma + delta*v(C0), and beta*U = delta*V as ``relation`` says."""
    u0, v0, pivot = relation
    alpha, gamma = sums[k & ~lo], sums[k & ~hi]
    beta, delta = sums[k | lo] - alpha, sums[k | hi] - gamma
    if sums.den != 1:
        alpha, gamma = sums.den * alpha, sums.den * gamma
    if beta and u0:  # sparse input leaves many zeros; skip their products
        alpha += beta * u0
    if delta and v0:
        gamma += delta * v0
    if alpha != gamma or pivot is None:
        return alpha == gamma
    return not (beta or delta) if pivot is False else beta * pivot[0] == delta * pivot[1]


def assoc_pointwise(p: SparsePoly, cfg: OracleConfig) -> bool:
    """Check the n-1 associativity equations at grid or sampled points.

    Input with a squared variable is never associative: in either mode the
    answer is whether all adjacent slots have equal ``_composition_degrees``,
    which they never have.  This reads only ``degree_in_var``.  Grid mode
    keeps its guard: equation i raises ``BudgetError`` when the grid one
    past each variable's degree in either composition would pass it.

    Grid mode is exact.  For multilinear p, equation s (slot s against slot
    s+1) need only hold at the 0/1 indicator points of the masks that either
    composition can hold by substitution: at the point 1_S of an
    inclusion-minimal monomial S of a nonzero difference D of the two, every
    other monomial of D vanishes, so D(1_S) = coef(S) != 0 (the
    minimal-monomial argument; Klivans and Spielman 2001).  The guard bounds
    these candidates over all n-1 equations, from the term counts, before
    any subset sum is read: t masks per term with x_s and one per other
    term, at most 2^(2n-1) per equation.  They are checked by family
    (``_families``), the points that agree outside C = x_(s+1)..x_(s+n-1).
    With S(T) = den * p(1_T), a subset sum of p's scaled coefficients, and
    p = A + x_s B, den^2 times the two sides there are alpha + beta * u(C)
    and gamma + delta * v(C), where u(C) = S(a | C << 1) and v(C) = S(C | b
    << (n-1)) depend on the family's bits a = x_s and b = x_(s+n) alone.
    Over an integral domain that holds at every C of the family iff it holds
    at one C0 and beta * U = delta * V, for U = u - u(C0), V = v - v(C0):
    one product comparison at a C1 where (U, V) != 0 when U and V are
    proportional on the family's C's, else beta = delta = 0 (``_relation``).
    No composition is evaluated; a dense table costs (n-1) * 2^n family checks.

    Random mode compares the n slot compositions of multilinear p, in native
    values (``_compositions``), at seeded points (``_samples_agree``).  Their
    differences have degree at most 2*deg(p) - 1, since the slot variable
    has degree one.
    """
    n = p.nvars
    if n < 2:
        raise ValueError("arity must be at least 2")
    ml = p.to_multilinear()
    if ml is None:
        degrees = [p.degree_in_var(j) for j in range(1, n + 1)]
        vectors = [_composition_degrees(degrees, s) for s in range(1, n + 1)]
        for lo, hi in zip(vectors, vectors[1:]):
            if cfg.mode == "grid":
                _check_grid_guard(prod(max(a, b) + 1 for a, b in zip(lo, hi)))
            if lo != hi:
                return False
        return True
    if cfg.mode == "grid":
        return _assoc_on_support(ml)
    d = max(2 * p.degree() - 1, 0)
    return _samples_agree(p.ring, d, 2 * n - 1, _compositions(ml, range(n)), cfg.seed)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of multilinear coefficient tables


class CensusRow(_Value):
    __slots__ = ("type_tag", "params", "count")

    def __init__(self, type_tag: str, params: str, count: int):
        _Value.__init__(self, type_tag, params, count)


class EnumerationResult(_Value):
    """``total``: the nominal size of the coefficient box; ``checked``: the
    tables the walk settles, those a failed equation settles unbuilt included;
    ``bulk_rejected``: candidates removed wholesale by pruning filters;
    ``compositions``: by survivor, its closed-form compositions at slots
    1..n, built by the walk."""

    __slots__ = ("ring", "n", "bound", "total", "checked", "bulk_rejected", "survivors",
                 "compositions", "census")

    def __init__(self, ring: Ring, n: int, bound: int, total: int, checked: int,
                 bulk_rejected: int, survivors: list[tuple[MultilinearPoly, Classification]],
                 compositions: list[tuple[MultilinearPoly, ...]], census: list[CensusRow]):
        _Value.__init__(self, ring, n, bound, total, checked, bulk_rejected, survivors,
                        compositions, census)


def _equations(n: int, lists: list) -> list[list[tuple]]:
    """The equations "slot s = slot s+1 at M" (s < n, M over 2n-1 variables)
    by the deepest of ``lists`` they read, as list indices (a, b, c, d, e, f)
    for c_a + c_b*c_c = c_d + c_e*c_f (``assoc._pulled_masks``; a = -1: no c_O).
    Those with equal sides (by commutativity, or one list sets both masks) go."""
    where = {m: j for j, (masks, _) in enumerate(lists) for m in masks}
    sides = []  # per slot, each mask's side (a, b, c), b <= c
    for t in range(1, n + 1):
        row = []
        for mask in range(1 << (2 * n - 1)):
            outer, nested, window = _pulled_masks(n, t, mask)
            b, c = where[nested], where[window]
            row.append((-1 if window else where[outer], *((b, c) if b <= c else (c, b))))
        sides.append(row)
    by_list: list[dict] = [{} for _ in lists]
    for lo, hi in zip(sides, sides[1:]):
        for lhs, rhs in zip(lo, hi):
            if lhs != rhs:
                eq = lhs + rhs if lhs < rhs else rhs + lhs
                by_list[max(eq)][eq] = None
    return [list(equations) for equations in by_list]


def _solver(j: int, equations: list[tuple]):
    """List j's solving equation, or None, and the rest of ``equations``.

    An equation c_a + c_b*c_c = c_d + c_e*c_f in which x, list j's value,
    never multiplies itself reads A*x + B = 0, with A and B set by earlier
    lists.  It is returned as slot indices (p, q, r, u, a, b, c, d, e, f):
    A = s[p] + s[q] - s[r] - s[u] and B = s[a] + s[b]*s[c] - s[d] - s[e]*s[f],
    where s[-2] is one and s[-1] zero.  The last such equation whose A is
    not zero by its form is taken: unpruned, that more than halves the nodes
    the walk visits over Z[i] at n = 2, bound 1, and cuts them by a seventh
    over Z at n = 6, bound 1, against the first.
    """
    for eq in reversed(equations):
        a, b, c, d, e, f = eq
        if b == c == j or e == f == j:
            continue
        p, r = -2 if a == j else -1, -2 if d == j else -1
        q, u = b if c == j else -1, e if f == j else -1
        if p != r or q != u:
            break
    else:
        return None, equations
    solver = (
        p, q, r, u, -1 if a == j else a, *((-1, -1) if c == j else (b, c)),
        -1 if d == j else d, *((-1, -1) if f == j else (e, f)),
    )
    return solver, [other for other in equations if other is not eq]


def _enumerate_chunk(args) -> tuple[int, int, list[tuple]]:
    """Walk one slice of the coefficient box (split on the top coefficient).

    The slice is the product of value lists, each setting the masks it is
    paired with: the top's, then one per mask, or, pruned with a nonzero
    top, one per subset size (the coefficients are then size-uniform).
    Pruning also shortens the lists: a zero top forces degree <= 1 and
    idempotent first/last linear coefficients.  Every table left out is
    rejected wholesale.  c_0's list comes last: c_0 only ever multiplies
    some c_(O | {s}), never itself, so every equation that reads it is
    linear in it.  Each list structure is walked depth first.  On entering
    list j, its solving equation (``_solver``) is read as A*x + B = 0 from
    the lists already set.  R is an integral domain, so A != 0 leaves one
    possible value, -B/A (``Ring.exact_div``), and A = 0 leaves all values
    or none; the values left out are settled at once.  Value v then goes to
    slot j, where the other ``_equations`` list j completes are checked,
    and a failure settles every table of the later lists at once.  A leaf
    passes them all; it is built, confirmed from its n closed-form slot
    compositions (``assoc._closed_forms_verdict``) and kept with them.
    Returns (checked, bulk_rejected, survivors), each survivor a (table,
    compositions) pair and ``checked`` counting the tables of both kinds.
    """
    ring, n, bound, first_values, prune = args
    domain, zero = ring.box(bound), ring.zero
    idempotents = [v for v in domain if v * v == v]
    top_mask = (1 << n) - 1
    checked = 0
    survivors: list[MultilinearPoly] = []
    tops_by_kind: dict[bool, list] = {}  # keyed by "pruned and nonzero"
    for top in first_values:
        tops_by_kind.setdefault(bool(prune and top), []).append(top)
    for grouped, tops in tops_by_kind.items():
        lists = [([top_mask], tops)]
        if grouped:
            lists += [([m for m in range(top_mask) if m.bit_count() == k], domain)
                      for k in range(1, n)] + [([0], domain)]
        else:
            for mask in range(1, top_mask):
                size = mask.bit_count()
                kept = not prune or (size == 1 and mask not in (1, 1 << (n - 1)))
                lists.append(([mask], domain if kept else idempotents if size == 1 else [zero]))
            lists.append(([0], domain))
        values = [vs for _, vs in lists]
        solvers, equations = zip(*map(_solver, count(), _equations(n, lists)))
        value_sets = [set(vs) for vs in values]
        later = [prod(map(len, values[j + 1 :])) for j in range(len(values))]
        slot = [zero] * len(values) + [ring.one, zero]  # slot[-2] one, slot[-1] zero
        j, pos, trying = 0, [-1] * len(values), list(values)
        while j >= 0:
            pos[j] += 1
            if not pos[j] and solvers[j]:
                p, q, r, u, a, b, c, d, e, f = solvers[j]
                lead = slot[p] + slot[q] - slot[r] - slot[u]
                rest = slot[a] + slot[b] * slot[c] - slot[d] - slot[e] * slot[f]
                if lead:
                    x = ring.exact_div(-rest, lead)
                    trying[j] = [x] if x in value_sets[j] else []
                else:
                    trying[j] = [] if rest else values[j]
                checked += (len(values[j]) - len(trying[j])) * later[j]
            if pos[j] == len(trying[j]):
                pos[j], j = -1, j - 1
                continue
            slot[j] = trying[j][pos[j]]
            for a, b, c, d, e, f in equations[j]:
                if slot[a] + slot[b] * slot[c] != slot[d] + slot[e] * slot[f]:
                    checked += later[j]
                    break
            else:
                if j + 1 < len(values):
                    j += 1
                    continue
                checked += 1
                table = {m: v for (masks, _), v in zip(lists, slot) if v for m in masks}
                ml = MultilinearPoly._trusted(ring, n, table)
                verdict, forms = _closed_forms_verdict(ml)
                if not verdict.associative:
                    message = f"census walk keeps {ml.render()}, which the decision rejects"
                    raise InternalInvariantError(message)
                survivors.append((ml, forms))
    return checked, len(first_values) * len(domain) ** top_mask - checked, survivors


def enumerate_associative(
    n: int,
    ring: Ring,
    bound: int,
    *,
    budget: int = DEFAULT_BUDGET,
    prune: bool = False,
    jobs: int = 1,
) -> EnumerationResult:
    """Classify every multilinear coefficient table in a box.

    Walks all tables with entries in [-bound, bound] (both components over
    Z[i]), keeps the associative ones, classifies each, and tallies a census
    by (family, exact parameters).  ``jobs`` splits the box into that many
    chunks, at most one per value of the top coefficient, mapped over at
    most ``os.cpu_count()`` worker processes.
    """
    if n < 2:
        raise ValueError("arity must be at least 2")
    if ring.is_field:
        raise ValueError(
            f"enumeration over {ring.label} is unsupported (boxes are infinite up to reduction)"
        )
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    d, slots = ring.box_size(bound), 1 << n
    # Counts are printed up to the live int-to-str limit, or Python's
    # default one when the live setting is 0 (no limit).
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    # d ** slots has at least (bit_length(d) - 1) * slots bits.  Past both
    # the budget's bit length and 4 * limit it is surely over budget and
    # (16^limit > 10^limit) too long to print, so it is not built.
    if (d.bit_length() - 1) * slots < max(budget.bit_length(), 4 * limit):
        total = d**slots
    else:
        total = None
    if total is None or total > budget:
        required = total if total is not None and total < 10**limit else None
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
    if d == 1:
        # The box is the zero table alone, the constant 0: decided here, not
        # walked as 2^n one-value lists and sorted by a 2^n-entry key.
        zero = MultilinearPoly(ring, n)
        checked, bulk, found = 1, 0, [(zero, _closed_forms_verdict(zero)[1])]
    else:
        chunks = _split(ring.box(bound), max(1, jobs))
        args = [(ring, n, bound, chunk, prune) for chunk in chunks]
        if len(args) > 1:
            from multiprocessing import Pool

            with Pool(min(len(args), os.cpu_count() or 1)) as pool:
                parts = pool.map(_enumerate_chunk, args)
        else:
            parts = [_enumerate_chunk(a) for a in args]
        checked = sum(part[0] for part in parts)
        bulk = sum(part[1] for part in parts)

        def table_key(leaf: tuple) -> list:
            return [ring.coords(leaf[0].coeff(m)) for m in range(1 << n)]

        found = sorted((leaf for part in parts for leaf in part[2]), key=table_key)
    survivors = [(ml, classify_associative(ml)) for ml, _ in found]
    census = _build_census(survivors, ring)
    return EnumerationResult(
        ring=ring,
        n=n,
        bound=bound,
        total=total,
        checked=checked,
        bulk_rejected=bulk,
        survivors=survivors,
        compositions=[forms for _, forms in found],
        census=census,
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
        groups.setdefault((param_sort_key(cls, ring), cls.type_tag, params), []).append(cls)
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
