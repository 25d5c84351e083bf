"""Implementation-independent verification and exhaustive search.

The pointwise checks avoid the closed-form composition machinery: multilinear
associativity is checked at points, exactly at the 0/1 points that can carry
a monomial, where each slot composition is read off subset sums of p's
coefficients and no composition is evaluated, and probabilistically by
evaluating the compositions at random samples; other input, never
associative, is checked by its per-variable degrees.
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
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import prod

# associative_multilinear: the walk's decision, bound here for its readers
from .assoc import _closed_forms_verdict, _pulled_masks, associative_multilinear
from .classify import Classification, classification_params, classify_associative, param_sort_key
from .errors import BudgetError, InternalInvariantError
from .poly import MultilinearPoly, SparsePoly
from .rings import Ring

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 2685821657736338717

# Marsaglia's xorshift64 example seed; any nonzero state works.
DEFAULT_SEED = 88172645463325252

GRID_GUARD = 1 << 20
DEFAULT_BUDGET = 1 << 24
ERROR_BITS = 64  # a sampled check passes a false identity with probability <= 2^-64
SAMPLE_HALF_WIDTH = 100


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


@dataclass(frozen=True)
class OracleConfig:
    mode: str = "grid"  # "grid" (exact) or "random" (probabilistic)
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.mode not in ("grid", "random"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")


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
# 16 keeps a mixed run's keys while holding at most 16 sets of <= 65 points.
@lru_cache(maxsize=16)
def _sample_points(ring: Ring, degree: int, width: int, seed: int) -> tuple[tuple, ...]:
    """The k points of ``_samples_agree``, in the order the seeded stream gives them.

    S is ``ring.box(h)``, of ``ring.box_size(h)`` elements.  h =
    SAMPLE_HALF_WIDTH while |S| > 2*degree, so the points are a prefix of the
    seeded stream there; else h = degree, after one uncounted point at
    SAMPLE_HALF_WIDTH.  Only the medial identity of ``structure.is_medial``
    reaches the widened case, at deg(p) >= 11 over Z and Q; the slot
    compositions of multilinear p would need n > 50.  Either way k <= 64,
    as |S| > 2*degree.
    """
    h, uncounted = SAMPLE_HALF_WIDTH, []
    if ring.box_size(h) <= 2 * degree:
        h, uncounted = degree, [h]
    k = next(k for k in count(1) if ring.box_size(h) ** k >= degree**k << ERROR_BITS)
    rng = XorShift64Star(seed)
    return tuple(tuple(rng.elements(ring, hw, width)) for hw in uncounted + [h] * k)


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


class _SubsetSums(dict):
    """p(1_S) = the sum of c_T over T within S, by mask S, each computed on
    first read and kept (Yates 1937; Bjorklund, Husfeldt, Kaski and Koivisto
    2007).  The coefficients are scaled once to integers over their common
    denominator ``den`` (``Ring.scaled``), so each entry is den * p(1_S);
    ``den`` is 1 outside Q."""

    def __init__(self, p: MultilinearPoly):
        super().__init__()
        self.den, scaled = p.ring.scaled(p.coeffs.values())
        self.terms = list(zip(p.coeffs, scaled))

    def __missing__(self, mask: int):
        value = self[mask] = _subset_sum(self.terms, mask)
        return value


def _subset_sum(terms: list, mask: int):
    """The sum of the coefficients of ``terms`` whose masks lie within ``mask``."""
    return sum(c for t, c in terms if t & mask == t)


def _slot_value(sums: _SubsetSums, n: int, slot: int, mask: int):
    """den^2 times slot ``slot``'s composition at the indicator point of
    ``mask`` over 2n-1 variables.

    With W the window's bits and O the outer bits, x_slot's cleared, split
    p = A + x_slot*B, so A(1_O) = p(1_O) and B(1_O) = p(1_(O+slot)) - p(1_O);
    the composition is A(1_O) + p(1_W) * B(1_O), three table reads.
    """
    bit = 1 << (slot - 1)
    window = (mask >> (slot - 1)) & ((1 << n) - 1)
    outer = (mask & (bit - 1)) | ((mask >> (slot + n - 1)) << slot)
    a = sums[outer]
    return sums.den * a + sums[window] * (sums[outer | bit] - a)


def _assoc_on_support(p: MultilinearPoly) -> bool:
    """The n-1 equations of multilinear p, each at its candidate 0/1 points."""
    n, m, masks = p.nvars, 2 * p.nvars - 1, list(p.coeffs)
    bounds = [_slot_bound(masks, s) for s in range(1, n + 1)]
    _check_grid_guard(sum(min(1 << m, a + b) for a, b in zip(bounds, bounds[1:])))
    sums = _SubsetSums(p)
    lhs = _slot_candidates(masks, n, 1)
    known: dict[int, object] = {}  # slot i's values by mask, from equation i-1
    for i in range(1, n):
        rhs = _slot_candidates(masks, n, i + 1)
        values: dict[int, object] = {}
        for mask in lhs | rhs:
            left = known.get(mask)
            if left is None:
                left = _slot_value(sums, n, i, mask)
            right = values[mask] = _slot_value(sums, n, i + 1, mask)
            if left != right:
                return False
        lhs, known = rhs, values
    return True


def assoc_pointwise(p: SparsePoly, cfg: OracleConfig) -> bool:
    """Check the n-1 associativity equations at grid or sampled points.

    Input with a squared variable is never associative: in either mode the
    answer is whether all adjacent slots have equal ``_composition_degrees``,
    which they never have.  This reads only ``degree_in_var``.  Grid mode
    keeps its guard: equation i raises ``BudgetError`` when the grid one
    past each variable's degree in either composition would pass it.

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
    equation at most its 2^(2n-1)-point grid.  No composition is
    evaluated: each slot's value at a point is read off the subset sums of
    p's coefficients (``_slot_value``), in integers scaled by den^2 over Q.

    Random mode compares the n slot compositions of multilinear p at seeded
    points (``_samples_agree``).  Their differences have degree at most
    2*deg(p) - 1, since the slot variable has degree one.
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

    def compositions(point):
        return [associated_value(p, i, point) for i in range(1, n + 1)]

    return _samples_agree(p.ring, d, 2 * n - 1, compositions, cfg.seed)


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
    checked: int  # tables the walk settles, those a failed equation settles unbuilt included
    bulk_rejected: int  # candidates removed wholesale by pruning filters
    survivors: list[tuple[MultilinearPoly, Classification]]
    # by survivor, its closed-form compositions at slots 1..n, built by the walk
    compositions: list[tuple[MultilinearPoly, ...]]
    census: list[CensusRow]


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
