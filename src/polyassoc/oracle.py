"""Implementation-independent verification.

The pointwise checks avoid the closed-form composition machinery: multilinear
associativity is checked exactly on the 0/1 grid, for a symmetric p from its
n+1 point values and otherwise by families of points keyed by p's terms, each
composition affine in one subset sum of p's coefficients there, and
probabilistically by evaluating the compositions at random samples; other
input, never associative, is checked by its per-variable degrees.
The exhaustive search of coefficient boxes (``enumerate_associative``) lives
in ``census``, imported on its first call.

Random sampling uses xorshift64*: the 64-bit state evolves by
``x ^= x >> 12; x ^= x << 25; x ^= x >> 27`` and the output is
``x * 2685821657736338717 mod 2**64``; integers in a range are drawn by
rejection so the distribution is exactly uniform.  Identical seeds give
identical samples everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from math import prod

# associative_multilinear is unused here: bench and test code read this binding
from .assoc import _slot_bound, associative_multilinear
from .errors import BudgetError
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
        """Uniform integer in [lo, hi] (``randints``, count 1); tests of oracle and assoc call it."""
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


# Keys are few: random mode runs only past the grid guard, with one seed per
# command, and sampled mediality uses one key per (deg(p), n).  16 keeps a
# mixed run's keys while holding at most 16 sets of <= 64 points.
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

    Equal vectors at all n slots force every d_j <= 1, so input with a
    squared variable is never associative (``assoc.is_associative`` relies on
    this): slots s and s+1 agree at x_s and x_(s+n) only if d_s(d_1 - 1) = 0
    = d_(s+1)(d_n - 1), so d_1, d_n <= 1, and d_1 = 0 zeroes d_1..d_(n-1);
    with d_1 = 1, agreement at x_(s+1) gives d_(s+1) = d_s * d_2, so d_n =
    d_2^(n-1) bounds d_2.
    """
    window = [degrees[slot - 1] * d for d in degrees]
    return degrees[: slot - 1] + window + degrees[slot:]


def _check_grid_guard(total: int) -> None:
    if total > GRID_GUARD:
        raise BudgetError(
            f"grid of {total} points exceeds the {GRID_GUARD}-point guard", total
        )


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


def _families(masks: list[int], lo: int, hi: int) -> set[int]:
    """Equation s's families by n-bit key k (slot s+1's outer variables, a = x_s
    at ``lo``, b = x_(s+n) at ``hi``): each term t, t without x_s, t without x_(s+1)."""
    return {k for t in masks for k in (t, t & ~lo, t & ~hi)}


def _window_parts(masks: list[int], n: int) -> set[int]:
    """The parts C = x_(s+1)..x_(s+n-1) every family is checked at: 0, and
    w >> 1 and w mod 2^(n-1) for each term w."""
    low = (1 << (n - 1)) - 1
    return {0, *(w >> 1 for w in masks), *(w & low for w in masks)}


def _relation(sums: _SubsetSums, n: int, key: int, parts: set[int]) -> tuple:
    """(u(C0), v(C0), pivot) on ``parts`` for family bits ``key`` = a | b << 1, u(C) =
    S(a | C << 1), v(C) = S(C | b << (n-1)), U = u - u(C0), V = v - v(C0): pivot is None when
    (U, V) vanishes there, the first nonzero (U, V) when U and V are proportional, else False."""
    a, top = key & 1, key >> 1 << (n - 1)
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
    """The n-1 equations of multilinear p on the 0/1 grid: from p's n+1 point
    values when p is symmetric, else by family (``assoc_pointwise``)."""
    sizes = p._size_coeffs()
    if sizes is None:
        return _assoc_by_families(p)
    den, diffs = p.ring.scaled(sizes + [p.ring.zero] * (p.n + 1 - len(sizes)))
    values = []  # S_j = den * p(1_j), the value at j ones, by forward differences
    while diffs:
        values.append(diffs[0])
        diffs = [x + y for x, y in zip(diffs, diffs[1:])]
    steps = [y - x for x, y in zip(values, values[1:])]  # T_j = S_(j+1) - S_j
    pairs = [*zip(steps, steps[1:]), *zip(values, [v - den for v in values[1:]])]
    a, b = next(pair for pair in pairs if pair[0] or pair[1])
    return all(x * b == y * a for x, y in pairs)


def _assoc_by_families(p: MultilinearPoly) -> bool:
    """The n-1 equations of multilinear p, each checked once per family of its
    candidate 0/1 points (``assoc_pointwise``)."""
    n, m, masks = p.nvars, 2 * p.nvars - 1, list(p.coeffs)
    bounds = [_slot_bound(masks, s) for s in range(1, n + 1)]
    _check_grid_guard(sum(min(1 << m, a + b) for a, b in zip(bounds, bounds[1:])))
    sums, parts = _SubsetSums(p), _window_parts(masks, n)
    relations: dict[int, tuple] = {}  # by the family bits a | b << 1, shared by all equations
    for s in range(1, n):
        lo, hi = 1 << (s - 1), 1 << s
        for k in _families(masks, lo, hi):
            key = k >> (s - 1) & 3
            relation = relations.get(key)
            if relation is None:
                relation = relations[key] = _relation(sums, n, key, parts)
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

    Grid mode is exact.  A multilinear difference that vanishes on {0,1}^(2n-1)
    is zero.  Symmetric p (``SparsePoly._size_coeffs``, O(t)) takes the value
    S_j / den at any point with j ones (S_j by forward differences of the
    scaled size coefficients, ``Ring.scaled``).  At a point with a = x_s,
    b = x_(s+n), m ones in x_(s+1)..x_(s+n-1) and r elsewhere, den^2 times
    slot s is den * S_(r+b) + T_(r+b) * S_(a+m), T_j = S_(j+1) - S_j, and slot
    s+1 swaps a and b.  So every equation holds iff T_r * (S_(m+1) - den) =
    T_(r+1) * S_m for all r < n-1 and m < n: each pair (T_r, T_(r+1)) is
    parallel to each (S_m, S_(m+1) - den).  The latter never all vanish (S_1
    would be 0 and den), and all T_r = 0 makes them equal, so that holds iff
    all 2n-1 pairs are parallel to the first nonzero one: no guard.

    Any other multilinear p is checked by family (``_assoc_by_families``).
    Equation s (slot s against slot s+1) need only hold at the 0/1 indicator
    points of the masks that either composition can hold by substitution: at
    the point 1_S of an inclusion-minimal monomial S of a nonzero difference
    D of the two, every other monomial of D vanishes, so D(1_S) = coef(S) !=
    0 (the minimal-monomial argument; Klivans and Spielman 2001).  The guard
    bounds these candidates over all n-1 equations, from the term counts,
    before any subset sum is read: t masks per term with x_s and one per
    other term, at most 2^(2n-1) per equation.  They are checked by family
    (``_families``), the points that agree outside C = x_(s+1)..x_(s+n-1):
    a candidate's family is a term t, or t without x_s or x_(s+1), and its C
    is 0, w >> 1 or w mod 2^(n-1) for a term w (``_window_parts``).  Every
    family is checked at all these C's, a superset of its candidates, which
    is sound: equal compositions agree at every point.  With S(T) = den *
    p(1_T), a subset sum of p's scaled coefficients, and p = A + x_s B,
    den^2 times the two sides there are alpha + beta * u(C) and gamma +
    delta * v(C), where u(C) = S(a | C << 1) and v(C) = S(C | b << (n-1))
    depend on the family's bits a = x_s and b = x_(s+n) alone.  Over an
    integral domain that holds at every C iff it holds at one C0 and beta *
    U = delta * V, for U = u - u(C0), V = v - v(C0): one product comparison
    at a C1 where (U, V) != 0 when U and V are proportional on the C's, else
    beta = delta = 0 (``_relation``, at most four per call, one per (a, b)).
    No composition is evaluated; an equation costs at most min(3t, 2^n)
    family checks.

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
# Exhaustive enumeration of multilinear coefficient tables (``census``)


def enumerate_associative(n: int, ring: Ring, bound: int, *, budget: int = DEFAULT_BUDGET,
                          prune: bool = False, jobs: int = 1):
    """Classify every multilinear coefficient table in a box.

    Walks all tables with entries in [-bound, bound] (both components over
    Z[i]), keeps the associative ones, classifies each, and tallies a census
    by (family, exact parameters): a ``census.EnumerationResult``.  ``jobs``
    (at least 1) splits the box into that many chunks, at most one per value
    of the top coefficient, mapped over at most ``os.cpu_count()`` worker
    processes.
    """
    from .census import _enumerate

    return _enumerate(n, ring, bound, budget, prune, jobs)


def census_csv(result) -> str:
    """Deterministic CSV: one row per (family, exact parameters)."""
    lines = ["type,params,count"]
    for row in result.census:
        lines.append(f"{row.type_tag},{row.params},{row.count}")
    return "\n".join(lines) + "\n"


def candidates_text(result) -> str:
    """Canonical polynomial strings of all associative candidates, one per line."""
    return "".join(ml.render() + "\n" for ml, _ in result.survivors)
