"""Exhaustive enumeration of multilinear coefficient tables, for ``enumerate``.

The enumerator walks entire boxes of multilinear coefficient tables, one
value list at a time with c_0's last, checks each slot composition equation
once its coefficients are set, so a failure settles a whole sub-box, and
solves each list's value from one equation linear in it, so only one value
is tried where its coefficient A is nonzero (one root at most, R being an
integral domain).  The walk computes in Z/P, not in R: ``Ring.residue_map``
sends each box value to an int once, and no value the walk tests for zero
is nonzero in R but 0 mod P (``_residue_map``), so every test decides as
in R and only a kept table is built of ring elements.  Each table that
passes every equation is kept and checked by two routes that share no code
with the walk: recognition (``classify_associative``) must find exactly one
family of the theorem that rebuilds it, and ``enumerate`` runs the exact
grid oracle on it (random mode only past the grid guard).  The tables are
then classified into a census.
``oracle.enumerate_associative`` imports this module on its first call, so
report requests never compile it.
"""

from __future__ import annotations

import os
import sys
from itertools import count
from math import prod

from .assoc import _pulled_masks
from .classify import CLAUSES, Classification, classify_associative
from .errors import BudgetError
from .poly import MultilinearPoly, _Value
from .rings import Ring


class CensusRow(_Value):
    __slots__ = ("type_tag", "params", "count")

    def __init__(self, type_tag: str, params: str, count: int):
        _Value.__init__(self, type_tag, params, count)


class EnumerationResult(_Value):
    """``total``: the nominal size of the coefficient box; ``checked``: the
    tables the walk settles, those a failed equation settles unbuilt included;
    ``bulk_rejected``: candidates removed wholesale by pruning filters;
    ``survivors``: each table the walk keeps, with the one class recognition finds."""

    __slots__ = ("ring", "n", "bound", "total", "checked", "bulk_rejected", "survivors", "census")

    def __init__(self, ring: Ring, n: int, bound: int, total: int, checked: int,
                 bulk_rejected: int, survivors: list[tuple[MultilinearPoly, Classification]],
                 census: list[CensusRow]):
        _Value.__init__(self, ring, n, bound, total, checked, bulk_rejected, survivors, census)


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


def _enumerate_chunk(args) -> tuple[int, int, list[MultilinearPoly]]:
    """Walk one slice of the coefficient box (split on the top coefficient).

    The slice is the product of value lists, each setting the masks it is
    paired with: the top's, then one per mask, or, pruned with a nonzero
    top, one per subset size (the coefficients are then size-uniform).
    Pruning also shortens the lists: a zero top forces degree <= 1 and
    idempotent first/last linear coefficients.  Every table left out is
    rejected wholesale.  c_0's list comes last: c_0 only ever multiplies
    some c_(O | {s}), never itself, so every equation that reads it is
    linear in it.  Each list structure is walked depth first, on the
    values' images mod P (``_residue_map``): a side of an equation is an int,
    and two sides unequal as ints are compared mod P, unless the images are
    too small for them to differ by a multiple of P (Z's).  On entering list
    j, its solving equation (``_solver``) is read as A*x + B = 0 from the
    lists already set.  R is an integral domain, so A != 0 leaves one
    possible value, whose image is -B/A mod P (``_root``) and which a dict
    from image residues finds, and A = 0 leaves all values or none; the
    values left out are settled at once.  Value v then goes to slot j,
    where the other ``_equations`` list j completes are checked, and a
    failure settles every table of the later lists at once.  A leaf passes
    them all; it alone is built of ring elements and kept, for recognition
    and the grid oracle to check.
    Returns (checked, bulk_rejected, survivors), the survivors in walk order
    and ``checked`` counting the tables of both kinds.
    """
    ring, n, bound, first_values, prune = args
    domain, zero = ring.box(bound), ring.zero
    modulus, image = _residue_map(ring, bound)
    # sides a + b*c of images at most s in size differ by at most 2(s + s^2); below
    # P, unequal ints are unequal mod P, as over Z, whose images are its box values
    span = max(1, *(abs(image(v)) for v in domain))
    exact = 2 * (span + span * span) < modulus
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
        images = [list(map(image, vs)) for vs in values]
        residues = [{x % modulus: x for x in xs} for xs in images]  # residue -> image
        elements = [dict(zip(xs, vs)) for xs, vs in zip(images, values)]  # image -> value
        later = [prod(map(len, values[j + 1 :])) for j in range(len(values))]
        slot = [0] * len(values) + [1, 0]  # images; slot[-2] one, slot[-1] zero
        j, pos, trying = 0, [-1] * len(values), list(images)
        while j >= 0:
            pos[j] += 1
            if not pos[j] and solvers[j]:
                p, q, r, u, a, b, c, d, e, f = solvers[j]
                lead = (slot[p] + slot[q] - slot[r] - slot[u]) % modulus
                rest = slot[a] + slot[b] * slot[c] - slot[d] - slot[e] * slot[f]
                if lead:
                    x = residues[j].get(_root(lead, rest, modulus))
                    trying[j] = [] if x is None else [x]
                else:
                    trying[j] = [] if rest % modulus else images[j]
                checked += (len(values[j]) - len(trying[j])) * later[j]
            if pos[j] == len(trying[j]):
                pos[j], j = -1, j - 1
                continue
            slot[j] = trying[j][pos[j]]
            for a, b, c, d, e, f in equations[j]:
                if slot[a] + slot[b] * slot[c] != slot[d] + slot[e] * slot[f] and (
                    exact or (slot[a] - slot[d] + slot[b] * slot[c] - slot[e] * slot[f]) % modulus
                ):
                    checked += later[j]
                    break
            else:
                if j + 1 < len(values):
                    j += 1
                    continue
                checked += 1
                table = {m: elements[k][x] for k, ((masks, _), x) in enumerate(zip(lists, slot))
                         if x for m in masks}
                survivors.append(MultilinearPoly._trusted(ring, n, table))
    return checked, len(first_values) * len(domain) ** top_mask - checked, survivors


def _residue_map(ring: Ring, bound: int) -> tuple:
    """The walk's modulus and map: ``Ring.residue_map`` at c = 12b^2 + 2b,
    where b = max(bound, 1) as the slots also hold one.

    Over Z[i] (Z's are smaller) c bounds each coordinate of every value the
    walk tests for zero: an equation's difference, 4b^2 + 2b; A, 4b; B,
    4b^2 + 2b; A*x + B at a box value x, 8b^2 + 4b^2 + 2b; the difference
    of two box values, 2b.  So each maps to 0 mod P only if it is zero."""
    b = max(bound, 1)
    return ring.residue_map(12 * b * b + 2 * b)


def _root(lead: int, rest: int, modulus: int) -> int:
    """The residue x with lead*x + rest = 0 (mod modulus), for lead a unit mod modulus."""
    return -rest * pow(lead, -1, modulus) % modulus


def _enumerate(n: int, ring: Ring, bound: int, budget: int, prune: bool,
               jobs: int) -> EnumerationResult:
    """``oracle.enumerate_associative``'s walk, once its arguments are checked here."""
    if n < 2:
        raise ValueError("arity must be at least 2")
    if ring.is_field:
        raise ValueError(
            f"enumeration over {ring.label} is unsupported (boxes are infinite up to reduction)"
        )
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if jobs < 1:
        raise ValueError("jobs must be positive")
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
        checked, bulk, found = 1, 0, [MultilinearPoly(ring, n)]
    else:
        _residue_map(ring, bound)  # a modulus that cannot be certified fails before any walk
        chunks = _split(ring.box(bound), jobs)
        args = [(ring, n, bound, chunk, prune) for chunk in chunks]
        if len(args) > 1:
            from multiprocessing import Pool

            with Pool(min(len(args), os.cpu_count() or 1)) as pool:
                parts = pool.map(_enumerate_chunk, args)
        else:
            parts = [_enumerate_chunk(a) for a in args]
        checked = sum(part[0] for part in parts)
        bulk = sum(part[1] for part in parts)

        coords, zero, masks = ring.coords, ring.zero, range(1 << n)

        def table_key(ml: MultilinearPoly) -> list:
            get = ml.coeffs.get
            return [coords(get(m, zero)) for m in masks]

        found = sorted((leaf for part in parts for leaf in part[2]), key=table_key)
    # recognition: exactly one family rebuilds each table, else InternalInvariantError
    survivors = [(ml, classify_associative(ml)) for ml in found]
    return EnumerationResult(ring, n, bound, total, checked, bulk, survivors,
                             _build_census(survivors, ring))


def _split(domain: list, parts: int) -> list[list]:
    """Consecutive slices of the domain, at most one per element."""
    parts = min(parts, len(domain))
    step, extra = divmod(len(domain), parts)  # the first ``extra`` slices hold one more
    starts = [k * step + min(k, extra) for k in range(parts + 1)]
    return [domain[start:end] for start, end in zip(starts, starts[1:])]


def _build_census(survivors, ring: Ring) -> list[CensusRow]:
    order = {clause: k for k, clause in enumerate(CLAUSES)}
    text, coords = ring.element_str, ring.coords
    groups: dict[tuple, list] = {}
    for _, cls in survivors:  # as ``classification_params`` and ``param_sort_key``, read once
        values = cls._fields()
        params = " ".join([f"{k}={text(v)}" for k, v in zip(cls.param_names, values)])
        key = (order[cls.clause], tuple(map(coords, values)))
        groups.setdefault((key, cls.type_tag, params), []).append(cls)
    return [CensusRow(type_tag, params, len(members))
            for (_, type_tag, params), members in sorted(groups.items())]
