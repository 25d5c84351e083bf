"""Seeded known-answer inputs for the benchmark workloads.

Every request is built from the six-family table of associative polynomial
operations (constant, left/right projection, translated sum, twisted sum,
shifted product) with its exact parameters, or made non-associative by
construction.  The expected report is written down while the input is
built, so the driver checks the program against these answers and never
against its own output.

Non-associative inputs rest on two facts from the classification: every
associative operation is multilinear, so a squared variable breaks
associativity; and every associative multilinear operation of degree >= 2
is a shifted product, whose coefficient table is symmetric, so adding one
degree-2 term to a symmetric or degree <= 1 table at arity >= 3 breaks it.

Ring elements here are plain values independent of the package: ``int``
for Z, ``Fraction`` for Q, and ``(re, im)`` tuples for Z[i] (Fractions
inside when a value may leave the ring).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

RING_LABEL = {"z": "Z", "q": "Q", "zi": "Z[i]"}
CLAUSE = {
    "constant": "i",
    "left-projection": "ii",
    "right-projection": "iii",
    "translated-sum": "iv",
    "twisted-sum": "v",
    "shifted-product": "vi",
}


@dataclass(frozen=True)
class Request:
    """One CLI request with the report fields it must produce."""

    label: str  # the stratum this request was drawn from
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)
    once: bool = False  # sent in the first pass of a run only


# ---------------------------------------------------------------------------
# Ring values: arithmetic, report rendering, and input text


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_pow(a, k):
    out = (1, 0)
    for _ in range(k):
        out = g_mul(out, a)
    return out


def g_div(a, b):
    """Exact quotient in Q(i)."""
    norm = b[0] * b[0] + b[1] * b[1]
    num = g_mul(a, (b[0], -b[1]))
    return (Fraction(num[0], norm), Fraction(num[1], norm))


def g_round_div(a, b):
    """Quotient of a by b in Z[i], rounded to the nearest lattice point."""
    q = g_div(a, b)
    return (_nearest(q[0]), _nearest(q[1]))


def _nearest(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def g_gcd(a, b):
    while b != (0, 0):
        q = g_round_div(a, b)
        prod = g_mul(q, b)
        a, b = b, (a[0] - prod[0], a[1] - prod[1])
    return a


def g_int(x) -> bool:
    return Fraction(x[0]).denominator == 1 and Fraction(x[1]).denominator == 1


def gauss_str(x) -> str:
    """Report rendering ``a+bi`` with explicit signs: ``3``, ``i``, ``2-i``, ``-2i``."""
    re, im = int(x[0]), int(x[1])
    if im == 0:
        return str(re)
    mag = "i" if abs(im) == 1 else f"{abs(im)}i"
    if re == 0:
        return mag if im > 0 else f"-{mag}"
    return f"{re}{'+' if im > 0 else '-'}{mag}"


def elem_str(ring: str, x) -> str:
    """Exact report string of a ring element."""
    return gauss_str(x) if ring == "zi" else str(x)


def frac_str(ring: str, num, den=None) -> str:
    """Report string of the fraction num/den in canonical reduced form.

    Over Z and Q that is the reduced rational.  Over Z[i] numerator and
    denominator are divided by their gcd and both multiplied by the unit
    that moves the denominator into re > 0, im >= 0; a reduced fraction is
    unique up to units, so this pins it down.
    """
    if ring != "zi":
        value = Fraction(num) if den is None else Fraction(num) / Fraction(den)
        return str(value)
    num, den = fraction_parts(num, (1, 0) if den is None else den)
    if den == (1, 0):
        return gauss_str(num)
    return f"{_paren(gauss_str(num))}/{_paren(gauss_str(den))}"


def fraction_parts(num, den):
    """Canonical (numerator, denominator) over Z[i] of num/den."""
    if num == (0, 0):
        return (0, 0), (1, 0)
    g = g_gcd(num, den)
    num, den = g_round_div(num, g), g_round_div(den, g)
    for unit in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        d = g_mul(den, unit)
        if d[0] > 0 and d[1] >= 0:
            return g_mul(num, unit), d
    raise AssertionError("some rotation lands in the canonical quadrant")


def _paren(s: str) -> str:
    return f"({s})" if ("+" in s[1:] or "-" in s[1:]) else s


def elem_text(ring: str, x) -> str:
    """Input-grammar text of a ring element, parenthesized unless atomic."""
    if ring == "zi":
        re, im = x
        if im == 0:
            return str(re) if re >= 0 else f"({re})"
        imag = "i" if abs(im) == 1 else f"{abs(im)}*i"
        if re == 0:
            return imag if im > 0 else f"(-{imag})"
        return f"({re}{'+' if im > 0 else '-'}{imag})"
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"({x.numerator}/{x.denominator})"
    x = int(x)
    return str(x) if x >= 0 else f"({x})"


def ring_value(ring: str, rng: random.Random, width: int, nonzero=False):
    """A ring element with integer components in [-width, width]."""
    while True:
        if ring == "zi":
            x = (rng.randint(-width, width), rng.randint(-width, width))
            zero = x == (0, 0)
        elif ring == "q":
            x = Fraction(rng.randint(-width, width), rng.choice((1, 2, 3)))
            zero = x == 0
        else:
            x = rng.randint(-width, width)
            zero = x == 0
        if not (nonzero and zero):
            return x


def variables(n: int) -> list[str]:
    return [f"x{k}" for k in range(1, n + 1)]


# ---------------------------------------------------------------------------
# The six families with their expected classification and structure


@dataclass(frozen=True)
class Member:
    """A member of one family: input text, classification, structure facts."""

    text: str
    family: str
    params: dict  # report parameter name -> exact string
    group: str
    reducible: str
    reduction: dict | None  # expected reduction parameters, binary_op left out


def constant(ring, n, c) -> Member:
    s = elem_str(ring, c)
    return Member(elem_text(ring, c), "constant", {"c": s}, "no", "yes", {"c": s})


def projection(ring, n, left: bool) -> Member:
    family = "left-projection" if left else "right-projection"
    return Member("x1" if left else f"x{n}", family, {}, "no", "yes", {})


def translated_sum(ring, n, c) -> Member:
    text = " + ".join([elem_text(ring, c)] + variables(n))
    c0 = _exact_div(ring, c, n - 1)
    reduction = None if c0 is None else {"c0": elem_str(ring, c0)}
    return Member(
        text, "translated-sum", {"c": elem_str(ring, c)}, "yes",
        "no" if c0 is None else "yes", reduction,
    )


def _exact_div(ring, c, k):
    if ring == "q":
        return Fraction(c) / k
    if ring == "zi":
        return (c[0] // k, c[1] // k) if c[0] % k == 0 and c[1] % k == 0 else None
    return c // k if c % k == 0 else None


def twisted_sum(ring, n, omega) -> Member:
    """sum omega^(k-1) * xk; omega is -1, i or -i."""
    w = omega if ring == "zi" else (omega, 0)
    terms = []
    for k, var in enumerate(variables(n)):
        re, im = g_pow(w, k)
        coeff = {(1, 0): "+ ", (-1, 0): "- ", (0, 1): "+ i*", (0, -1): "- i*"}[(re, im)]
        terms.append(coeff + var)
    text = " ".join(terms)[2:]
    return Member(text, "twisted-sum", {"omega": elem_str(ring, omega)}, "yes", "no", None)


def twist_weights(ring: str, n: int) -> list:
    """Every omega != 1 in the ring with omega^(n-1) = 1."""
    if ring == "zi":
        units = [(-1, 0), (0, 1), (0, -1)]
        return [u for u in units if g_pow(u, n - 1) == (1, 0)]
    return [-1 if ring == "z" else Fraction(-1)] if (n - 1) % 2 == 0 else []


def shifted_product(ring, n, a, b) -> Member:
    """-b + a * prod (xk + b), written in factored form; b lies in R."""
    is_zero = b == (0, 0) if ring == "zi" else b == 0
    if is_zero:
        text = "*".join([elem_text(ring, a)] + variables(n))
    else:
        bt = elem_text(ring, b)
        factors = "*".join(f"({var} + {bt})" for var in variables(n))
        text = f"{elem_text(ring, a)}*{factors} - {bt}"
    params = {"a": elem_str(ring, a), "b": frac_str(ring, b)}
    if ring != "q":
        return Member(text, "shifted-product", params, "no", "out-of-scope", None)
    if not is_zero:
        return Member(text, "shifted-product", params, "field-restricted", "out-of-scope", None)
    roots = rational_roots(Fraction(a), n - 1)
    if not roots:
        return Member(text, "shifted-product", params, "field-restricted", "no", None)
    reduction = {"a0": str(roots[0])}
    if len(roots) > 1:
        reduction["roots"] = ", ".join(str(r) for r in roots)
    return Member(text, "shifted-product", params, "field-restricted", "yes", reduction)


def rational_roots(x: Fraction, k: int) -> tuple:
    """Every rational r with r^k = x (x != 0), the positive one first."""
    num, den = _int_root(abs(x.numerator), k), _int_root(x.denominator, k)
    if num is None or den is None or (x < 0 and k % 2 == 0):
        return ()
    root = Fraction(num, den) * (-1 if x < 0 else 1)
    return (root, -root) if k % 2 == 0 else (root,)


def _int_root(x: int, k: int):
    r = round(x ** (1 / k))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == x:
            return cand
    return None


# ---------------------------------------------------------------------------
# Expected reports


def expect_for(member: Member, ring: str, n: int, cmd: str) -> dict:
    """Expected report fields for an associative family member."""
    expect = {"ring": RING_LABEL[ring], "n": n, "associative": True, "multilinear": True}
    if cmd in ("classify", "analyze"):
        expect["classification"] = {
            "type": member.family, "clause": CLAUSE[member.family], **member.params
        }
    if cmd == "analyze":
        expect["structure"] = {
            "group": member.group,
            "has_skew": member.group == "yes",
            "medial": True,
            "medial_method": "symbolic" if n <= 3 else "sampled",
            "reducible": member.reducible,
            "reduction": member.reduction,
        }
    return expect


def expect_non_associative(ring: str, n: int, cmd: str, multilinear: bool) -> dict:
    expect = {"ring": RING_LABEL[ring], "n": n, "associative": False, "multilinear": multilinear}
    if cmd in ("classify", "analyze"):
        expect["classification"] = {"type": "not-associative", "clause": None}
    if cmd == "analyze":
        expect["structure"] = None
    return expect


def check_report(report: dict, expect: dict) -> list[str]:
    """Differences between a JSON report and its known answer."""
    problems = []
    for key in ("ring", "n", "associative", "multilinear"):
        if report.get(key) != expect[key]:
            problems.append(f"{key}: got {report.get(key)!r}, want {expect[key]!r}")
    witness = report.get("witness")
    if expect["associative"] and witness is not None:
        problems.append("associative input reported a witness")
    if not expect["associative"]:
        if not witness or not 2 <= witness.get("slot", 0) <= expect["n"]:
            problems.append(f"non-associative input without a valid witness: {witness!r}")
        elif witness["lhs"] == witness["rhs"]:
            problems.append("witness coefficients agree")
    if not (report.get("oracle") or {}).get("agrees"):
        problems.append("pointwise oracle does not agree")
    if "classification" in expect and report.get("classification") != expect["classification"]:
        problems.append(
            f"classification: got {report.get('classification')!r}, "
            f"want {expect['classification']!r}"
        )
    if "structure" in expect:
        problems += _check_structure(report.get("structure"), expect["structure"])
    return problems


def _check_structure(got, want) -> list[str]:
    if want is None:
        return [] if got is None else ["structure block on non-associative input"]
    if got is None:
        return ["missing structure block"]
    problems = []
    for key in ("group", "medial", "medial_method", "reducible"):
        if got.get(key) != want[key]:
            problems.append(f"structure.{key}: got {got.get(key)!r}, want {want[key]!r}")
    if (got.get("skew") is not None) != want["has_skew"]:
        problems.append(f"structure.skew: got {got.get('skew')!r}")
    if want["has_skew"] and not (got.get("skew_verified") and got.get("skew_endomorphism")):
        problems.append("skew identity or endomorphism not verified")
    reduction = got.get("reduction")
    if want["reduction"] is None:
        if reduction is not None:
            problems.append(f"unexpected reduction {reduction!r}")
    elif reduction is None or {k: v for k, v in reduction.items() if k != "binary_op"} != want["reduction"]:
        problems.append(f"reduction: got {reduction!r}, want {want['reduction']!r}")
    return problems


# ---------------------------------------------------------------------------
# Request workloads: fixed strata, seeded parameters


def _draw_member(kind: str, ring: str, n: int, rng: random.Random, shape: random.Random) -> Member:
    if kind == "x1":
        return projection(ring, n, True)
    if kind == "xn":
        return projection(ring, n, False)
    if kind == "const":
        return constant(ring, n, ring_value(ring, rng, 9))
    if kind == "prod":  # a*x1*...*xn, the shifted product with b = 0
        zero = (0, 0) if ring == "zi" else 0
        return shifted_product(ring, n, ring_value(ring, rng, 5, nonzero=True), zero)
    if kind == "tsum":
        return translated_sum(ring, n, ring_value(ring, rng, 9))
    if kind == "twist":
        return twisted_sum(ring, n, shape.choice(twist_weights(ring, n)))
    if kind == "sprod":
        return shifted_product(ring, n, *_sprod_params(ring, rng))
    if kind == "qroot":  # a*x1*...*xn over Q, reducible iff a has a rational root
        a = rng.choice([Fraction(8), Fraction(-27), Fraction(1, 8), Fraction(27, 8), Fraction(2), Fraction(-3, 4)])
        return shifted_product("q", n, a, Fraction(0))
    raise ValueError(f"unknown family kind {kind!r}")


def _sprod_params(ring: str, rng: random.Random):
    """Scale and offset of fixed size and seeded sign, so the cost of the
    sampled mediality check does not swing with the seed."""
    if ring == "q":
        return rng.choice([Fraction(3, 2), Fraction(-3, 2)]), rng.choice(
            [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)])
    if ring == "zi":
        return rng.choice([(1, 1), (1, -1), (-1, 1), (-1, -1)]), rng.choice(
            [(2, 1), (2, -1), (-2, 1), (-2, -1), (1, 2), (1, -2), (-1, 2), (-1, -2)])
    return rng.choice([2, -2, 3, -3]), rng.choice([2, -2, 3, -3])


def _perturb(member: Member, ring: str, n: int, how: str, rng, shape) -> str:
    """Input text of member with a term added that breaks associativity."""
    k = elem_text(ring, ring_value(ring, rng, 3, nonzero=True))
    if how == "square":
        return f"{member.text} + {k}*x{shape.randint(1, n)}^2"
    i, j = sorted(shape.sample(range(1, n + 1), 2))
    return f"{member.text} + {k}*x{i}*x{j}"


def _power_sum(ring: str, n: int, e: int, rng: random.Random) -> str:
    shifts = {"z": [2, -2], "q": [Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)],
              "zi": [(1, 1), (1, -1), (-1, 1), (-1, -1)]}[ring]
    shift = elem_text(ring, rng.choice(shifts))
    return f"({' + '.join(variables(n))} + {shift})^{e}"


@dataclass(frozen=True)
class Stratum:
    """A fixed number of requests of one kind; the seed picks parameters."""

    cmd: str
    ring: str
    n: int
    kind: str  # family kind, or "pow2"/"pow3" for (x1+..+xn+s)^e
    count: int = 1
    perturb: str | None = None  # None, "square" or "term"

    @property
    def label(self) -> str:
        tail = f"+{self.perturb}" if self.perturb else ""
        return f"{self.cmd}:{self.ring}:n{self.n}:{self.kind}{tail}"

    @property
    def associative(self) -> bool:
        return self.perturb is None and not self.kind.startswith("pow")


def build_request(stratum: Stratum, rng: random.Random, copy: int = 0) -> Request:
    """A request of the stratum.  Values come from rng (the run's seed); the
    shape, which variable is squared, which term is added, which root of
    unity twists, comes from the stratum itself, because it moves the cost
    of the oracle and of the witness search by 10x or more."""
    s = stratum
    shape = random.Random(f"{s.label}#{copy}")
    head = (s.cmd, "--ring", s.ring, "--n", str(s.n))
    if s.kind.startswith("pow"):
        text = _power_sum(s.ring, s.n, int(s.kind[3:]), rng)
        expect = expect_non_associative(s.ring, s.n, s.cmd, multilinear=False)
    else:
        member = _draw_member(s.kind, s.ring, s.n, rng, shape)
        if s.perturb:
            text = _perturb(member, s.ring, s.n, s.perturb, rng, shape)
            expect = expect_non_associative(s.ring, s.n, s.cmd, multilinear=s.perturb == "term")
        else:
            text = member.text
            expect = expect_for(member, s.ring, s.n, s.cmd)
    return Request(s.label, head + ("--poly", text, "--format", "json"), expect)


def _alternate(cmds, strata):
    return [Stratum(cmds[k % len(cmds)], *spec) for k, spec in enumerate(strata)]


# verdict-wide: check/classify over Z and Z[i] at arity 5-9 with few terms.
# The cost sits in the assoc mask scans (one-term inputs at n = 8-9) and in
# the oracle grid (sums and products at n = 5-6).  Arity and family are
# fixed per stratum so the mix, and with it the latency distribution, does
# not move with the seed.
VERDICT_ASSOC = _alternate(("classify", "check"), [
    ("z", 8, "x1"), ("z", 8, "xn"), ("z", 9, "const"), ("z", 6, "prod"),
    ("z", 5, "x1"), ("z", 6, "xn"), ("z", 7, "const"), ("z", 5, "prod"),
    ("z", 7, "x1"), ("z", 8, "const"), ("z", 6, "const"), ("z", 6, "x1"),
    ("z", 7, "xn"), ("z", 5, "const"),
    ("zi", 7, "x1"), ("zi", 6, "xn"), ("zi", 8, "const"), ("zi", 5, "prod"),
    ("zi", 5, "x1"), ("zi", 7, "xn"), ("zi", 6, "const"), ("zi", 5, "const"),
    ("zi", 6, "x1"), ("zi", 5, "xn"), ("zi", 7, "const"),
    ("z", 5, "tsum"), ("z", 6, "tsum"), ("z", 5, "tsum"), ("z", 6, "tsum"),
    ("zi", 5, "tsum"), ("zi", 5, "tsum"),
    ("z", 5, "twist"), ("z", 5, "twist"), ("zi", 5, "twist"), ("zi", 5, "twist"),
])
VERDICT_NON_ASSOC = _alternate(("check", "classify"), [
    ("z", 9, "x1", 1, "term"), ("z", 8, "const", 1, "square"),
    ("z", 7, "tsum", 1, "term"), ("z", 9, "prod", 1, "square"),
    ("z", 6, "xn", 1, "term"), ("z", 5, "twist", 1, "square"),
    ("z", 8, "xn", 1, "term"), ("z", 6, "tsum", 1, "square"),
    ("z", 7, "x1", 1, "square"), ("z", 5, "prod", 1, "term"),
    ("zi", 8, "x1", 1, "term"), ("zi", 7, "const", 1, "square"),
    ("zi", 6, "tsum", 1, "term"), ("zi", 9, "xn", 1, "square"),
    ("zi", 5, "twist", 1, "term"), ("zi", 5, "prod", 1, "square"),
    ("zi", 6, "const", 1, "term"),
])
# One-term inputs at n = 10-12 run past the per-request limit at the seed
# commit (the dense mask scans grow as 4^n); one of them rides in every run,
# in its first pass, so the benchmark shows that defect as a failed request
# instead of hiding it, without paying the limit in every pass.
VERDICT_OVER_LIMIT = [
    Stratum("check", "z", 11, "x1"),
    Stratum("classify", "zi", 11, "xn"),
    Stratum("check", "z", 12, "const"),
    Stratum("classify", "z", 10, "prod"),
]

# analyze-dense: analyze over Z, Q, Z[i] at arity 3-5.  Shifted products in
# factored form expand to 2^n terms in parse; the cost sits in structure
# (sampled mediality, skew checks, substitution), in parse and in the
# substitution route.  Shifted products over Q and Z[i] stop at n = 4: at
# n = 5 one request takes 7-10 s at the seed commit, longer than a run.
ANALYZE = [Stratum("analyze", *spec) for spec in [
    ("z", 3, "sprod", 2), ("z", 4, "sprod", 2), ("z", 5, "sprod", 2),
    ("q", 3, "sprod", 2), ("q", 4, "sprod", 1),
    ("zi", 3, "sprod", 2), ("zi", 4, "sprod", 1),
    ("q", 4, "qroot"),
    ("z", 5, "tsum"), ("z", 4, "tsum"), ("q", 4, "tsum"), ("q", 3, "tsum"),
    ("zi", 3, "tsum"), ("zi", 4, "tsum"),
    ("z", 5, "twist"), ("z", 3, "twist"), ("q", 3, "twist", 2),
    ("zi", 5, "twist"), ("zi", 3, "twist"),
    ("z", 4, "const"), ("q", 5, "const"), ("zi", 3, "const"), ("z", 3, "const"),
    ("q", 4, "x1"), ("zi", 5, "xn"), ("z", 3, "x1"), ("q", 3, "xn"),
    ("z", 5, "x1"), ("zi", 4, "x1"),
    ("z", 4, "pow3", 2), ("zi", 4, "pow3"), ("z", 3, "pow3", 2),
    ("q", 5, "pow2"), ("q", 3, "pow3"), ("zi", 3, "pow2", 2),
    ("q", 4, "tsum", 1, "term"), ("z", 5, "const", 1, "square"),
    ("zi", 4, "tsum", 1, "square"), ("q", 5, "x1", 1, "term"),
]]


def request_list(workload: str, seed: int) -> list[Request]:
    """The first pass of a request workload: every stratum at its fixed
    count, parameters and order drawn from the seed.  Later passes repeat it
    without the requests marked ``once``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verdict-wide":
        strata = VERDICT_ASSOC + VERDICT_NON_ASSOC + [rng.choice(VERDICT_OVER_LIMIT)]
    elif workload == "analyze-dense":
        strata = ANALYZE
    else:
        raise ValueError(f"not a request workload: {workload}")
    requests = [build_request(s, rng, k) for s in strata for k in range(s.count)]
    over = {s.label for s in VERDICT_OVER_LIMIT}
    requests = [replace(r, once=r.label in over) for r in requests]
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# census: the fixed box list and its expected census files


@dataclass(frozen=True)
class Box:
    ring: str
    n: int
    bound: int
    prune: bool

    @property
    def label(self) -> str:
        return f"enumerate:{self.ring}:n{self.n}:b{self.bound}:{'pruned' if self.prune else 'full'}"

    @property
    def nominal(self) -> int:
        side = 2 * self.bound + 1
        return (side * side if self.ring == "zi" else side) ** (1 << self.n)

    def argv(self, out_dir: str, seed: int) -> list[str]:
        argv = [
            "enumerate", "--ring", self.ring, "--n", str(self.n), "--bound", str(self.bound),
            "--out", out_dir, "--jobs", "1", "--seed", str(seed), "--budget", str(self.nominal),
        ]
        return argv + (["--prune"] if self.prune else [])


# Each decision is tiny here, so per-element overhead in rings and poly
# dominates; no grid oracle, parse or structure runs.
CENSUS_BOXES = (
    Box("z", 3, 1, False),
    Box("zi", 2, 1, False),
    Box("zi", 2, 2, True),
    Box("zi", 3, 1, True),
)


def census_seed(seed: int) -> int:
    """Seed for the CLI's dual-path spot check; nonzero, derived from --seed."""
    return random.Random(f"census:{seed}").getrandbits(63) | 1


def _domain(ring: str, bound: int) -> list:
    r = range(-bound, bound + 1)
    return [(re, im) for re in r for im in r] if ring == "zi" else list(r)


def _key(ring: str, x):
    return tuple(int(v) for v in x) if ring == "zi" else x


def expected_census(box: Box) -> str:
    """census.csv for a box, derived from the family table alone.

    A family member is in the box when every coefficient of its multilinear
    table lies in [-bound, bound] (both components over Z[i]).  Shifted
    products are found from their two top coefficients: a = c_n and
    b = c_(n-1)/a, then c_k = a*b^(n-k) for k >= 1 and c_0 = a*b^n - b must
    be ring elements in the box.  Each (family, parameters) names one table,
    so every count is 1.  Rows come in clause order, then by parameter value.
    """
    ring, n, bound = box.ring, box.n, box.bound
    domain = _domain(ring, bound)
    in_box = (
        (lambda x: g_int(x) and max(abs(x[0]), abs(x[1])) <= bound)
        if ring == "zi"
        else (lambda x: Fraction(x).denominator == 1 and abs(x) <= bound)
    )
    rows = []
    for c in domain:
        rows.append((0, _key(ring, c), f"constant,c={elem_str(ring, c)}"))
    if bound >= 1:
        rows.append((1, (), "left-projection,"))
        rows.append((2, (), "right-projection,"))
    for c in domain:
        rows.append((3, _key(ring, c), f"translated-sum,c={elem_str(ring, c)}"))
    if n >= 3 and bound >= 1:
        for w in twist_weights(ring, n):
            rows.append((4, _key(ring, w), f"twisted-sum,omega={elem_str(ring, w)}"))
    for a in domain:
        if a in (0, (0, 0)):
            continue
        for m in domain:
            if all(in_box(c) for c in _shifted_table(ring, n, a, m)):
                rows.append((5, _sp_key(ring, a, m), f"shifted-product,a={elem_str(ring, a)} b={frac_str(ring, m, a)}"))
    rows.sort(key=lambda row: row[:2])
    return "type,params,count\n" + "".join(f"{text},1\n" for _, _, text in rows)


def _shifted_table(ring: str, n: int, a, m):
    """Size coefficients c_0..c_(n-1) of -b + a*prod(xk + b) with b = m/a."""
    if ring == "zi":
        b = g_div(m, a)
        coeffs = [g_mul(a, g_pow(b, n - k)) for k in range(1, n)]
        top = g_mul(a, g_pow(b, n))
        return coeffs + [(top[0] - b[0], top[1] - b[1])]
    b = Fraction(m, a)
    return [a * b ** (n - k) for k in range(1, n)] + [a * b**n - b]


def _sp_key(ring: str, a, m):
    if ring == "zi":
        num, den = fraction_parts(m, a)
        return (_key(ring, a), (_key(ring, num), _key(ring, den)))
    b = Fraction(m, a)
    return (a, (b.numerator, b.denominator))
