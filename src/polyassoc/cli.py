"""Command-line front end.

Subcommands ``check``, ``classify``, and ``analyze`` take ``--ring z|q|zi``,
``--n N``, ``--poly EXPR`` and emit a report (``--format text|json``);
``enumerate`` walks a coefficient box and writes census files.  Exit codes:
0 analysis completed (whatever the verdict), 1 parse error, 2 invalid
flags, budget or output directory, 3 internal invariant violation.

Each command's help line, handler and flags are declared once, in
``COMMANDS``.  A request whose flags are written in full, each once, with no
value starting with ``-`` and every value valid, is read by one scan of the
argument list (``_scan``); every other argument list goes to argparse, which
is imported and built from the same table only then.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

# is_associative is unused here: bench/layertrace.py wraps this binding
from .assoc import AssocVerdict, CompositionWitness, is_associative
from .classify import (
    Classification,
    NotAssociative,
    _decide,
    classification_params,
    classify_associative,
)
from .errors import BudgetError, InternalInvariantError
from .oracle import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    OracleConfig,
    assoc_pointwise,
    associated_value,
    candidates_text,
    census_csv,
    enumerate_associative,
)
from .parse import ParseError, parse_poly
from .poly import SparsePoly
from .rings import Ring
from .structure import StructureReport, analyze
from . import __version__

EXIT_OK = 0
EXIT_PARSE_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
_GRID = OracleConfig(mode="grid")  # immutable: one for every grid check

# The library takes any arity; the CLI keeps requests fast.  `analyze --ring z`
# on 2*x1*...*xn took 0.007-0.014 s at n = 31, 0.11-0.20 s at 64 and 1.2-1.7 s
# at 128 through cli.main, the cap raised in-process past 31 (process time, best
# of 3 in each of several processes, 2-core Xeon, Python 3.11); README's
# exact-oracle guard is stated for n <= 31.
MAX_CLI_ARITY = 31


class UsageError(Exception):
    pass


def _validated_arity(n: int) -> int:
    if not 2 <= n <= MAX_CLI_ARITY:
        raise UsageError(f"--n must be in 2..{MAX_CLI_ARITY}, got {n}")
    return n


def _witness_json(witness: CompositionWitness | None) -> dict | None:
    if witness is None:
        return None
    subset = witness.subset
    return {
        "slot": witness.slot,
        "monomial": witness.monomial_str(),
        "subset": list(subset) if subset is not None else None,
        "lhs": str(witness.lhs),
        "rhs": str(witness.rhs),
    }


def _classification_json(cls: Classification, ring: Ring) -> dict:
    block = {"type": cls.type_tag, "clause": cls.clause or None}
    block.update(classification_params(cls, ring))
    return block


def _structure_json(report: StructureReport, ring: Ring) -> dict:
    reduction = None
    if report.reduction is not None:
        reduction = {"binary_op": report.reduction.render()}
        reduction.update(report.reduction.params)
    checked = True if report.skew else None  # a report holds only checks that passed
    return {
        "group": report.group,
        "skew": report.skew.render(ring) if report.skew else None,
        "skew_verified": checked,
        "skew_endomorphism": checked,
        "medial": True,
        "medial_method": report.medial_method,
        "reducible": report.reducible,
        "reduction": reduction,
        "notes": list(report.notes),
    }


def _witness_holds(p: SparsePoly, witness: CompositionWitness) -> bool:
    """Whether slot 1 minus the witness's slot, evaluated at its 0/1 point 1_M
    (``indicator_point``) by nested evaluation (``oracle.associated_value``), is
    lhs - rhs.  For multilinear p a composition at 1_M is the sum of its
    coefficients on the subsets of M, and those below M agree, M being the
    first difference in colex order.  With a squared variable 1_M does not
    isolate one coefficient, so such input keeps its degree check alone (True)."""
    if not p.is_multilinear:
        return True
    point = witness.indicator_point
    first, other = associated_value(p, 1, point), associated_value(p, witness.slot, point)
    return first - other == witness.lhs - witness.rhs


def _oracle_check(p: SparsePoly, associative: bool, seed: int = DEFAULT_SEED) -> dict:
    """The oracle's mode and whether it agrees with the verdict ``associative``:
    grid mode (exact), or random mode drawn from ``seed`` past the grid guard."""
    try:
        agrees = assoc_pointwise(p, _GRID) == associative
        mode = "grid"
    except BudgetError:
        agrees = assoc_pointwise(p, OracleConfig(mode="random", seed=seed)) == associative
        mode = "random"
    # a squared variable: either mode answers by slot degrees
    return {"mode": mode if p.is_multilinear else "degree", "agrees": agrees}


def _check_printable(ring: Ring, values) -> None:
    """Raise BudgetError when an integer part of a ring element has more
    digits than ``str`` converts under ``sys.get_int_max_str_digits()``
    (0 means no limit)."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    for x in values:
        # 2^(3 * limit) < 10^limit, so a shorter value needs no power of ten
        if any(v.bit_length() > 3 * limit and abs(v) >= 10**limit for v in ring.coords(x)):
            raise BudgetError(
                f"a coefficient or witness value has more than {limit} decimal digits, "
                f"the limit of sys.get_int_max_str_digits()",
                None,
            )


def _build_report(args) -> dict:
    ring = Ring(args.ring)
    n = _validated_arity(args.n)
    p = parse_poly(args.poly, n, ring)
    witness, families = _decide(p)
    verdict = AssocVerdict(witness is None, witness)
    cls: Classification | None = None
    structure: StructureReport | None = None
    if args.command != "check":  # name what the decision recognised
        cls = classify_associative(p, families) if witness is None else NotAssociative(witness)
    values = list(p.coeffs.values())
    if verdict.witness is not None:
        values += [verdict.witness.lhs, verdict.witness.rhs]
    _check_printable(ring, values)
    if args.command == "analyze" and verdict.associative:
        structure = analyze(p, cls)
    oracle = _oracle_check(p, verdict.associative)
    if not oracle["agrees"]:
        raise InternalInvariantError("pointwise oracle disagrees with the symbolic verdict")
    if verdict.witness is not None and not _witness_holds(p, verdict.witness):
        raise InternalInvariantError("the compositions disagree with the witness at its point")
    return {
        "ring": ring.label,
        "n": n,
        "input": p.render(),
        "multilinear": p.is_multilinear,
        "associative": verdict.associative,
        "witness": _witness_json(verdict.witness),
        "classification": _classification_json(cls, ring) if cls is not None else None,
        "structure": _structure_json(structure, ring) if structure is not None else None,
        "oracle": oracle,
    }


def _emit(report: dict, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return EXIT_OK
    print(f"ring: {report['ring']}")
    print(f"n: {report['n']}")
    print(f"input: {report['input']}")
    print(f"multilinear: {'yes' if report['multilinear'] else 'no'}")
    print(f"associative: {'yes' if report['associative'] else 'no'}")
    w = report["witness"]
    if w is not None:
        where = f"S={{{','.join(map(str, w['subset']))}}}" if w["subset"] else w["monomial"]
        print(
            f"witness: slot {w['slot']} vs slot 1 at {where}: "
            f"{w['lhs']} != {w['rhs']}"
        )
    c = report["classification"]
    if c is not None:
        params = "".join(
            f"; {k} = {v}" for k, v in c.items() if k not in ("type", "clause")
        )
        clause = f" ({c['clause']})" if c["clause"] else ""
        print(f"classification: {c['type']}{clause}{params}")
    s = report["structure"]
    if s is not None:
        print("structure:")
        print(f"  group: {s['group']}" + (f"; skew: {s['skew']}" if s["skew"] else ""))
        if s["skew"]:
            print("  skew identity: ok; endomorphism: ok")
        print(f"  medial: {'yes' if s['medial'] else 'no'} ({s['medial_method']})")
        line = f"  reducible: {s['reducible']}"
        if s["reduction"] is not None:
            extras = "; ".join(f"{k} = {v}" for k, v in s["reduction"].items() if k != "binary_op")
            line += f"; x*y -> {s['reduction']['binary_op']}" + (f" ({extras})" if extras else "")
        print(line)
        for note in s["notes"]:
            print(f"  note: {note}")
    print(f"oracle: {report['oracle']['mode']} check agrees")
    return EXIT_OK


def cmd_report(args) -> int:
    """``check``, ``classify`` or ``analyze``, as named by ``args.command``."""
    return _emit(_build_report(args), args.format)


def cmd_enumerate(args) -> int:
    ring = Ring(args.ring)
    n = _validated_arity(args.n)
    if args.bound < 0:
        raise UsageError(f"--bound must be nonnegative, got {args.bound}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be positive, got {args.jobs}")
    os.makedirs(args.out, exist_ok=True)  # an unusable --out fails before the walk
    result = enumerate_associative(
        n, ring, args.bound, budget=args.budget, prune=args.prune, jobs=args.jobs
    )
    # recognition found each survivor's one family; the second route is the
    # grid oracle, exact, with random mode only past the grid guard
    for ml, _ in result.survivors:
        if not _oracle_check(ml, True, args.seed)["agrees"]:
            raise InternalInvariantError(f"pointwise spot check rejects {ml.render()}")
    census_path = os.path.join(args.out, "census.csv")
    with open(census_path, "w") as fh:
        fh.write(census_csv(result))
    if args.dump_candidates:
        with open(os.path.join(args.out, "candidates.txt"), "w") as fh:
            fh.write(candidates_text(result))
    print(f"candidates: {result.total}")
    print(f"checked individually: {result.checked} (bulk rejected: {result.bulk_rejected})")
    print(f"associative: {len(result.survivors)}")
    print(f"dual-path spot check: ok (seed {args.seed})")
    print(f"census: {census_path}")
    return EXIT_OK


# Each command's help line, handler and flags; each flag's kind (str, int,
# the tuple of its choices, or bool for a switch), default (REQUIRED when it
# must be given) and help text.  ``_scan`` and ``build_parser`` both read it.
REQUIRED = object()
_REPORT_FLAGS = {
    "--ring": (tuple(r.value for r in Ring), REQUIRED, None),
    "--n": (int, REQUIRED, "arity of the operation"),
    "--poly": (str, REQUIRED, "expression in x1..xn"),
    "--format": (("text", "json"), "text", None),
}
COMMANDS = {
    "check": ("decide associativity", cmd_report, _REPORT_FLAGS),
    "classify": ("decide associativity and name the family", cmd_report, _REPORT_FLAGS),
    "analyze": ("full report including group structure", cmd_report, _REPORT_FLAGS),
    "enumerate": ("census of associative multilinear operations", cmd_enumerate, {
        "--ring": (tuple(r.value for r in Ring if not r.is_field), REQUIRED, None),
        "--n": (int, REQUIRED, None),
        "--bound": (int, REQUIRED, "coefficient box half-width"),
        "--out": (str, REQUIRED, "output directory for census files"),
        "--jobs": (int, 1, None),
        "--seed": (int, DEFAULT_SEED, "seed for spot checks"),
        "--budget": (int, DEFAULT_BUDGET, None),
        "--prune": (bool, False, "use sound search-space filters"),
        "--dump-candidates": (bool, False, None),
    }),
}


@functools.cache
def build_parser():
    """The ``argparse.ArgumentParser`` for ``COMMANDS``, built on the first
    call and shared after it: parsing reads the tree without changing it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polyassoc",
        description="Exact associativity analysis of polynomial n-ary operations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (blurb, func, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        for flag, (kind, default, text) in flags.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(
                    flag, type=int if kind is int else None,
                    choices=kind if type(kind) is tuple else None,
                    required=default is REQUIRED, default=None if default is REQUIRED else default,
                    help=text,
                )
        p.set_defaults(func=func)
    return parser


def _join_poly_values(argv: list[str]) -> list[str]:
    """Write ``--poly VALUE`` as ``--poly=VALUE`` when VALUE starts with one
    ``-``, such as ``-x1`` or ``-1+2*x1*x2``; argparse would read it as an
    option.  A value starting with ``--`` stays an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--poly" and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"--poly={token}"
        else:
            out.append(token)
    return out


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a command whose flags (``COMMANDS``)
    are each given at most once, by full name, as separate tokens, with the
    required ones present, no value starting with ``-``, every choice among
    the parser's and every ``int`` value accepted by ``int``; None for any
    other argument list, which argparse reads."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, func, flags = command
    values: dict = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in flags or flag in values:
            return None  # a repeated, abbreviated or unknown flag
        kind = flags[flag][0]
        if kind is bool:
            values[flag] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-") or (type(kind) is tuple and value not in kind):
            return None  # no value, one argparse would read as an option, or a refused choice
        try:
            values[flag] = int(value) if kind is int else value
        except ValueError:
            return None
    args = {f[2:].replace("-", "_"): values.get(f, default)
            for f, (_, default, _) in flags.items()}
    if REQUIRED in args.values():
        return None
    return SimpleNamespace(command=argv[0], **args, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _scan(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(_join_poly_values(argv))
            if getattr(args, "poly", "") == []:  # argparse strips the value of "--poly=--"
                parser.error("argument --poly: expected one argument")
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (BudgetError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, InternalInvariantError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
