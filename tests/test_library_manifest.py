"""Output manifest of the library: one SHA-256 per record.

A seeded corpus of polynomials over Z, Q and Z[i] at n = 2..6, multilinear
and with squared variables, is drawn by ``corpus()``.  For each member
``library_manifest.jsonl`` beside this file keeps three records, each with
its label, the member's ring, arity and text in clear, and one digest:

- ``assoc``: the verdict of ``is_associative`` and the repr of its witness;
- ``classify``: the repr of ``classify``;
- ``medial``: the repr of ``is_medial``.

A call that raises is recorded by its exception's type and message.  The
corpus is fixed: the test checks that ``corpus()`` still draws the members
the manifest names, so it is never re-drawn to hide a difference.  After a
deliberate change of output, regenerate the manifest from the root of a
checkout with ``PYTHONPATH=src python3 tests/test_library_manifest.py`` and
name the changed records in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from polyassoc import (
    GaussianInt, Ring, ShiftedProduct, SparsePoly, TranslatedSum, classify, is_associative,
    is_medial, parse_poly, reconstruct,
)
from polyassoc.rings import Frac

MANIFEST = Path(__file__).resolve().parent / "library_manifest.jsonl"
SEED = "library-manifest:1"
ARITIES = range(2, 7)


def _element(ring: Ring, rng: random.Random, nonzero: bool = True):
    while True:
        if ring is Ring.Q:
            x = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        elif ring is Ring.ZI:
            x = GaussianInt(rng.randint(-2, 2), rng.randint(-2, 2))
        else:
            x = rng.randint(-3, 3)
        if x or not nonzero:
            return x


def _table(ring: Ring, n: int, rng: random.Random, terms: int, top: int) -> SparsePoly:
    """``terms`` random monomials with exponents up to ``top``, random coefficients."""
    table = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, top) for _ in range(n))
        table[exps] = _element(ring, rng)
    return SparsePoly(ring, n, table)


def corpus() -> list[tuple[Ring, int, str, str]]:
    """(ring, n, kind, text) for every member, drawn from ``SEED``."""
    rng = random.Random(SEED)
    members = []
    for ring in (Ring.Z, Ring.Q, Ring.ZI):
        for n in ARITIES:
            a, b = _element(ring, rng), Frac(ring, _element(ring, rng))
            product = reconstruct(ShiftedProduct(a, b), n, ring)
            drawn = [("multilinear", _table(ring, n, rng, rng.randint(1, 8), 1)) for _ in range(4)]
            drawn += [
                ("sprod", product),
                ("sprod+term", product + _table(ring, n, rng, 1, 1)),
                ("tsum", reconstruct(TranslatedSum(_element(ring, rng, False) * (n - 1)), n, ring)),
            ]
            while len(drawn) < 9:
                p = _table(ring, n, rng, rng.randint(1, 4), 2)
                if not p.is_multilinear:
                    drawn.append(("squared", p))
            members += [(ring, n, kind, p.render()) for kind, p in drawn]
    return members


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # a refusal is an outcome too
        return f"{type(exc).__name__}: {exc}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> list[dict]:
    """Every record of the manifest, computed by the code under test."""
    records = []
    for k, (ring, n, kind, text) in enumerate(corpus()):
        p = parse_poly(text, n, ring)

        def verdict():
            v = is_associative(p)
            return v.associative, v.witness

        for name, call in (("assoc", verdict), ("classify", lambda: classify(p)),
                           ("medial", lambda: is_medial(p))):
            records.append({
                "label": f"{k}:{ring.value}:n{n}:{kind}:{name}",
                "ring": ring.value, "n": n, "poly": text,
                "sha256": _digest(_outcome(call)),
            })
    return records


def test_library_output_matches_the_manifest():
    want = [json.loads(line) for line in MANIFEST.read_text().splitlines()]
    got = compute()
    clear = ("label", "ring", "n", "poly")
    assert [[r[f] for f in clear] for r in got] == [[r[f] for f in clear] for r in want]
    changed = [g["label"] for g, w in zip(got, want) if g["sha256"] != w["sha256"]]
    assert not changed, f"{len(changed)} records differ from {MANIFEST.name}: {changed[:20]}"


if __name__ == "__main__":
    MANIFEST.write_text("".join(json.dumps(r) + "\n" for r in compute()))
    print(f"wrote {MANIFEST}")
