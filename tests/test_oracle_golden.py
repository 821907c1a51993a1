"""The truncation oracle reproduces a committed golden corpus: for each
seeded case, a digest of the truncated star basis (matrix and pivots)
and the full `oracle_compare` payloads, witnesses included.

The cases are owned by this file: monomial and binomial ideals over
prime fields in 1-3 variables under free, torsion and mixed gradings,
including fields whose characteristic divides a torsion modulus
(F2 with Z/2 or Z/4, F3 with Z/3).  Each case is compared three ways:
against its own star, against the star with its last generator dropped
(a vector must escape), and against the ideal itself (a claimed
generator may be missing from the star space).

Regenerate the corpus (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_oracle_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from grady.grading import GradedRing, GradingGroup, star
from grady.groebner import Ideal
from grady.oracle import oracle_compare, truncated_star_basis
from grady.poly import GF, PolynomialRing, parse_polynomial

GOLDEN = Path(__file__).resolve().parent / "golden" / "oracle_corpus.json"
VARS = ("x", "y", "z")
# (characteristic, free rank, torsion moduli); the first three pair a
# characteristic with a modulus it divides.
SHAPES = ((2, 0, (2,)), (3, 0, (3,)), (2, 0, (4,)), (5, 1, ()),
          (5, 2, ()), (7, 0, (3,)), (5, 1, (2,)), (3, 1, (3,)))
CASES_PER_CELL = 3


def _monomial(rng, n, maxdeg):
    exps = [0] * n
    for _ in range(rng.randint(1, maxdeg)):
        exps[rng.randrange(n)] += 1
    return "*".join(f"{v}^{e}" for v, e in zip(VARS, exps) if e)


def _case(rng, p, rank, torsion, n, kind):
    maxdeg = {1: 4, 2: 3, 3: 2}[n]
    degrees = [[[rng.randint(-1, 1) for _ in range(rank)],
                [rng.randrange(m) for m in torsion]] for _ in range(n)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        if kind == "monomial":
            gens.append(_monomial(rng, n, maxdeg + 1))
        else:
            a = b = _monomial(rng, n, maxdeg)
            while b == a:
                b = _monomial(rng, n, maxdeg)
            gens.append(f"{a} - {rng.randrange(1, p)}*{b}")
    return {"field": p, "vars": n, "free_rank": rank,
            "torsion": list(torsion), "degrees": degrees, "I": gens,
            "headroom": rng.randint(0, 2)}


def cases():
    rng = random.Random("grady-oracle-golden")
    out = []
    for p, rank, torsion in SHAPES:
        for n in (1, 2, 3):
            for kind in ("monomial", "binomial"):
                for _ in range(CASES_PER_CELL):
                    out.append(_case(rng, p, rank, torsion, n, kind))
    return out


def _payload(verdict):
    return verdict.to_payload() if verdict is not None else None


def run_case(case):
    ring = PolynomialRing(GF(case["field"]), VARS[:case["vars"]])
    group = GradingGroup(case["free_rank"], tuple(case["torsion"]))
    graded = GradedRing(ring, group, [(tuple(f), tuple(s))
                                      for f, s in case["degrees"]])
    I = Ideal(ring, [parse_polynomial(g, ring) for g in case["I"]])
    S = star(I, graded)
    gens = S.canonical_generators()
    top = max(g.total_degree() for g in gens + list(I.generators))
    bound = top + 2 + case["headroom"]
    B = truncated_star_basis(I, graded, bound)
    digest = hashlib.sha256(B.matrix.astype("<i8").tobytes())
    digest.update(json.dumps([int(c) for c in B.pivots]).encode())
    dropped = None
    if len(gens) >= 2:
        dropped = oracle_compare(I, graded, bound,
                                 star_ideal=Ideal(ring, gens[:-1]))
    claim_I = oracle_compare(I, graded, bound, star_ideal=I) \
        if S != I else None
    return {"bound": bound, "space": B.space.dimension,
            "basis": [B.dimension, digest.hexdigest()],
            "star": _payload(oracle_compare(I, graded, bound,
                                            star_ideal=S)),
            "dropped": _payload(dropped), "claim_I": _payload(claim_I)}


CASES = cases()


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_covers_every_verdict():
    results = _golden()
    assert len(results) == len(CASES)
    verdicts = {r[k]["verdict"] for r in results
                for k in ("star", "dropped", "claim_I") if r[k]}
    assert verdicts == {"pass", "fail"}
    assert all(r["star"]["verdict"] == "pass" for r in results)
    assert {"F2/Z2", "F3/Z3", "F2/Z4"} <= {
        f"F{c['field']}/Z{m}" for c in CASES for m in c["torsion"]}
    assert any(r["dropped"] and r["dropped"]["witness"] for r in results)
    assert any(r["claim_I"] and r["claim_I"]["verdict"] == "fail"
               for r in results)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_oracle_matches_golden(index):
    assert run_case(CASES[index]) == _golden()[index]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([run_case(c) for c in CASES], indent=1)
                      + "\n", encoding="utf-8")
