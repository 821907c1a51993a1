"""Hard `star` inputs: eliminations that took from seconds to minutes
before Buchberger took its S-pairs by sugar.

Each case pins its answer and the number of S-polynomials Buchberger
forms, and runs under a wall bound far above its time with sugar.  For
the first three the bound is also far below the time without sugar, so
losing the strategy fails here twice; the last one forms the same 1,000
S-polynomials either way and was only about three times slower.
"""

import time

import pytest

from grady import groebner
from grady.grading import GradedRing, GradingGroup, star
from grady.groebner import Ideal, intersect
from grady.poly import GF, QQ, PolynomialRing


def _intersect_star(field, degrees, torsion, I, K):
    ring = PolynomialRing(field, ("x", "y", "z"))
    graded = GradedRing(ring, GradingGroup(2, torsion), degrees)
    return star(intersect(Ideal(ring, I), Ideal(ring, K)), graded)


def _star(field, degrees, torsion, gens):
    ring = PolynomialRing(field, ("x", "y"))
    graded = GradedRing(ring, GradingGroup(1, torsion), degrees)
    return star(Ideal(ring, gens), graded)


# (name, computation, generators of the star, S-polynomials, wall bound
# in seconds); the comments give the pair-by-lcm run of the same case,
# timed on a 2-core VM.
CASES = [
    # unfinished after 60 s
    ("F32003 intersect then star", lambda: _intersect_star(
        GF(32003), [((1, -1), (1,)), ((1, -1), (2,)), ((1, 0), (0,))],
        (3,), ["4*y^3 + 3*z", "z + 2*y*z + 3*x"],
        ["4*x^2*z + 2*x*y^2", "2*x*y + x*y*z"]), [], 1124, 20),
    # 2,450 S-polynomials, about 30 s
    ("Q intersect then star", lambda: _intersect_star(
        QQ, [((0, 1), ()), ((1, 1), ()), ((0, -1), ())], (),
        ["-y*z + 3*y + 2*x^2", "-2*x*y*z - y^3"],
        ["-x^2 + 2*y - y^2", "3*z + 2*x*y - x^2"]), [], 273, 20),
    # 8,995 S-polynomials, about 20 s
    ("F7 star over Z + Z/4", lambda: _star(
        GF(7), [((1,), (1,)), ((2,), (3,))], (4,),
        ["x*y + x + y", "6*x^2*y + 4"]),
     ["x^16 + 4*x^8*y^4 + 2*y^8"], 158, 1),
    # 1,000 S-polynomials, about 0.3 s
    ("F5 star of x^1000 - y", lambda: _star(
        GF(5), [((1,), ()), ((2,), ())], (), ["x^1000 - y"]),
     [], 1000, 2),
]


@pytest.mark.parametrize("name, compute, gens, spolys, bound", CASES,
                         ids=[case[0] for case in CASES])
def test_hard_star(monkeypatch, name, compute, gens, spolys, bound):
    calls = []
    real = groebner._spoly_terms
    monkeypatch.setattr(groebner, "_spoly_terms",
                        lambda *args: calls.append(1) or real(*args))
    start = time.perf_counter()
    S = compute()
    elapsed = time.perf_counter() - start
    assert [str(g) for g in S.canonical_generators()] == gens
    assert len(calls) == spolys
    assert elapsed < bound, f"{name} took {elapsed:.2f} s"
