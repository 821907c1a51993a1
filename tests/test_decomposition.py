"""Primary decomposition over the supported classes: monomial ideals in
any number of variables, arbitrary ideals on a line."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grady.decomposition import (ASSUMED, VERIFIED, UnsupportedClassError,
                                 associated_primes, classical_decomposition,
                                 is_monomial_ideal, minimal_primes,
                                 monomial_dimension,
                                 monomial_primary_decomposition,
                                 monomial_radical, radical_ideal,
                                 univariate_primary_decomposition)
from grady.groebner import Ideal, colon, intersect_all
from grady.poly import GF, QQ, PolynomialRing


def _comp_gens(dec):
    return [[str(g) for g in c.component.canonical_generators()]
            for c in dec.components]


def test_is_monomial_ideal(Rxy):
    assert is_monomial_ideal(Ideal(Rxy, ["x^2", "x*y"]))
    # reduced basis reveals hidden monomial ideals
    assert is_monomial_ideal(Ideal(Rxy, ["x + y^2", "y^2"]))
    assert not is_monomial_ideal(Ideal(Rxy, ["x + y"]))


def test_monomial_radical(Rxy):
    I = Ideal(Rxy, ["x^3", "x^2*y^2", "y^4"])
    assert monomial_radical(I) == Ideal(Rxy, ["x", "y"])
    assert monomial_radical(Ideal(Rxy, ["x^2*y"])) == Ideal(Rxy, ["x*y"])


def test_primary_decomposition_of_corner_ideal(Rxy):
    dec = monomial_primary_decomposition(Ideal(Rxy, ["x^2", "x*y"]))
    assert _comp_gens(dec) == [["x"], ["x^2", "y"]]
    assert [str(g) for c in dec.components
            for g in c.radical.canonical_generators()] == ["x", "x", "y"]
    assert dec.check()
    assert all(c.status == VERIFIED for c in dec.components)


def test_decomposition_of_headline_ideal(Rxy, q_star):
    dec = monomial_primary_decomposition(Ideal(Rxy, ["x^4", "x^3*y"]))
    assert _comp_gens(dec) == [["x^3"], ["x^4", "y"]]
    # the starred ideal is primary: a single component equal to itself
    dec2 = monomial_primary_decomposition(q_star)
    assert len(dec2.components) == 1
    assert dec2.components[0].component == q_star
    assert dec2.components[0].radical == Ideal(Rxy, ["x", "y"])


def test_split_orders_can_disagree():
    R = PolynomialRing(GF(5), ("x", "y", "z"))
    I = Ideal(R, ["x^3*y", "x*y*z", "y^2"])
    first = monomial_primary_decomposition(I, split="first")
    last = monomial_primary_decomposition(I, split="last")
    assert _comp_gens(first) == [["y"], ["x", "y^2"], ["x^3", "y^2", "z"]]
    assert _comp_gens(last) == [["y"], ["x^3", "x*y", "y^2"],
                                ["x^3", "y^2", "z"]]
    assert first.check() and last.check()
    assert first.intersection() == last.intersection() == I


def test_associated_and_minimal_primes():
    R = PolynomialRing(QQ, ("x", "y", "z"))
    I = Ideal(R, ["x^2*y", "x*z"])
    ass = associated_primes(I)
    keys = sorted(tuple(str(g) for g in P.canonical_generators())
                  for P in ass)
    assert keys == [("x",), ("x", "z"), ("y", "z")]
    mins = minimal_primes(I)
    keys = sorted(tuple(str(g) for g in P.canonical_generators())
                  for P in mins)
    assert keys == [("x",), ("y", "z")]
    assert monomial_dimension(I) == 2


def test_monomial_dimension_edges(Rxy):
    assert monomial_dimension(Ideal(Rxy)) == 2
    assert monomial_dimension(Ideal(Rxy, ["x^2", "y"])) == 0


def test_univariate_over_prime_field():
    R = PolynomialRing(GF(5), ("x",))
    dec = univariate_primary_decomposition(Ideal(R, ["x^5 - x"]))
    assert len(dec.components) == 5
    assert all(c.status == VERIFIED for c in dec.components)
    assert dec.check()

    dec = univariate_primary_decomposition(
        Ideal(R, ["x^2 * (x - 1)^3"]))
    assert _comp_gens(dec) == [["x^2"], ["x^3 + 2*x^2 + 3*x + 4"]]
    rads = [[str(g) for g in c.radical.canonical_generators()]
            for c in dec.components]
    assert rads == [["x"], ["x + 4"]]


def test_univariate_over_rationals():
    R = PolynomialRing(QQ, ("x",))
    dec = univariate_primary_decomposition(
        Ideal(R, ["(x^2 - 2) * (x - 1)^2"]))
    by_status = {c.status: c for c in dec.components}
    assert by_status[VERIFIED].radical == Ideal(R, ["x - 1"])
    assert by_status[ASSUMED].radical == Ideal(R, ["x^2 - 2"])
    assert not dec.components[0].verified or \
        dec.components[0].status == VERIFIED
    assert dec.intersection() == dec.target

    with pytest.raises(UnsupportedClassError):
        univariate_primary_decomposition(
            Ideal(R, ["(x^2 - 2) * (x - 1)^2"]), require_verified=True)


def test_univariate_rational_roots_use_both_signs():
    R = PolynomialRing(QQ, ("x",))
    dec = univariate_primary_decomposition(Ideal(R, ["2*x^2 - x - 1"]))
    rads = sorted(str(c.radical.canonical_generators()[0])
                  for c in dec.components)
    assert rads == ["x + 1/2", "x - 1"] or rads == ["x - 1", "x + 1/2"]
    assert all(c.status == VERIFIED for c in dec.components)


def test_linear_factor_over_q_needs_no_root_search():
    R = PolynomialRing(QQ, ("x",))
    dec = univariate_primary_decomposition(
        Ideal(R, ["x * (3*x - 100000000000000000000000)^2"]))
    assert [str(c.radical.canonical_generators()[0])
            for c in dec.components] == [
        "x", "x - 100000000000000000000000/3"]
    assert all(c.status == VERIFIED for c in dec.components)


def test_dispatchers(Rxy):
    # zero ideal: one zero component
    dec = classical_decomposition(Ideal(Rxy))
    assert len(dec.components) == 1 and dec.components[0].component.is_zero

    with pytest.raises(ValueError):
        classical_decomposition(Ideal(Rxy, ["1"]))

    with pytest.raises(UnsupportedClassError):
        classical_decomposition(Ideal(Rxy, ["x^2 + y^3"]))
    with pytest.raises(UnsupportedClassError):
        associated_primes(Ideal(Rxy, ["x^2 + y^3"]))
    with pytest.raises(UnsupportedClassError):
        minimal_primes(Ideal(Rxy, ["x^2 + y^3"]))
    with pytest.raises(UnsupportedClassError):
        radical_ideal(Ideal(Rxy, ["x^2 + y^3"]))


def test_radical_of_univariate():
    R = PolynomialRing(QQ, ("x",))
    assert radical_ideal(Ideal(R, ["x^2 * (x - 1)^3"])) == \
        Ideal(R, ["x^2 - x"])
    R5 = PolynomialRing(GF(5), ("x",))
    assert radical_ideal(Ideal(R5, ["x^10"])) == Ideal(R5, ["x"])
    assert radical_ideal(Ideal(R5)).is_zero


def test_random_monomial_invariants():
    rng = random.Random(11)
    R = PolynomialRing(QQ, ("x", "y", "z"))
    for _ in range(40):
        gens = []
        for _ in range(rng.randint(2, 4)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            if any(m):
                gens.append(R.monomial(m))
        if not gens:
            continue
        I = Ideal(R, gens)
        if I.is_unit:
            continue
        dec = monomial_primary_decomposition(I)
        assert dec.check()
        ass = associated_primes(I)
        mins = minimal_primes(I)
        min_keys = {tuple(str(g) for g in P.canonical_generators())
                    for P in mins}
        ass_keys = {tuple(str(g) for g in P.canonical_generators())
                    for P in ass}
        assert min_keys <= ass_keys
        # radical is the intersection of the minimal primes
        assert monomial_radical(I) == intersect_all(mins, R)


def _key(P):
    return frozenset(str(g) for g in P.canonical_generators())


@st.composite
def _monomial_ideals(draw):
    n = draw(st.integers(2, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return n, draw(st.lists(exps, max_size=4))


@settings(max_examples=50, deadline=None)
@given(_monomial_ideals())
@example((2, []))
@example((3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))
@example((4, [(3, 1, 0, 0), (2, 0, 2, 0), (0, 2, 1, 0), (0, 0, 0, 1)]))
def test_associated_primes_are_the_prime_colons(case):
    """Ass(I) is the set of primes I : m, where m runs over the monomials
    with each exponent at most that variable's largest generator
    exponent; Min(I) is its inclusion-minimal part."""
    n, gens = case
    R = PolynomialRing(GF(5), ("x", "y", "z", "w")[:n])
    I = Ideal(R, [R.monomial(m) for m in gens])
    top = [max((m[i] for m in gens), default=0) for i in range(n)]
    prime_colons = set()
    for m in itertools.product(*(range(t + 1) for t in top)):
        J = colon(I, R.monomial(m))
        if all(sum(e) == 1 for e in J.monomial_generators()):
            prime_colons.add(_key(J))
    ass = [_key(P) for P in associated_primes(I)]
    assert len(ass) == len(set(ass))
    assert set(ass) == prime_colons
    assert {_key(P) for P in minimal_primes(I)} == \
        {P for P in prime_colons if not any(Q < P for Q in prime_colons)}
