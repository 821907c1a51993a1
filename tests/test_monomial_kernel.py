"""The exponent-tuple kernel for monomial ideals, checked against the
definitions: a monomial lies in a monomial ideal when a generator
divides it, so two ideals agree when they contain the same monomials of
a box large enough to hold every minimal generator of both."""

import itertools
from operator import le

from hypothesis import given, settings
from hypothesis import strategies as st

from grady.decomposition import monomial_primary_decomposition
from grady.groebner import (Ideal, _monomial_colon, _monomial_le,
                            _monomial_meet, _monomial_min_gens,
                            _monomial_product, _monomial_radical)
from grady.poly import GF, GREVLEX, PolynomialRing


def _divides(a, m):
    return all(map(le, a, m))


def _member(gens, m):
    return any(_divides(a, m) for a in gens)


def _box(top):
    """The monomials with each exponent at most that of top."""
    return itertools.product(*(range(t + 1) for t in top))


def _top(gens, times=1):
    """times the largest exponent of each variable among gens."""
    return tuple(times * max(col) for col in zip(*gens))


def _is_kernel_form(gens):
    """Minimal, and ascending in grevlex like the leads of a reduced
    grevlex basis."""
    return list(gens) == sorted(gens, key=GREVLEX.key) and not any(
        a != b and _divides(a, b) for a in gens for b in gens)


def _agrees(result, definition, top):
    """result holds exactly the monomials of the box below top that
    definition admits."""
    return _is_kernel_form(result) and all(
        _member(result, m) == definition(m) for m in _box(top))


@st.composite
def _families(draw, count=2):
    """count generator lists in 2-4 variables, exponents at most 4."""
    n = draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, 4)] * n)
    return n, [draw(st.lists(mono, min_size=1, max_size=4))
               for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(_families())
def test_meet_sum_and_comparisons_follow_the_definitions(case):
    n, (a, b) = case
    A, B = _monomial_min_gens(a), _monomial_min_gens(b)
    top = (4,) * n
    assert _agrees(A, lambda m: _member(a, m), top)
    assert _agrees(_monomial_meet(A, B),
                   lambda m: _member(a, m) and _member(b, m), top)
    assert _agrees(_monomial_min_gens(A + B),
                   lambda m: _member(a, m) or _member(b, m), top)
    subset = all(_member(b, m) for m in _box(top) if _member(a, m))
    assert _monomial_le(A, B) == subset
    assert _monomial_le(a, B) == subset           # a need not be minimal
    assert (A == B) == (subset and _monomial_le(B, A))


@settings(max_examples=100, deadline=None)
@given(_families(count=1), st.data())
def test_colon_and_radical_follow_the_definitions(case, data):
    n, (a,) = case
    A = _monomial_min_gens(a)
    m = data.draw(st.tuples(*[st.integers(0, 4)] * n))
    top = (4,) * n
    assert _agrees(_monomial_colon(A, m),
                   lambda u: _member(a, tuple(map(sum, zip(u, m)))), top)
    # u is in the radical when a power of u is; u^4 suffices here
    assert _agrees(_monomial_radical(A),
                   lambda u: _member(a, tuple(4 * e for e in u)), top)


@settings(max_examples=60, deadline=None)
@given(_families(), st.integers(1, 3))
def test_product_and_powers_follow_the_definitions(case, p):
    _, (a, b) = case
    A, B = _monomial_min_gens(a), _monomial_min_gens(b)
    assert _agrees(_monomial_product(A, B),
                   lambda m: any(_divides(tuple(map(sum, zip(x, y))), m)
                                 for x in a for y in b),
                   tuple(map(sum, zip(_top(a), _top(b)))))
    power = A
    for _ in range(p - 1):
        power = _monomial_product(power, A)
    sums = {tuple(map(sum, zip(*f))) for f in itertools.product(a, repeat=p)}
    assert _agrees(power, lambda m: _member(sums, m), _top(a, p))


@settings(max_examples=60, deadline=None)
@given(_families(count=1), st.sampled_from(["first", "last"]))
def test_monomial_decompositions_check(case, split):
    n, (a,) = case
    R = PolynomialRing(GF(7), ("x", "y", "z", "w")[:n])
    I = Ideal(R, [R.monomial(m) for m in a])
    if I.is_unit:
        return
    dec = monomial_primary_decomposition(I, split)
    assert dec.check()
    assert dec.intersection().monomial_generators() == \
        I.monomial_generators()
