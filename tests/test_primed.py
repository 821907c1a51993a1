"""Published grevlex bases.

Operations that already hold the reduced grevlex basis of their result
store it with the result instead of letting Buchberger rebuild it.  A
wrong stored basis would corrupt every later comparison silently, so
each result's stored basis is checked against a fresh Buchberger run on
its generators, and the monomial decompositions are checked to make no
grevlex Buchberger call of their own.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import grady.groebner as groebner
from grady.decomposition import (monomial_primary_decomposition,
                                 monomial_radical,
                                 univariate_primary_decomposition)
from grady.grading import GradedRing, GradingGroup, is_homogeneous, star
from grady.groebner import (Ideal, _published, buchberger, colon, eliminate,
                            intersect, intersect_all, saturate)
from grady.gtheory import g_primary_decomposition
from grady.oracle import oracle_compare
from grady.poly import GF, GREVLEX, QQ, PolynomialRing


def assert_basis_consistent(I):
    """I's grevlex basis (stored or computed) is the one Buchberger finds
    for I's generators."""
    gb = I.groebner(GREVLEX)
    if not I.generators:
        assert not gb.elements and not gb.leads
        return
    fresh = buchberger(list(I.generators), GREVLEX)
    assert gb.elements == fresh.elements
    assert gb.leads == fresh.leads


@st.composite
def _cases(draw):
    field = draw(st.sampled_from([GF(5), GF(32003), QQ]))
    n = draw(st.integers(2, 3))
    ring = PolynomialRing(field, ("x", "y", "z")[:n])
    mono = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.integers(1, 4).map(field.from_int)

    def monomial():
        return mono.map(ring.monomial)

    def binomial():
        return st.tuples(mono, mono, coeff).map(
            lambda t: ring.monomial(t[0]) - ring.monomial(t[1], t[2]))

    def ideal(kind):
        return st.lists(kind(), min_size=1, max_size=3).map(
            lambda gens: Ideal(ring, gens))

    kind = draw(st.sampled_from([monomial, binomial]))
    I, J, K = (draw(ideal(k)) for k in (kind, kind, monomial))
    f = draw(kind())
    # a monomial with a coefficient, whatever kind I is
    g = draw(st.tuples(mono, coeff).map(lambda t: ring.monomial(*t)))
    free = draw(st.integers(0, 1))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    degrees = [(draw(st.tuples(*[st.integers(-1, 2)] * free)),
                draw(st.tuples(*[st.integers(0, 2)] * len(torsion))))
               for _ in range(n)]
    graded = GradedRing(ring, GradingGroup(free, torsion), degrees)
    return I, J, K, f, g, graded


@seed(20091)
@settings(max_examples=60, deadline=None)
@given(_cases())
def test_published_bases_match_buchberger(case):
    I, J, K, f, g, graded = case
    S = star(I, graded)
    # a star's generators are exactly its reduced basis, which is
    # homogeneous; an ideal that holds such a basis is its own star
    assert S.generators == S.groebner(GREVLEX).elements
    assert all(is_homogeneous(g, graded) for g in S.generators)
    for H in (S, Ideal(I.ring, S.generators)):
        assert star(H, graded) is H
    results = [intersect(I, J), intersect_all([I, J, K]),
               eliminate(I, [0]), S]
    if not J.is_zero:
        results.append(colon(I, J))
    if not f.is_zero:
        results += [colon(I, f), saturate(I, f)[0]]
    results.append(colon(I, g))
    if I.is_monomial:
        results.append(monomial_radical(I))
        if not I.is_unit and not I.is_zero:
            for c in monomial_primary_decomposition(I).components:
                results += [c.component, c.radical]
    for R in results:
        assert_basis_consistent(R)


def test_monomial_decompositions_run_no_grevlex_buchberger(monkeypatch):
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    graded = GradedRing(ring, GradingGroup(3, ()),
                        [((1, 0, 0), ()), ((0, 1, 0), ()), ((0, 0, 1), ())])
    I = Ideal(ring, ["x^2*y", "x*z^3", "y^2*z", "x*y*z^2", "y^3"])
    I.groebner(GREVLEX)
    orders = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", lambda gens, order: (
        orders.append(order) or real(gens, order)))
    mdec = monomial_primary_decomposition(I)
    gdec = g_primary_decomposition(I, graded)
    assert len(mdec.components) > 1 and len(gdec.components) > 1
    assert GREVLEX not in orders


def test_canonical_generators_and_key_are_computed_once_and_shared():
    """canonical_generators hands out a fresh list of the order found on
    the first call; the basis key is the rendered canonical generators,
    whether the basis came from Buchberger or _published."""
    ring = PolynomialRing(QQ, ("x", "y"))
    built = Ideal(ring, ["x^2 + y", "x*y - 1"])
    first = built.canonical_generators()
    first.reverse()
    first.append(ring.one())
    assert built.canonical_generators() == first[-2::-1]
    gens = built.canonical_generators()
    published = _published(ring, built.groebner(GREVLEX).elements,
                           built.groebner(GREVLEX).leads)
    for I in (built, published):
        key = I.groebner(GREVLEX).key
        assert key == tuple(str(g) for g in I.canonical_generators())
        assert key == tuple(str(g) for g in gens)
        assert I.groebner(GREVLEX).key is key


def test_published_ideal_equals_the_ideal_of_its_generators():
    ring = PolynomialRing(GF(5), ("x", "y", "z"))
    for texts in (["x^2", "x*y", "y^3*z"], ["x^3 + 2*x + 1"], []):
        I = Ideal(ring, texts)
        gb = I.groebner(GREVLEX)
        published = _published(ring, gb.elements, gb.leads)
        assert published == Ideal(ring, texts)
        assert published.generators == gb.elements
        assert [str(g) for g in published.canonical_generators()] == \
            [str(g) for g in Ideal(ring, texts).canonical_generators()]
        assert_basis_consistent(published)


def test_univariate_components_are_published_with_their_basis():
    for field in (GF(5), QQ):
        ring = PolynomialRing(field, ("x",))
        I = Ideal(ring, ["(x - 1)^3*(x^2 + 2)*(2*x + 3)"])
        for c in univariate_primary_decomposition(I).components:
            assert_basis_consistent(c.component)
            assert_basis_consistent(c.radical)


def test_star_generators_decide_the_primes_of_the_rational_oracle():
    """The oracle reduces a star's generators mod p, so a star must hold
    its reduced basis even when the ideal is its own star: x + 1/5 skips
    the prime 5, where the generator 5*x + 1 would have used it."""
    ring = PolynomialRing(QQ, ("x",))
    trivial = GradedRing(ring, GradingGroup(0, ()), [((), ())])
    I = Ideal(ring, ["5*x + 1"])
    assert [str(g) for g in star(I, trivial).generators] == ["x + 1/5"]
    verdict = oracle_compare(I, trivial, 7)
    assert verdict.passed
    assert verdict.reason == "heuristic: agreement mod 7, 11"
