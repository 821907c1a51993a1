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
                                 monomial_radical)
from grady.grading import GradedRing, GradingGroup, star
from grady.groebner import (Ideal, buchberger, colon, eliminate, intersect,
                            intersect_all, saturate)
from grady.gtheory import g_primary_decomposition
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
    free = draw(st.integers(0, 1))
    torsion = draw(st.sampled_from([(), (2,), (3,)]))
    degrees = [(draw(st.tuples(*[st.integers(-1, 2)] * free)),
                draw(st.tuples(*[st.integers(0, 2)] * len(torsion))))
               for _ in range(n)]
    graded = GradedRing(ring, GradingGroup(free, torsion), degrees)
    return I, J, K, f, graded


@seed(20091)
@settings(max_examples=60, deadline=None)
@given(_cases())
def test_published_bases_match_buchberger(case):
    I, J, K, f, graded = case
    results = [intersect(I, J), intersect_all([I, J, K]),
               eliminate(I, [0]), star(I, graded)]
    if not J.is_zero:
        results.append(colon(I, J))
    if not f.is_zero:
        results += [colon(I, f), saturate(I, f)[0]]
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
