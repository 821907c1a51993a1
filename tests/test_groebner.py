"""Groebner bases and the ideal operations built on them."""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grady.groebner as groebner
from grady.groebner import (Ideal, buchberger, colon, eliminate, exact_quotient,
                            ideal_power, ideal_product, ideal_sum, intersect,
                            intersect_all, radical_membership, saturate,
                            saturate_ideal)
from grady.poly import (GF, GREVLEX, LEX, QQ, Polynomial, PolynomialRing,
                        TermOrder, mono_div, mono_divides, mono_lcm, mono_mul,
                        parse_polynomial)


def test_normal_form(Rxy):
    gb = Ideal(Rxy, ["x^2 - y"]).groebner(GREVLEX)
    f = parse_polynomial("x^2 + y", Rxy)
    assert gb.normal_form(f) == parse_polynomial("2*y", Rxy)
    assert gb.normal_form(parse_polynomial("y", Rxy)) == \
        parse_polynomial("y", Rxy)


def test_groebner_basis_is_reduced(Rxy):
    I = Ideal(Rxy, ["x^2 - y", "x*y - 1"])
    gb = I.groebner(GREVLEX)
    for g in gb:
        assert g.leading_term(GREVLEX)[1] == QQ.one
        # no term of g is divisible by another leading monomial
        for h in gb:
            if h is g:
                continue
            lm = h.leading_monomial(GREVLEX)
            assert all(mono_lcm(lm, m) != m for m in g.terms)


def test_lex_basis_triangularizes(Rxy):
    I = Ideal(Rxy, ["x^2 - y", "x*y - 1"])
    gb = I.groebner(LEX)
    univariate = [g for g in gb
                  if all(m[0] == 0 for m in g.terms)]
    assert univariate and univariate[0].monic(LEX) == \
        parse_polynomial("y^3 - 1", Rxy)


def test_membership_and_unit(Rxy):
    I = Ideal(Rxy, ["x - y^2", "y^4 - y"])
    assert I.contains(parse_polynomial("x^2 - y^4", Rxy))
    assert not I.contains(parse_polynomial("x", Rxy))
    assert Ideal(Rxy, ["x", "x + 1"]).is_unit
    assert Ideal(Rxy).is_zero


def test_ideal_equality_and_containment(Rxy):
    assert Ideal(Rxy, ["x^2", "x*y"]) == \
        intersect(Ideal(Rxy, ["x"]), Ideal(Rxy, ["x^2", "y"]))
    assert Ideal(Rxy, ["x^2", "x*y"]) <= Ideal(Rxy, ["x"])
    assert not Ideal(Rxy, ["x"]) <= Ideal(Rxy, ["x^2"])


def test_sum_product_power(Rxy):
    I, J = Ideal(Rxy, ["x"]), Ideal(Rxy, ["y"])
    assert ideal_sum(I, J) == Ideal(Rxy, ["x", "y"])
    assert ideal_product(I, J) == Ideal(Rxy, ["x*y"])
    assert ideal_power(Ideal(Rxy, ["x", "y"]), 2) == \
        Ideal(Rxy, ["x^2", "x*y", "y^2"])
    assert ideal_power(I, 0).is_unit


def test_intersect_monomial_vs_generic(Rxy):
    # the monomial route is a lattice computation; cross-check it
    # against the elimination route on equal non-monomial presentations
    A = intersect(Ideal(Rxy, ["x", "y^2"]), Ideal(Rxy, ["y", "x^3"]))
    assert A == Ideal(Rxy, ["x*y", "x^3", "y^2"])
    B = intersect(Ideal(Rxy, ["x"]), Ideal(Rxy, ["x - 1"]))
    assert B == Ideal(Rxy, ["x^2 - x"])
    assert intersect_all([Ideal(Rxy, ["x"]), Ideal(Rxy, ["y"]),
                          Ideal(Rxy, ["x - y"])], Rxy) == \
        Ideal(Rxy, ["x^2*y - x*y^2"])
    assert intersect_all([], Rxy).is_unit


@st.composite
def _quotient_cases(draw):
    field = draw(st.sampled_from([GF(5), GF(32003), QQ]))
    ring = PolynomialRing(field, ("x", "y"))
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    coeff = st.integers(1, 40).map(field.from_int).filter(bool)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=4).map(
        lambda terms: Polynomial(ring, terms))
    f, g = draw(poly), draw(poly)
    # lead coefficient 2, 3 or 4, so g is not monic
    c = field.from_int(draw(st.integers(2, 4)))
    return f, g.scale(c * field.inv(g.leading_term()[1])), draw(poly)


@settings(max_examples=150, deadline=None)
@given(_quotient_cases())
def test_exact_quotient_and_spoly_match_polynomial_arithmetic(case):
    f, g, h = case
    ring, field = f.ring, f.ring.field
    assert exact_quotient(f * g, g) == f
    if not Ideal(ring, [g]).contains(h):
        with pytest.raises(ArithmeticError):
            exact_quotient(f * g + h, g)
    # the S-polynomial of f and g made monic
    mf, mg = (q.scale(field.inv(q.leading_term()[1])) for q in (f, g))
    lf, lg = mf.leading_monomial(), mg.leading_monomial()
    lcm = mono_lcm(lf, lg)
    expected = mf * ring.monomial(mono_div(lcm, lf)) \
        - mg * ring.monomial(mono_div(lcm, lg))
    assert groebner._spoly_terms(lcm, lf, mf.terms, lg, mg.terms, field) \
        == expected.terms


def test_exact_quotient(Rxy):
    f = parse_polynomial("x^2 - y^2", Rxy)
    g = parse_polynomial("x - y", Rxy)
    assert exact_quotient(f, g) == parse_polynomial("x + y", Rxy)
    with pytest.raises(ArithmeticError):
        exact_quotient(f, parse_polynomial("x", Rxy))
    with pytest.raises(ArithmeticError):
        exact_quotient(f, Rxy.zero())


def test_colon(Rxy):
    I = Ideal(Rxy, ["x^2", "x*y"])
    assert colon(I, parse_polynomial("y", Rxy)) == Ideal(Rxy, ["x"])
    assert colon(I, Ideal(Rxy, ["x", "y"])) == Ideal(Rxy, ["x"])
    assert colon(Ideal(Rxy, ["x^2 - x"]),
                 parse_polynomial("x", Rxy)) == Ideal(Rxy, ["x - 1"])
    # colon by something already inside gives the unit ideal
    assert colon(I, parse_polynomial("x^2", Rxy)).is_unit


def test_colon_by_zero_is_an_error(Rxy):
    I = Ideal(Rxy, ["x"])
    with pytest.raises(ValueError):
        colon(I, Rxy.zero())
    with pytest.raises(ValueError):
        colon(I, Ideal(Rxy))


def test_saturate(Rxy):
    I = Ideal(Rxy, ["x^2*y", "x*y^2"])
    S, n = saturate(I, parse_polynomial("y", Rxy))
    assert S == Ideal(Rxy, ["x"]) and n == 2
    S, n = saturate(Ideal(Rxy, ["x"]), parse_polynomial("y", Rxy))
    assert S == Ideal(Rxy, ["x"]) and n == 0
    with pytest.raises(ValueError):
        saturate(I, Rxy.zero())


def test_saturate_by_ideal(Rxy):
    I = Ideal(Rxy, ["x^2*y", "x*y^2"])
    assert saturate_ideal(I, Ideal(Rxy, ["x", "y"])) == Ideal(Rxy, ["x*y"])
    # saturating by the unit ideal changes nothing
    assert saturate_ideal(I, Ideal(Rxy, ["1"])) == I


def test_eliminate():
    R = PolynomialRing(QQ, ("t", "x", "y"))
    tw = Ideal(R, ["x - t^2", "y - t^3"])
    assert eliminate(tw, ["t"]) == Ideal(R, ["x^3 - y^2"])
    # eliminating nothing returns the ideal itself
    assert eliminate(tw, []) == tw
    with pytest.raises(KeyError):
        eliminate(tw, ["nope"])


def test_radical_membership(Rxy):
    I = Ideal(Rxy, ["x^2"])
    assert radical_membership(parse_polynomial("x", Rxy), I)
    assert not radical_membership(parse_polynomial("x + 1", Rxy), I)
    assert radical_membership(parse_polynomial("x*y", Rxy),
                              Ideal(Rxy, ["x^3*y^5"]))


_R5 = PolynomialRing(GF(5), ("x", "y"))


def _ideals(ring):
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    term = st.tuples(mono, st.integers(1, 4))
    poly = st.lists(term, min_size=1, max_size=2).map(
        lambda ts: sum((ring.monomial(m, ring.field.from_int(c))
                        for m, c in ts), ring.zero()))
    return st.lists(poly, min_size=1, max_size=3).map(
        lambda gens: Ideal(ring, gens))


@settings(max_examples=25, deadline=None)
@given(_ideals(_R5))
def test_spolys_reduce_to_zero(I):
    gb = list(I.groebner(GREVLEX))
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            f, g = gb[i], gb[j]
            lcm = mono_lcm(f.leading_monomial(GREVLEX),
                           g.leading_monomial(GREVLEX))
            sf = f * _R5.monomial(mono_div(lcm, f.leading_monomial(GREVLEX)))
            sg = g * _R5.monomial(mono_div(lcm, g.leading_monomial(GREVLEX)))
            spoly = sf.monic(GREVLEX) - sg.monic(GREVLEX)
            assert I.contains(spoly)


@settings(max_examples=25, deadline=None)
@given(_ideals(_R5), _ideals(_R5), _ideals(_R5))
def test_colon_laws(I, J, K):
    if J.is_zero or K.is_zero:
        return
    Q = colon(I, J)
    assert I <= Q
    assert colon(Q, K) == colon(I, ideal_product(J, K))


@settings(max_examples=25, deadline=None)
@given(_ideals(_R5), _ideals(_R5))
def test_intersection_is_a_lower_bound(I, J):
    M = intersect(I, J)
    assert M <= I and M <= J
    assert ideal_product(I, J) <= M


# ---------------------------------------------------------------------------
# A naive reference: every S-pair, no criteria, max-based full reduction.

def _monic(f, order):
    """(lead, f scaled to a monic lead) for a nonzero f."""
    lead = max(f.terms, key=order.key)
    return lead, f.scale(f.ring.field.inv(f.terms[lead]))


def _naive_remainder(f, basis, order):
    """Full reduction of f by monic (lead, g) pairs: the largest term is
    found by max on every step and the first divisor in list order
    reduces it."""
    p = f.ring.field.characteristic
    work, rem = dict(f.terms), {}
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        hit = next(((lm, g) for lm, g in basis if mono_divides(lm, m)), None)
        if hit is None:
            rem[m] = c
            continue
        lm, g = hit
        shift = mono_div(m, lm)
        for gm, gc in g.terms.items():
            if gm != lm:
                mm = mono_mul(gm, shift)
                s = work.get(mm, 0) - c * gc
                work[mm] = s % p if p else s
                if not work[mm]:
                    del work[mm]
    return Polynomial(f.ring, rem)


def _naive_add(basis, pairs, entry, order):
    for i, (lm, _) in enumerate(basis):
        lcm = mono_lcm(lm, entry[0])
        heapq.heappush(pairs, (order.key(lcm), i, len(basis), lcm))
    basis.append(entry)


def _naive_reduced_basis(gens, order):
    """Reduced monic basis, ascending by lead: every S-pair, no criteria,
    smallest lcm first."""
    basis, pairs = [], []
    for g in gens:
        if not g.is_zero:
            _naive_add(basis, pairs, _monic(g, order), order)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        (lf, f), (lg, g) = basis[i], basis[j]
        ring = f.ring
        s = f * ring.monomial(mono_div(lcm, lf)) \
            - g * ring.monomial(mono_div(lcm, lg))
        r = _naive_remainder(s, basis, order)
        if not r.is_zero:
            _naive_add(basis, pairs, _monic(r, order), order)
    minimal = []
    for lead, g in sorted(basis, key=lambda e: order.key(e[0])):
        if not any(mono_divides(lm, lead) for lm, _ in minimal):
            minimal.append((lead, g))
    return [_naive_remainder(g, minimal[:k] + minimal[k + 1:], order)
            for k, (_, g) in enumerate(minimal)]


@st.composite
def _reference_cases(draw):
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from([GF(2), GF(5), GF(32003), QQ]))
    ring = PolynomialRing(field, tuple(f"x{i}" for i in range(n)))
    order = draw(st.sampled_from([
        GREVLEX, LEX, TermOrder.elimination({0}),
        TermOrder.elimination({n - 1}), TermOrder.elimination({n // 2})]))
    # squarefree monomials in 4 variables keep the naive reference quick
    mono = st.tuples(*[st.integers(0, 2 if n < 4 else 1)] * n)
    poly = st.lists(st.tuples(mono, st.integers(-3, 3)), min_size=1,
                    max_size=3).map(lambda ts: sum(
                        (ring.monomial(m, field.from_int(c)) for m, c in ts),
                        ring.zero()))
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    return gens, order, draw(poly)


_R3 = PolynomialRing(GF(5), ("x0", "x1", "x2"))


@settings(max_examples=150, deadline=None)
@given(_reference_cases())
# a unit ideal that a queued pair deleted on an equal lcm(j, h) gets wrong
@example(([parse_polynomial(g, _R3) for g in ("x0", "x0*x2^2 + 1",
                                              "x2 + x0")],
          GREVLEX, _R3.one()))
def test_buchberger_matches_naive_reference(case):
    gens, order, f = case
    if all(g.is_zero for g in gens):
        return
    gb = buchberger(gens, order)
    expected = [_monic(g, order) for g in _naive_reduced_basis(gens, order)]
    assert list(zip(gb.leads, gb.elements)) == expected
    assert gb.normal_form(f) == _naive_remainder(f, expected, order)


def test_katsura3_lex_prunes_pairs(monkeypatch):
    ring = PolynomialRing(GF(32003), ("u0", "u1", "u2", "u3"))
    gens = [parse_polynomial(g, ring) for g in (
        "u0 + 2*u1 + 2*u2 + 2*u3 - 1",
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1",
        "2*u0*u2 + u1^2 + 2*u1*u3 - u2")]
    calls = []
    real = groebner._spoly_terms
    monkeypatch.setattr(groebner, "_spoly_terms",
                        lambda *args: calls.append(1) or real(*args))
    gb = buchberger(gens, LEX)
    # 52 S-polynomials with a whole-basis chain scan per pair, 43 with
    # the Gebauer-Moller update taking pairs by lcm alone
    assert len(calls) == 17
    assert [str(g) for g in gb] == [
        "u3^8 + 5818*u3^7 + 9698*u3^6 + 26753*u3^5 + 26300*u3^4"
        " + 19728*u3^3 + 8220*u3^2 + 31455*u3",
        "15273*u3^7 + 1431*u3^6 + 13814*u3^5 + 15130*u3^4 + 29866*u3^3"
        " + 15441*u3^2 + u2 + 23570*u3",
        "7531*u3^7 + 16886*u3^6 + 3641*u3^5 + 26518*u3^4 + 16465*u3^3"
        " + 19875*u3^2 + u1 + 2116*u3",
        "18398*u3^7 + 27372*u3^6 + 29096*u3^5 + 12713*u3^4 + 3347*u3^3"
        " + 25377*u3^2 + u0 + 12636*u3 + 32002"]
