"""Field arithmetic, monomial helpers, parsing and printing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grady.poly import (GF, GREVLEX, LEX, QQ, PolyParseError, PolynomialRing,
                        TermOrder, mono_div, mono_divides, mono_gcd, mono_lcm,
                        mono_mul, parse_polynomial)


def test_field_constructors():
    assert QQ.characteristic == 0
    assert GF(5).characteristic == 5
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def test_field_arithmetic_mod_p():
    F = GF(7)
    assert F.from_int(-1) == 6
    assert F.inv(3) * 3 % 7 == 1


def test_rational_coefficients(Rxy):
    f = parse_polynomial("1/2*x + 2/4*x", Rxy)
    assert f == parse_polynomial("x", Rxy)
    assert parse_polynomial("1/3*x", Rxy).coefficient((1, 0)) \
        == Fraction(1, 3)
    with pytest.raises(PolyParseError):
        parse_polynomial("1/0*x", Rxy)


def test_monomial_helpers():
    a, b = (2, 1), (1, 3)
    assert mono_mul(a, b) == (3, 4)
    assert mono_lcm(a, b) == (2, 3)
    assert mono_gcd(a, b) == (1, 1)
    assert mono_divides((1, 1), (2, 1))
    assert not mono_divides((2, 1), (1, 3))
    assert mono_div((3, 4), (1, 1)) == (2, 3)


def test_parse_and_render_round_trip(Rxy):
    for text in ("x^2*y - 3*y + 1/2", "-x + y^2", "0", "7",
                 "x*y^3 - x*y + 1"):
        f = parse_polynomial(text, Rxy)
        assert parse_polynomial(str(f), Rxy) == f


def test_parse_errors_carry_position(Rxy):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x + * y", Rxy)
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        parse_polynomial("w + 1", Rxy)      # unknown variable
    with pytest.raises(PolyParseError):
        parse_polynomial("x^-2", Rxy)


def test_parentheses_and_explicit_products(Rxy):
    f = parse_polynomial("(x + y)^2", Rxy)
    assert f == parse_polynomial("x^2 + 2*x*y + y^2", Rxy)
    # juxtaposition is rejected on purpose
    with pytest.raises(PolyParseError):
        parse_polynomial("2x", Rxy)


def test_arithmetic(Rxy):
    x, y = Rxy.gen(0), Rxy.gen(1)
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x - x).is_zero
    assert -(x - y) == y - x
    f = x**2 * y - y
    assert f.scale(Fraction(2)) == f + f
    assert 2 * f == f + f


def test_leading_terms_by_order(Rxy):
    f = parse_polynomial("x + y^2", Rxy)
    assert f.leading_monomial(GREVLEX) == (0, 2)
    assert f.leading_monomial(LEX) == (1, 0)
    assert f.total_degree() == 2


def test_grevlex_tie_break():
    # same total degree: grevlex prefers the smaller last exponent
    R = PolynomialRing(QQ, ("x", "y", "z"))
    f = parse_polynomial("x*z + y^2", R)
    assert f.leading_monomial(GREVLEX) == (0, 2, 0)


def test_elimination_order():
    R = PolynomialRing(QQ, ("t", "x"))
    order = TermOrder.elimination({0})
    f = parse_polynomial("t + x^5", R)
    assert f.leading_monomial(order) == (1, 0)


def _reference_key(order, exps):
    """The block-tuple form of each order, ascending."""
    if order.kind == "lex":
        return tuple(exps)
    elim = order.eliminated if order.kind == "elimination" else set()
    front = tuple(e for i, e in enumerate(exps) if i in elim)
    back = tuple(e for i, e in enumerate(exps) if i not in elim)
    return (sum(front), tuple(-e for e in reversed(front)),
            sum(back), tuple(-e for e in reversed(back)))


@st.composite
def _orders_and_monomials(draw):
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["grevlex", "lex", "elimination"]))
    if kind == "elimination":
        order = TermOrder.elimination(
            draw(st.sets(st.integers(0, n - 1), min_size=1)))
    else:
        order = TermOrder(kind)
    monos = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n),
                          min_size=1, max_size=30, unique=True))
    return order, monos


@settings(max_examples=200, deadline=None)
@given(_orders_and_monomials())
def test_descending_key_reverses_key(case):
    order, monos = case
    ascending = sorted(monos, key=order.key)
    assert sorted(monos, key=order.desc_key) == ascending[::-1]
    assert ascending == sorted(monos,
                               key=lambda m: _reference_key(order, m))
    lead = min(monos, key=order.desc_key)
    assert lead == max(monos, key=order.key) == ascending[-1]


def test_substitute_and_map(Rxy):
    f = parse_polynomial("x^2*y + y - 1", Rxy)
    g = f.substitute({"x": 2})
    assert g == parse_polynomial("5*y - 1", Rxy)
    line = PolynomialRing(QQ, ("y",))
    assert g.map_to(line) == parse_polynomial("5*y - 1", line)
    with pytest.raises(ValueError):
        f.map_to(line)   # x has no image


def test_characteristic_reduction():
    R = PolynomialRing(GF(5), ("x",))
    f = parse_polynomial("6*x + 5", R)
    assert f == parse_polynomial("x", R)
    assert (parse_polynomial("x", R) * 5).is_zero


def _polys(ring, max_terms=4, max_exp=3):
    coeff = st.integers(1, 4)
    mono = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((ring.monomial(m, ring.field.from_int(c))
                        for m, c in ts), ring.zero()))


_R5 = PolynomialRing(GF(5), ("x", "y"))


@settings(max_examples=40, deadline=None)
@given(_polys(_R5), _polys(_R5), _polys(_R5))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(_polys(_R5))
def test_render_parse_identity(f):
    assert parse_polynomial(str(f), _R5) == f


@settings(max_examples=40, deadline=None)
@given(_polys(_R5), _polys(_R5))
def test_leading_term_multiplicative(f, g):
    if f.is_zero or g.is_zero:
        return
    assert (f * g).leading_monomial(GREVLEX) == \
        mono_mul(f.leading_monomial(GREVLEX), g.leading_monomial(GREVLEX))
