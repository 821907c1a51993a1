"""Field arithmetic, monomial helpers, parsing and printing."""

import ast
import math
import pickle
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grady import decomposition, groebner, poly
from grady.poly import (GF, GREVLEX, LEX, MAX_DIGITS, MAX_POWER_TERMS, QQ,
                        CoefficientField, PolyParseError, Polynomial,
                        PolynomialRing, TermOrder, mono_div, mono_divides,
                        mono_gcd, mono_lcm, mono_mul, parse_polynomial)

from conftest import coefficients


def _accepts(n):
    try:
        GF(n)
    except ValueError:
        return False
    return True


def test_field_accepts_exactly_the_primes():
    sieve = [True] * 20001
    sieve[0] = sieve[1] = False
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(2, 20001) if _accepts(n)] == \
        [n for n in range(2, 20001) if sieve[n]]


@pytest.mark.parametrize("n", [2047, 3277, 4033, 4681, 8321,
                               46337 ** 2])
def test_field_rejects_strong_pseudoprimes(n):
    # Strong pseudoprimes to base 2, which only the later Miller-Rabin
    # bases expose, and the square of a prime near the square root of
    # 2**31, with no factor the trial divisions see.
    assert not _accepts(n)


def test_field_accepts_the_largest_allowed_prime():
    assert GF(2 ** 31 - 1).characteristic == 2147483647


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


def test_field_public_behaviour():
    assert (repr(QQ), repr(GF(7))) == ("QQ", "GF(7)")
    assert CoefficientField(7) == GF(7) != QQ == CoefficientField(0)
    assert hash(CoefficientField(7)) == hash(GF(7))
    assert GF(32003) is GF(32003)     # one field, not one per polynomial
    assert (QQ.zero, QQ.one, QQ.from_int(-3)) == (0, 1, Fraction(-3))
    assert all(type(c) is Fraction for c in (QQ.zero, QQ.one, QQ.inv(3)))
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ValueError):
        GF(7).inv(0)
    with pytest.raises(ValueError, match="out of range"):
        GF(2 ** 31)
    for field in (QQ, GF(7)):
        copy = pickle.loads(pickle.dumps(field))
        assert copy == field and copy.inv(copy.from_int(3)) == field.inv(3)


@st.composite
def _leading_terms(draw):
    field = draw(st.sampled_from([QQ, GF(2), GF(32003)]))
    ring = PolynomialRing(field, ("x", "y", "z"))
    mono = st.tuples(*[st.integers(0, 3)] * 3)
    f = sum((ring.monomial(m, c) for m, c in draw(st.lists(
        st.tuples(mono, coefficients(field)), min_size=1, max_size=5))),
        ring.zero())
    assume(not f.is_zero)
    return f, draw(st.sampled_from([GREVLEX, LEX]))


@settings(max_examples=150, deadline=None)
@given(_leading_terms())
def test_publish_of_entry_is_the_monic_polynomial(case):
    """field.publish(field.entry(...)) is f.monic(), term for term in the
    same insertion order; an entry is monic over F_p and coprime
    integers with a positive lead over Q."""
    f, order = case
    field = f.ring.field
    lm = f.leading_monomial(order)
    entry = field.entry(lm, dict(f.terms))
    published = field.publish(lm, entry)
    monic = f.monic(order).terms
    assert list(published.items()) == list(monic.items())
    if field.characteristic:
        assert entry[lm] == 1
    else:
        assert all(type(c) is int for c in entry.values())
        assert entry[lm] > 0 and math.gcd(*entry.values()) == 1


def test_rational_entry_is_primitive_with_a_positive_lead():
    ring = PolynomialRing(QQ, ("x", "y"))
    f = parse_polynomial("-12/5*x^2 + 18/5*y - 18", ring)
    # cleared by 5: -12, 18, -90, of content 6 and a negative lead
    entry = QQ.entry((2, 0), dict(f.terms))
    assert entry == {(2, 0): 2, (0, 1): -3, (0, 0): 15}
    assert all(type(c) is int for c in entry.values())


def test_modular_entry_of_a_monic_dict_is_that_dict():
    ring = PolynomialRing(GF(7), ("x", "y"))
    terms = parse_polynomial("x^2 + 3*y + 6", ring).terms
    assert GF(7).entry((2, 0), terms) is terms


# The lines of poly, groebner and decomposition that branch on the
# characteristic, by the grep
#   grep -nE '\bif (not )?p\b|if p else|characteristic (==|!=)|
#             if (not )?[a-z.]*characteristic\b|else [^ ]+ if p\b'
# less the lines it finds that choose no field: the arithmetic of
# _is_prime, the range check in CoefficientField.__init__, and the
# field's __eq__ and __repr__.  The field makes its choices once, when
# it is built; this count may only fall.
MAX_CHARACTERISTIC_BRANCHES = 13
_BRANCH = re.compile(r"\bif (not )?p\b|if p else|characteristic (==|!=)"
                     r"|if (not )?[a-z.]*characteristic\b"
                     r"|else [^ ]+ if p\b")
_NOT_A_CHOICE = {"_is_prime": None, "CoefficientField.__eq__": None,
                 "CoefficientField.__repr__": None,
                 "CoefficientField.__init__": "if p != 0:"}


def _enclosing_defs(tree, prefix="", names=None):
    """{line: qualified name of the innermost def or class around it}."""
    names = {} if names is None else names
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            name = prefix + node.name
            names.update(dict.fromkeys(
                range(node.lineno, node.end_lineno + 1), name))
            _enclosing_defs(node, name + ".", names)
        else:
            _enclosing_defs(node, prefix, names)
    return names


def _characteristic_branches():
    found = []
    for module in (poly, groebner, decomposition):
        with open(module.__file__, encoding="utf-8") as handle:
            text = handle.read()
        names = _enclosing_defs(ast.parse(text))
        for n, line in enumerate(text.splitlines(), 1):
            name = names.get(n)
            if _BRANCH.search(line) and not (
                    name in _NOT_A_CHOICE
                    and _NOT_A_CHOICE[name] in (None, line.strip())):
                found.append(f"{module.__name__}:{n}: {line.strip()}")
    return found


def test_characteristic_branches_only_fall():
    found = _characteristic_branches()
    assert len(found) <= MAX_CHARACTERISTIC_BRANCHES, "\n".join(found)
    assert not [f for f in found if f.startswith("grady.groebner:")]


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


def test_rational_scalars_and_coefficients_map_into_the_prime_field():
    R = PolynomialRing(GF(5), ("x",))
    x = R.gen(0)
    half = (x + 1) * Fraction(1, 2)
    assert half == parse_polynomial("3*x + 3", R)
    assert half.terms == {(1,): 3, (0,): 3}
    assert Fraction(1, 2) * (x + 1) == half
    assert (x * Fraction(10, 3)).is_zero
    made = Polynomial(R, {(1,): Fraction(1, 2), (0,): Fraction(7, 3)})
    assert made.terms == {(1,): 3, (0,): 4}
    assert all(type(c) is int for c in made.terms.values())
    for build in (lambda: x * Fraction(1, 5),
                  lambda: Polynomial(R, {(1,): Fraction(2, 5)})):
        with pytest.raises(ZeroDivisionError):
            build()
    Q = PolynomialRing(QQ, ("x",))
    assert (Q.gen(0) * Fraction(1, 2)).terms == {(1,): Fraction(1, 2)}
    assert Polynomial(Q, {(0,): 3}).terms == {(0,): Fraction(3)}


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


# ---------------------------------------------------------------------------
# The parser against a reference built from Polynomial arithmetic.  An
# expression is generated as a tree following the grammar in poly.py, then
# printed and parsed, and separately evaluated with +, -, * and a power
# taken as repeated multiplication.  The reference refuses a power or a
# product of parenthesized factors past MAX_POWER_TERMS as the parser
# does, so both refuse the same inputs.

_VARS = ("x", "y")


class _OverBudget(Exception):
    pass


def _budget(count, fs, weights):
    """Refuses a result bounded by count terms and, in each variable, by
    the weighted exponent spreads of the factors fs, past the budget."""
    spread_bound = 1
    for i in range(len(_VARS)):
        spread_bound *= 1 + sum(
            w * (max(m[i] for m in f.terms) - min(m[i] for m in f.terms))
            for f, w in zip(fs, weights) if f.terms)
    if min(count, spread_bound) > MAX_POWER_TERMS:
        raise _OverBudget


def _parenthesized(node):
    return node[0] == "paren" or node[0] == "pow" and node[1][0] == "paren"


def _exprs(depth=2):
    den = st.sampled_from([None, 1, 2, 3, 4, 6, 7, 9])    # never 0 mod 5
    base = st.builds(lambda n, d: ("num", n, d), st.integers(0, 40), den) \
        | st.builds(lambda v: ("var", v), st.sampled_from(_VARS))
    if depth:
        base |= st.builds(lambda e: ("paren", e), _exprs(depth - 1))
    factor = base | st.builds(lambda b, n: ("pow", b, n), base,
                              st.integers(0, 3))
    term = st.lists(factor, min_size=1, max_size=2).map(lambda fs: ("mul", fs))
    return st.builds(
        lambda neg, head, rest: ("sum", neg, [("+", head)] + rest),
        st.booleans(), term,
        st.lists(st.tuples(st.sampled_from("+-"), term), max_size=2))


def _render(node):
    kind = node[0]
    if kind == "num":
        _, n, d = node
        return str(n) if d is None else f"{n}/{d}"
    if kind == "var":
        return node[1]
    if kind == "paren":
        return f"({_render(node[1])})"
    if kind == "pow":
        return f"{_render(node[1])}^{node[2]}"
    if kind == "mul":
        return "*".join(map(_render, node[1]))
    _, neg, parts = node
    text = "-" if neg else ""
    for i, (op, t) in enumerate(parts):
        text += (f" {op} " if i else "") + _render(t)
    return text


def _evaluate(node, ring):
    kind = node[0]
    if kind == "num":
        _, n, d = node
        c = ring.constant(n)
        return c if d is None else c * ring.field.inv(ring.field.from_int(d))
    if kind == "var":
        return ring.gen(node[1])
    if kind == "paren":
        return _evaluate(node[1], ring)
    if kind == "pow":
        f, n, out = _evaluate(node[1], ring), node[2], ring.one()
        k = len(f.terms)
        if node[1][0] == "paren" and k > 1:
            _budget(math.comb(n + k - 1, k - 1), [f], [n])
        for _ in range(n):
            out = out * f
        return out
    if kind == "mul":
        out, product = ring.one(), None
        for factor in node[1]:
            f = _evaluate(factor, ring)
            if _parenthesized(factor):
                if product is not None:
                    _budget(len(product.terms) * len(f.terms),
                            [product, f], [1, 1])
                product = f if product is None else product * f
            out = out * f
        return out
    _, neg, parts = node
    out = ring.zero()
    for i, (op, t) in enumerate(parts):
        f = _evaluate(t, ring)
        if i == 0 and neg:
            f = -f
        out = out + f if op == "+" else out - f
    return out


@settings(max_examples=300, deadline=None)
@given(_exprs(), st.sampled_from([0, 5, 32003]))
def test_parser_matches_polynomial_arithmetic(tree, p):
    ring = PolynomialRing(GF(p) if p else QQ, _VARS)
    text = _render(tree)
    try:
        want = _evaluate(tree, ring)
    except _OverBudget:
        with pytest.raises(PolyParseError, match="MAX_POWER_TERMS"):
            parse_polynomial(text, ring)
        return
    f = parse_polynomial(text, ring)
    assert f == want, text
    for c in f.terms.values():
        assert type(c) is (int if p else Fraction)
        assert 0 < c < p if p else c


_MALFORMED = [
    (0, '',
     "expected a coefficient, variable or '(', found 'end of input'", 0),
    (0, '   ',
     "expected a coefficient, variable or '(', found 'end of input'", 3),
    (0, 'x +',
     "expected a coefficient, variable or '(', found 'end of input'", 3),
    (0, 'x ++ y', "expected a coefficient, variable or '(', found '+'", 3),
    (0, '2x', "missing operator before 'x'", 1),
    (0, 'x y', "missing operator before 'y'", 2),
    (0, 'x 2', "missing operator before '2'", 2),
    (0, '(x + y', "expected ')', found 'end of input'", 6),
    (0, 'x + y)', "trailing input ')'", 5),
    (0, 'x^', "expected 'int', found 'end of input'", 2),
    (0, 'x^y', "expected 'int', found 'y'", 2),
    (0, 'x^-1', "expected 'int', found '-'", 2),
    (0, 'x^2^3', "trailing input '^'", 3),
    (0, 'x^2 3', "trailing input '3'", 4),
    (0, 'z', "unknown variable 'z'", 0),
    (0, 'x + z^2', "unknown variable 'z'", 4),
    (0, '1/0', 'zero denominator', 0),
    (0, '1/x', "expected 'int', found 'x'", 2),
    (0, '3/', "expected 'int', found 'end of input'", 2),
    (0, '3/-1', "expected 'int', found '-'", 2),
    (0, 'x*',
     "expected a coefficient, variable or '(', found 'end of input'", 2),
    (0, '*x', "expected a coefficient, variable or '(', found '*'", 0),
    (0, '--x', "expected a coefficient, variable or '(', found '-'", 1),
    (0, '- -x', "expected a coefficient, variable or '(', found '-'", 2),
    (0, 'x $ y', "unexpected character '$'", 2),
    (0, '()', "expected a coefficient, variable or '(', found ')'", 1),
    (0, '(x)(y)', "trailing input '('", 3),
    (0, '1/2/3', "trailing input '/'", 3),
    (0, 'x^(2)', "expected 'int', found '('", 2),
    (0, '(x+1)^2 y', "trailing input 'y'", 8),
    (0, '((x)', "expected ')', found 'end of input'", 4),
    (0, 'x**2', "expected a coefficient, variable or '(', found '*'", 2),
    (0, 'x.5', "unexpected character '.'", 1),
    (0, '2,5', "unexpected character ','", 1),
    (0, 'x+y+',
     "expected a coefficient, variable or '(', found 'end of input'", 4),
    (0, '(',
     "expected a coefficient, variable or '(', found 'end of input'", 1),
    (0, ')', "expected a coefficient, variable or '(', found ')'", 0),
    (0, 'x - (y *)', "expected a coefficient, variable or '(', found ')'", 8),
    (0, '3 / 0', 'zero denominator', 0),
    (0, '0/0', 'zero denominator', 0),
    (0, 'x^ 2 2', "trailing input '2'", 5),
    (0, '1/0 $', "unexpected character '$'", 4),
    (0, 'z + 1/0', "unknown variable 'z'", 0),
    (0, 'x²', "unknown variable 'x²'", 0),
    (0, '(x + y)^2 * z', "unknown variable 'z'", 12),
    (0, '2*(x - 1/0)', 'zero denominator', 7),
    (5, '1/5', 'zero denominator', 0),
    (5, '2/10', 'zero denominator', 0),
    (5, 'x + 3/15', 'zero denominator', 4),
    (5, 'x/5', "trailing input '/'", 1),
    (5, '(x + y)^3 * 1/5', 'zero denominator', 12),
]


@pytest.mark.parametrize("p, text, message, position", _MALFORMED)
def test_malformed_input_messages_are_pinned(p, text, message, position):
    ring = PolynomialRing(GF(p) if p else QQ, ("x", "y"))
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(text, ring)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize("text, position", [
    ("x^\u00b2", 2), ("\u00b2", 0), ("2\u00b2", 1),
    ("x^\u0661\u0662", 2), ("x + \uff11", 4)])
def test_integers_are_ascii_digits(text, position):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(text, PolynomialRing(QQ, ("x",)))
    assert str(err.value) == \
        f"unexpected character {text[position]!r} (at position {position})"


def test_power_term_budget():
    """A parenthesized k-term base f to the n-th power has at most
    C(n+k-1, k-1) terms, and at most the product over the variables of
    n * spread + 1; a product f*g of parenthesized factors at most
    len(f)*len(g) and the product of the summed spreads + 1.  Past
    MAX_POWER_TERMS either is refused before it is expanded.  Monomial
    bases are never expanded and stay unbounded."""
    assert MAX_POWER_TERMS == 1500
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    for text, count in (("(x + y)^1499", 1500), ("(x + y + z)^53", 1485),
                        ("(x^2 + x + 1)^54", 109),
                        ("(x^3 + x^2 + x + 1)^19", 58),
                        ("(x*y^2 + x^2*y)^1000", 1001),
                        ("(x - 1)^749*(x + 1)^750", 1500),
                        ("(x + y)^20*(x - y)^20", 21)):
        assert len(parse_polynomial(text, ring).terms) == count, text
    for text, position, message in (
            ("(x + y)^1500", 8, "a 2-term polynomial to the power 1500"),
            ("(x + y + z)^54", 12, "a 3-term polynomial to the power 54"),
            ("(x^2 + x + 1)^750", 14, "a 3-term polynomial to the power 750"),
            ("x*(x + y + 1)^3000", 14, "a 3-term polynomial to the power 3000"),
            ("(x + y)^100000", 8, "a 2-term polynomial to the power 100000"),
            ("(x - 1)^750*(x + 1)^750", 12,
             "a product of 751-term and 751-term polynomials"),
            ("2*(x + y + z)^53*(x + y + z)^53*(x + y + z)^53", 17,
             "a product of 1485-term and 1485-term polynomials")):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, ring)
        assert str(err.value) == \
            f"{message} may have more than MAX_POWER_TERMS = 1500 terms " \
            f"(at position {position})"
    assert parse_polynomial("(2*x*y)^13000 + x^20000", ring) == \
        ring.monomial((13000, 13000, 0), QQ.from_int(2 ** 13000)) + \
        ring.monomial((20000, 0, 0))
    assert parse_polynomial("(x + y - y)^20000", ring) == \
        ring.monomial((20000, 0, 0))


def test_digit_budget():
    """Integer tokens of more than MAX_DIGITS digits, and over Q terms
    whose estimated coefficient digits pass MAX_DIGITS, are parse errors
    at their position, raised before any power or product is computed;
    what parses renders."""
    assert MAX_DIGITS == 4000
    ring = PolynomialRing(QQ, ("x", "y"))
    digits = "7" * 5000
    for text, position in ((f"x - {digits}", 4), (f"x - 1/{digits}", 6),
                           (f"x^{digits}", 2)):
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, ring)
        assert str(err.value) == "an integer of 5000 digits is over " \
            f"MAX_DIGITS = 4000 (at position {position})"
    nines = "9" * 1000
    for text, position in (("x - 3^10000000", 4), ("(x + 99999)^900", 0),
                           ("(x + 99999)^1400", 0), ("y*3/7^5000", 2),
                           ("7^2000*x*7^2000*7^2000", 16),
                           ("(1/99999*x + 1)^900", 0),
                           ("(x + 99999)^500*(x - 99999)^500", 16),
                           (f"x + (x + {nines})^5", 4),
                           ("(300*x + 300)^1499", 0), ("(2*x*y)^20000", 0),
                           ("2^" + "9" * 3999, 0)):
        start = time.process_time()
        with pytest.raises(PolyParseError) as err:
            parse_polynomial(text, ring)
        assert time.process_time() - start < 0.5, text
        assert str(err.value) == "a coefficient may have more than " \
            f"MAX_DIGITS = 4000 digits (at position {position})", text
    for text in ("3^8000*x - " + "7" * 4000, f"(x + {nines})^3",
                 f"(1/{nines}9*x + y)^3", "2^13000*x^99999",
                 "1^" + "9" * 3999 + "*x"):
        f = parse_polynomial(text, ring)
        assert all(len(str(abs(c.numerator))) <= 4000 and
                   len(str(c.denominator)) <= 4000
                   for c in f.terms.values()), text
        str(f)
    # over F_p coefficients stay below p: only the token bound applies
    f5 = PolynomialRing(GF(5), ("x",))
    assert parse_polynomial("x - 3^10000000", f5) == \
        parse_polynomial("x - 1", f5)


def _cpu_seconds(text, ring):
    start = time.process_time()
    parse_polynomial(text, ring)
    return time.process_time() - start


def test_largest_two_term_power_parses_within_a_second():
    """The budget is set so that the largest two-term power it accepts
    over Q expands in under a second of CPU time; this rests on squaring
    by _square_terms, which forms each cross product once."""
    ring = PolynomialRing(QQ, ("x", "y"))
    assert any(_cpu_seconds("(x + y)^1499", ring) < 1 for _ in range(3))
