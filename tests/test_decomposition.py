"""Primary decomposition over the supported classes: monomial ideals in
any number of variables, arbitrary ideals on a line."""

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grady.decomposition import (ASSUMED, VERIFIED, UnsupportedClassError,
                                 _divisors, _fp_divmod, _fp_factor, _fp_gcd,
                                 _irreducible_split, _irredundant, _mul_uni,
                                 _squarefree, _z_rational_roots,
                                 associated_primes, classical_decomposition,
                                 minimal_primes, monomial_dimension,
                                 monomial_primary_decomposition,
                                 monomial_radical, radical_ideal,
                                 univariate_primary_decomposition)
from grady.groebner import (Ideal, _monomial_meet, _monomial_radical, colon,
                            intersect_all)
from grady.poly import GF, QQ, Polynomial, PolynomialRing


def _from_coeffs(ring, coeffs):
    return Polynomial(ring, {(i,): c for i, c in enumerate(coeffs)})


# Padded-list helpers for the references below, copied from the kernel
# they check: zero is [0], and the degree is found by a scan.

def _deg(a):
    for i in range(len(a) - 1, -1, -1):
        if a[i] != 0:
            return i
    return -1


def _trim(a):
    return a[:_deg(a) + 1]


def _divmod_uni(a, b, field):
    p = field.characteristic
    a = list(a)
    db = _deg(b)
    inv = field.inv(b[db])
    q = [0] * max(len(a) - db, 1)
    while _deg(a) >= db:
        da = _deg(a)
        c = a[da] * inv % p
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] = (a[da - db + i] - c * b[i]) % p
    return _trim(q) or [0], _trim(a) or [0]


def _monic_uni(a, field):
    p = field.characteristic
    inv = field.inv(a[_deg(a)])
    return [c * inv % p for c in a]


def _gens(I):
    return [str(g) for g in I.canonical_generators()]


def _comp_gens(dec):
    return [_gens(c.component) for c in dec.components]


def test_is_monomial_ideal(Rxy):
    assert Ideal(Rxy, ["x^2", "x*y"]).is_monomial
    # reduced basis reveals hidden monomial ideals
    assert Ideal(Rxy, ["x + y^2", "y^2"]).is_monomial
    assert not Ideal(Rxy, ["x + y"]).is_monomial


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


# ---------------------------------------------------------------------------
# Factoring over F_p against the trial division it replaced.

REFERENCE_CANDIDATES = 5000


def _trial_division_reference(f_coeffs, field):
    """{monic irreducible tuple: multiplicity} by trial division with monic
    candidates of ascending degree, so any successful division is by an
    irreducible; None once the search would pass REFERENCE_CANDIDATES."""
    p = field.characteristic
    f = _monic_uni(_trim(list(f_coeffs)), field)
    factors = {}
    d = 1
    candidates = 0
    while _deg(f) >= 1:
        if 2 * d > _deg(f):
            factors[tuple(f)] = factors.get(tuple(f), 0) + 1
            break
        candidates += p ** d
        if candidates > REFERENCE_CANDIDATES:
            return None
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            while True:
                q, r = _divmod_uni(f, g, field)
                if _deg(r) >= 0:
                    break
                factors[tuple(g)] = factors.get(tuple(g), 0) + 1
                f = q
            if _deg(f) < d:
                break
        d += 1
    return factors


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = (out[i + j] + c * d) % p
    return out


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail instead of hanging when a splitting loop never ends."""
    def expire(signum, frame):
        raise TimeoutError(f"factoring took over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _check_factoring(f, p):
    """f (dense, any leading coefficient) factors into monic polynomials
    whose product with multiplicities is monic f, and agrees with trial
    division wherever that search is small enough."""
    field = GF(p)
    ring = PolynomialRing(field, ("x",))
    with _time_limit(10):
        factors = {tuple(q): mult
                   for q, mult in _fp_factor(_from_coeffs(ring, f))}
    product = [1]
    for q, mult in factors.items():
        assert q[-1] == 1 and len(q) >= 2
        for _ in range(mult):
            product = _mul(product, list(q), p)
    assert product == _monic_uni(_trim(list(f)), field)
    reference = _trial_division_reference(f, field)
    if reference is not None:
        assert factors == reference
    return factors


PRIMES = [2, 3, 5, 7, 31, 2147483647]


@st.composite
def _fp_products(draw):
    """(coefficients, p): a scaled product of random monic polynomials
    with multiplicities, of total degree 1 to 8, so factors repeat and
    share irreducible factors."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, p - 1)
    f = [draw(st.integers(1, p - 1))]
    budget = 8
    for _ in range(draw(st.integers(1, 4))):
        if budget < 1:
            break
        deg = draw(st.integers(1, min(3, budget)))
        mult = draw(st.integers(1, budget // deg))
        g = draw(st.lists(coeff, min_size=deg, max_size=deg)) + [1]
        for _ in range(mult):
            f = _mul(f, g, p)
        budget -= deg * mult
    return f, p


@settings(max_examples=300, deadline=None)
@given(_fp_products())
@example(([0, 0, 1, 1, 1], 2))  # x^2 (x^2 + x + 1)
@example(([1, 0, 0, 0, 0, 0, 0, 0, 1], 2))  # (x + 1)^8
@example(([0, 1, 0, 0, 0, 0, 0, 6], 7))  # -(x^7 - x), all of F7
def test_fp_factor_matches_trial_division(case):
    _check_factoring(*case)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.data())
def test_fp_factor_of_pth_powers(p, data):
    """g(x^p) = g^p over F_p: the squarefree loop sees a zero derivative,
    takes the p-th root and multiplies multiplicities by p.  A random
    cofactor h leaves the p-th power behind after the loop instead."""
    max_deg = 8 // p
    coeff = st.integers(0, p - 1)
    g = data.draw(st.lists(coeff, min_size=max_deg, max_size=max_deg))
    g = _trim(g + [1])
    g_of_xp = [0] * (p * (len(g) - 1) + 1)
    g_of_xp[::p] = g
    g_to_p = [1]
    for _ in range(p):
        g_to_p = _mul(g_to_p, g, p)
    assert g_of_xp == g_to_p
    factors = _check_factoring(g_of_xp, p)
    assert all(m % p == 0 for m in factors.values())
    room = 8 - (len(g_of_xp) - 1)
    if room:
        h = data.draw(st.lists(coeff, min_size=room, max_size=room)) + [1]
        _check_factoring(_mul(g_of_xp, h, p), p)


@pytest.mark.parametrize("p, factors", [
    (2, [[0, 1], [1, 1]]),
    (2, [[1, 1, 0, 1], [1, 0, 1, 1]]),
    (3, [[1, 0, 1], [2, 1, 1], [2, 2, 1]]),
    (7, [[-r % 7, 1] for r in range(7)]),
    (31, [[c, 0, 1] for c in (1, 2, 4, 5)]),
    (2147483647, [[-r % 2147483647, 1] for r in (1, 2, 10 ** 9)]
     + [[1, 0, 1]]),
], ids=["F2-linear", "F2-cubics", "F3-quadratics", "F7-linear",
        "F31-quadratics", "F2147483647-mixed"])
def test_fp_factor_splits_equal_degree_factors(p, factors):
    """Several irreducible factors of one degree reach equal-degree
    splitting as a single product from distinct-degree factoring."""
    f = [1]
    for q in factors:
        f = _mul(f, q, p)
    assert _check_factoring(f, p) == {tuple(q): 1 for q in factors}


def test_high_multiplicity_over_fp_stays_within_budget_time():
    """Yun's loop runs 1401 levels of division by small divisors; each
    division costs its quotient's length, not a rescan of the dividend."""
    R = PolynomialRing(GF(5), ("x",))
    I = Ideal(R, ["(x - 1)^1401 * (x^2 + 2)^3"])
    with _time_limit(5):
        dec = univariate_primary_decomposition(I)
        radical = radical_ideal(I)
    assert [c.component for c in dec.components] == [
        Ideal(R, ["(x + 4)^1401"]), Ideal(R, ["(x^2 + 2)^3"])]
    assert [_gens(c.radical) for c in dec.components] == [
        ["x + 4"], ["x^2 + 2"]]
    assert radical == Ideal(R, ["(x + 4) * (x^2 + 2)"])


def _is_trimmed(a):
    return not a or a[-1] != 0


@st.composite
def _residue_lists(draw):
    """(p, a, b): trimmed residue lists of degree below 8 over F_p."""
    p = draw(st.sampled_from(PRIMES))
    lists = st.lists(st.integers(0, p - 1), max_size=8).map(_trim)
    return p, draw(lists), draw(lists)


@settings(max_examples=300, deadline=None)
@given(_residue_lists())
@example((5, [], []))
@example((2, [1, 1], []))
@example((7, [3], [0, 0, 5]))
def test_fp_kernel_on_trimmed_lists(case):
    """Division with remainder and the monic gcd over F_p keep lists
    trimmed and agree with the padded reference division."""
    p, a, b = case
    field = GF(p)
    if b:
        q, r = _fp_divmod(a, b, p)
        assert _is_trimmed(q) and _is_trimmed(r)
        assert len(r) < len(b)
        qb = _mul(q, b, p) if q else []
        assert _trim([(u + v) % p for u, v in itertools.zip_longest(
            qb, r, fillvalue=0)]) == a
        assert [_trim(t) for t in _divmod_uni(a, b, field)] == [q, r]
    g = _fp_gcd(a, b, p)
    assert _is_trimmed(g)
    if not a and not b:
        assert g == []
    else:
        assert g[-1] == 1
        assert _fp_divmod(a, g, p)[1] == [] and _fp_divmod(b, g, p)[1] == []


def test_univariate_over_rationals():
    R = PolynomialRing(QQ, ("x",))
    dec = univariate_primary_decomposition(
        Ideal(R, ["(x^2 - 2) * (x - 1)^2"]))
    by_status = {c.status: c for c in dec.components}
    assert by_status[VERIFIED].radical == Ideal(R, ["x - 1"])
    assert by_status[ASSUMED].radical == Ideal(R, ["x^2 - 2"])
    assert dec.intersection() == dec.target


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


def test_univariate_components_sort_by_degree_then_rendered_text():
    """Components of one degree are ordered by the printed radical, which
    is not a numeric order ("x + 10" < "x + 2"): a numeric key on the
    coefficients would change the output."""
    R = PolynomialRing(QQ, ("x",))
    dec = univariate_primary_decomposition(
        Ideal(R, ["(x + 2)*(x + 10)*(x^2 + 1)"]))
    assert [str(c.radical.generators[0]) for c in dec.components] == [
        "x + 10", "x + 2", "x^2 + 1"]


# ---------------------------------------------------------------------------
# The integer kernel over Q against the Fraction arithmetic it replaced:
# Yun's loop with monic field gcds and the rational-root search, copied.

def _ref_divmod(a, b):
    a = list(a)
    db = _deg(b)
    inv = 1 / b[db]
    q = [Fraction(0)] * max(len(a) - db, 1)
    while _deg(a) >= db:
        da = _deg(a)
        c = a[da] * inv
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
    return _trim(q) or [Fraction(0)], _trim(a) or [Fraction(0)]


def _ref_monic(a):
    inv = 1 / a[_deg(a)]
    return [c * inv for c in a]


def _ref_gcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while _deg(b) >= 0:
        a, b = b, _ref_divmod(a, b)[1]
    return a if _deg(a) < 0 else _ref_monic(a)


def _ref_squarefree(coeffs):
    """[(monic squarefree part, multiplicity)] over Q by Yun's loop."""
    a = _ref_monic(_trim(list(coeffs)))
    derivative = _trim([a[i] * i for i in range(1, len(a))]) or [Fraction(0)]
    c = _ref_gcd(a, derivative)
    w = _ref_divmod(a, c)[0]
    out = []
    i = 1
    while _deg(w) >= 1:
        y = _ref_gcd(w, c)
        z = _ref_divmod(w, y)[0]
        if _deg(z) >= 1:
            out.append((z, i))
        w = y
        c = _ref_divmod(c, y)[0]
        i += 1
    return out


def _ref_rational_roots(s):
    """Sorted rational roots of a squarefree s with Fraction coefficients,
    each candidate tested by Fraction Horner evaluation."""
    den = math.lcm(*(c.denominator for c in s))
    ints = [int(c * den) for c in s]
    roots = []
    if ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
    if _deg(ints) < 1:
        return roots
    if _deg(ints) == 1:
        return sorted(roots + [Fraction(-ints[0], ints[1])])
    for p in _divisors(ints[0]):
        for q in _divisors(ints[_deg(ints)]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(_trim(ints)):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(roots)


def _ref_residue(z, roots):
    """z divided by x - r for each rational root r."""
    for root in roots:
        z = _ref_divmod(z, [-root, Fraction(1)])[0]
    return z


def _ref_decomposition(ring, coeffs):
    """[(component, radical, status)] as printed, built the old way: field
    arithmetic, and ideals whose bases Buchberger computes."""
    rows = []
    for z, mult in _ref_squarefree(coeffs):
        roots = _ref_rational_roots(z)
        bases = [([-root, Fraction(1)], VERIFIED) for root in roots]
        residue = _ref_residue(z, roots)
        if _deg(residue) >= 1:
            bases.append((residue, ASSUMED))
        for base, status in bases:
            base = _from_coeffs(ring, base)
            radical = Ideal(ring, [base]).canonical_generators()[0]
            rows.append(((radical.total_degree(), str(radical)),
                         (_gens(Ideal(ring, [base ** mult])),
                          [str(radical)], status)))
    return [row for _, row in sorted(rows)]


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _q_products(draw):
    """Dense Fraction coefficients of c * prod f_i^e_i: random linear and
    quadratic f_i with rational coefficients, multiplicities 1 to 4,
    total degree at most 12, and a random nonzero scalar c, so the lead
    may be negative and the content above one."""
    f = [draw(_fractions.filter(bool)) * draw(st.integers(1, 12))]
    budget = 12
    for _ in range(draw(st.integers(1, 4))):
        if budget < 1:
            break
        deg = draw(st.integers(1, min(2, budget)))
        mult = draw(st.integers(1, min(4, budget // deg)))
        g = draw(st.lists(_fractions, min_size=deg, max_size=deg))
        g.append(draw(_fractions.filter(bool)))
        for _ in range(mult):
            f = _mul_uni(f, g, 0)
        budget -= deg * mult
    return f


@settings(max_examples=200, deadline=None)
@given(_q_products())
@example([Fraction(c) for c in (0, -6, 0, 6)])         # 6 x (x^2 - 1)
@example([Fraction(-3, 2), Fraction(0), Fraction(-3, 2), Fraction(0),
          Fraction(-3, 8)])                             # -3/8 (x^2 + 2)^2
@example([Fraction(c * 12) for c in (1, -2, 1)])        # 12 (x - 1)^2
@example([Fraction(c, 3) for c in (0, 0, -2, 1)])       # x^2 (x - 2) / 3
def test_integer_kernel_matches_fraction_reference(coeffs):
    """Squarefree parts, multiplicities, rational roots, radical and the
    published decomposition over Q equal those of field arithmetic."""
    ring = PolynomialRing(QQ, ("x",))
    f = _from_coeffs(ring, coeffs)
    reference = _ref_squarefree(coeffs)
    parts = _squarefree(f)
    assert [([Fraction(c, z[-1]) for c in z], mult)
            for z, mult in parts] == reference
    for (z, _), (ref, _) in zip(parts, reference):
        roots, rest = _z_rational_roots(z)
        ref_roots = _ref_rational_roots(ref)
        assert sorted(Fraction(p, q) for p, q in roots) == ref_roots
        assert [Fraction(c, rest[-1]) for c in rest] == \
            _ref_residue(ref, ref_roots)

    I = Ideal(ring, [f])
    product = math.prod((_from_coeffs(ring, z) for z, _ in reference),
                        start=ring.one())
    assert _gens(radical_ideal(I)) == _gens(Ideal(ring, [product]))

    dec = univariate_primary_decomposition(I)
    assert [(_gens(c.component), _gens(c.radical), c.status)
            for c in dec.components] == _ref_decomposition(ring, coeffs)


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


def _drop_one_reference(I, split):
    """(component, radical) exponent tuples by the pipeline without the
    Ass filter: merge every support group of the split, in (size,
    support) order, then keep what the greedy drop-one pass keeps."""
    gens = I.monomial_generators()
    groups = {}
    for q in _irreducible_split(gens, split):
        sup = tuple(sorted({i for m in q for i, e in enumerate(m) if e}))
        groups.setdefault(sup, []).append(q)
    merged = [reduce(_monomial_meet, groups[sup])
              for sup in sorted(groups, key=lambda sup: (len(sup), sup))]
    return [(merged[i], _monomial_radical(merged[i]))
            for i in _irredundant(merged, gens, _monomial_meet)]


@st.composite
def _small_monomial_ideals(draw):
    n = draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 5)] * n).filter(any)
    return n, draw(st.lists(exps, max_size=6)), \
        draw(st.sampled_from(["first", "last"]))


@settings(max_examples=300, deadline=None)
@given(_small_monomial_ideals())
@example((3, [], "first"))
@example((3, [], "last"))
@example((1, [(4,)], "first"))
@example((3, [(0, 0, 3)], "last"))
@example((3, [(3, 1, 0), (2, 0, 2), (0, 2, 1)], "first"))
@example((3, [(3, 1, 0), (2, 0, 2), (0, 2, 1)], "last"))
def test_ass_filter_matches_the_drop_one_pass(case):
    """Merging only the support groups on Ass(I), the supports of the
    inclusion-minimal leaves, publishes the components, radicals and
    order that the greedy drop-one pass over all merged groups keeps."""
    n, gens, split = case
    R = PolynomialRing(GF(5), ("x", "y", "z", "w", "v")[:n])
    I = Ideal(R, [R.monomial(m) for m in gens])
    dec = monomial_primary_decomposition(I, split=split)
    assert [(c.component.monomial_generators(),
             c.radical.monomial_generators())
            for c in dec.components] == _drop_one_reference(I, split)
