"""Primary decomposition over the supported classes: monomial ideals in
any number of variables, arbitrary ideals on a line."""

import contextlib
import itertools
import random
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grady.decomposition import (ASSUMED, VERIFIED, UnsupportedClassError,
                                 _deg, _divmod_uni, _fp_factor, _from_coeffs,
                                 _monic_uni, _trim, associated_primes,
                                 classical_decomposition, minimal_primes,
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
        factors = _fp_factor(_from_coeffs(ring, f), field)
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
