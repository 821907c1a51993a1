"""Gradings, homogeneous components, and the star operator."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grady.grading import (GradedRing, GradingGroup, Hdeg, degree_of,
                           homogeneous_components, is_g_ideal, is_homogeneous,
                           star)
from grady.groebner import Ideal, colon, intersect
from grady.oracle import oracle_compare
from grady.poly import GF, QQ, Polynomial, PolynomialRing, parse_polynomial

from conftest import line_with_torsion


def test_grading_group_basics():
    G = GradingGroup(1, (2,))
    assert G.degree((3,), (5,)) == Hdeg((3,), (1,))   # residue reduced
    a = G.degree((1,), (1,))
    assert G.sub(a, a) == Hdeg((0,), (0,))
    assert G.sub(a, G.degree((3,), (0,))) == Hdeg((-2,), (1,))
    assert G.sub(G.degree((0,), (0,)), a) == Hdeg((-1,), (1,))
    with pytest.raises(ValueError):
        G.degree((1, 2), (0,))
    with pytest.raises(ValueError):
        GradingGroup(-1)
    with pytest.raises(ValueError):
        GradingGroup(0, (1,))


def test_graded_ring_validation(Rxy):
    G = GradingGroup(1, ())
    with pytest.raises(ValueError):
        GradedRing(Rxy, G, [((1,), ())])    # one degree missing


@pytest.mark.parametrize("wrong", [((1, 1), ()), Hdeg((1, 1), ())],
                         ids=["tuple", "Hdeg"])
def test_graded_ring_checks_the_shape_of_every_degree_form(Rxy, wrong):
    with pytest.raises(ValueError, match="wrong shape"):
        GradedRing(Rxy, GradingGroup(1, ()), [((1,), ()), wrong])


def test_homogeneous_components(Rxy, fine_xy):
    f = parse_polynomial("x^2*y^2 + x*y^3 + x^2", Rxy)
    comps = homogeneous_components(f, fine_xy)
    assert len(comps) == 3
    assert comps[Hdeg((2, 2), ())] == parse_polynomial("x^2*y^2", Rxy)
    assert is_homogeneous(parse_polynomial("x^2*y^2", Rxy), fine_xy)
    assert not is_homogeneous(f, fine_xy)
    assert degree_of(f, fine_xy) is None
    assert degree_of(parse_polynomial("x*y^3", Rxy), fine_xy) == \
        Hdeg((1, 3), ())


def test_is_g_ideal(q_ideal, q_star, fine_xy):
    assert not is_g_ideal(q_ideal, fine_xy)
    assert is_g_ideal(q_star, fine_xy)


@st.composite
def _graded_ideals(draw):
    """An ideal of F5 or Q in one or two variables, graded by Z^r plus at
    most one Z/m."""
    field = draw(st.sampled_from((GF(5), QQ)))
    n = draw(st.integers(1, 2))
    ring = PolynomialRing(field, ("x", "y")[:n])
    mono = st.lists(st.integers(0, n - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n)))
    coeff = st.integers(1, 4) | st.integers(-4, -1)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(
        lambda t: Polynomial(ring, t))
    I = Ideal(ring, draw(st.lists(poly, min_size=1, max_size=3)))
    rank = draw(st.integers(0, 2))
    torsion = draw(st.lists(st.sampled_from((2, 3, 4)), max_size=1))
    degrees = [(tuple(draw(st.integers(-1, 1)) for _ in range(rank)),
                tuple(draw(st.integers(0, m - 1)) for m in torsion))
               for _ in range(n)]
    return I, GradedRing(ring, GradingGroup(rank, tuple(torsion)), degrees)


_QXY = PolynomialRing(QQ, ("x", "y"))
_FINE_QXY = GradedRing(_QXY, GradingGroup(2, ()),
                       [((1, 0), ()), ((0, 1), ())])


# (x + y, y) is (x, y): inhomogeneous generators of a homogeneous ideal
@settings(max_examples=100, deadline=None)
@given(_graded_ideals())
@example((Ideal(_QXY, ["x + y", "y"]), _FINE_QXY))
def test_is_g_ideal_reads_the_reduced_basis(case):
    """is_g_ideal agrees with its definition (every component of every
    generator lies in I) and with star(I) == I; degree_of and
    is_homogeneous agree with homogeneous_components."""
    I, graded = case
    definition = all(I.contains(c) for g in I.generators
                     for c in homogeneous_components(g, graded).values())
    assert is_g_ideal(I, graded) == definition == (star(I, graded) == I)
    for f in I.generators + I.groebner().elements:
        comps = homogeneous_components(f, graded)
        assert is_homogeneous(f, graded) == (len(comps) <= 1)
        assert degree_of(f, graded) == \
            (next(iter(comps)) if len(comps) == 1 else None)


def test_star_of_running_example(q_ideal, q_star, fine_xy):
    assert star(q_ideal, fine_xy) == q_star
    assert q_ideal != q_star


def test_star_on_the_torus_line():
    ring = PolynomialRing(QQ, ("t",))
    graded = GradedRing(ring, GradingGroup(1, ()), [((1,), ())])
    assert star(Ideal(ring, ["t - 1"]), graded).is_zero


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_star_under_torsion_two(field):
    ring, graded = line_with_torsion(field, 2)
    S = star(Ideal(ring, ["x - 1"]), graded)
    assert S == Ideal(ring, ["x^2 - 1"])


def test_star_under_torsion_three():
    ring, graded = line_with_torsion(QQ, 3)
    S = star(Ideal(ring, ["x - 1"]), graded)
    assert S == Ideal(ring, ["x^3 - 1"])


def test_star_fixes_monomial_ideals(Rxy):
    graded = GradedRing(Rxy, GradingGroup(1, (2,)),
                        [((2,), (1,)), ((-1,), (0,))])
    I = Ideal(Rxy, ["x^2", "x*y^3"])
    assert star(I, graded) == I


def test_star_with_mixed_grading(Rxy):
    graded = GradedRing(Rxy, GradingGroup(1, (2,)),
                        [((1,), (1,)), ((1,), (0,))])
    I = Ideal(Rxy, ["x^2 - y^2"])
    assert star(I, graded) == I     # already homogeneous
    J = Ideal(Rxy, ["x - y"])
    S = star(J, graded)
    assert S == Ideal(Rxy, ["x^2 - y^2"])   # forced to even torsion degree


def test_star_splits_generators_whose_components_lie_in_the_ideal(
        Rxy, fine_xy):
    # x and y, the components of both generators, lie in (x+y, x-y); its
    # reduced basis is (x, y) itself, so the star needs no elimination.
    I = Ideal(Rxy, ["x + y", "x - y"])
    assert star(I, fine_xy) == Ideal(Rxy, ["x", "y"])
    assert oracle_compare(I, fine_xy).passed


def test_star_of_unit_and_zero(Rxy, fine_xy):
    assert star(Ideal(Rxy, ["1"]), fine_xy).is_unit
    assert star(Ideal(Rxy), fine_xy).is_zero


def test_star_rejects_foreign_ring(Rxy, fine_xy):
    other = PolynomialRing(QQ, ("a",))
    with pytest.raises(ValueError):
        star(Ideal(other, ["a"]), fine_xy)


def _random_setup(rng):
    n = rng.choice((1, 2))
    ring = PolynomialRing(GF(5), ("x", "y")[:n])
    r, s = rng.choice(((1, 0), (0, 1), (1, 1)))
    moduli = (rng.choice((2, 3)),) if s else ()
    group = GradingGroup(r, moduli)
    degs = [(tuple(rng.randint(-2, 2) for _ in range(r)),
             tuple(rng.randrange(m) for m in moduli))
            for _ in range(n)]
    graded = GradedRing(ring, group, degs)

    def rand_poly():
        f = ring.zero()
        for _ in range(rng.randint(1, 2)):
            m = tuple(rng.randint(0, 3) for _ in range(n))
            f = f + ring.monomial(m, ring.field.from_int(rng.randint(1, 4)))
        return f

    return ring, graded, rand_poly


def test_star_laws_random_sample():
    rng = random.Random(42)
    done = 0
    while done < 25:
        ring, graded, rand_poly = _random_setup(rng)
        I = Ideal(ring, [rand_poly() for _ in range(rng.randint(1, 2))])
        if I.is_unit:
            continue
        done += 1
        S = star(I, graded)
        assert S <= I
        assert is_g_ideal(S, graded)
        assert star(S, graded) == S
        K = Ideal(ring, [rand_poly()])
        assert star(intersect(I, K), graded) == \
            intersect(S, star(K, graded))
        m = ring.monomial(tuple(rng.randint(0, 2)
                                for _ in range(ring.nvars)))
        assert star(colon(I, m), graded) == colon(S, m)
