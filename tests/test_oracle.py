"""Truncated-space oracle: linear-algebra verification of star outputs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grady.oracle as oracle
from grady.grading import GradedRing, GradingGroup, star
from grady.groebner import Ideal
from grady.oracle import (BadPrimeError, ResourceLimitError, Subspace,
                          TruncatedSpace, _rref, monomials_up_to,
                          oracle_compare, oracle_compare_rationals,
                          reduce_ideal_mod, truncated_ideal_basis,
                          truncated_star_basis)
from grady.poly import GF, QQ, PolynomialRing, parse_polynomial

from conftest import line_with_torsion


def test_monomials_up_to():
    ms = monomials_up_to(2, 2)
    assert ms == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(monomials_up_to(3, 4)) == math.comb(7, 3)


def test_truncated_space_basics():
    ring = PolynomialRing(GF(5), ("x", "y"))
    space = TruncatedSpace(ring, 3)
    assert space.dimension == math.comb(5, 2)
    f = parse_polynomial("x^2 + 3*y", ring)
    assert space.polynomial(space.vector(f)) == f
    with pytest.raises(ValueError):
        space.vector(parse_polynomial("x^4", ring))


def test_truncated_space_rejects_rationals():
    with pytest.raises(ValueError):
        TruncatedSpace(PolynomialRing(QQ, ("x",)), 3)


def test_truncated_ideal_basis_monomial():
    ring = PolynomialRing(GF(5), ("x",))
    B = truncated_ideal_basis(Ideal(ring, ["x"]), 3)
    assert B.dimension == 3     # x, x^2, x^3
    assert B.contains(parse_polynomial("2*x^3 + x", ring))
    assert not B.contains(ring.one())
    assert truncated_ideal_basis(Ideal(ring), 3).dimension == 0
    assert truncated_ideal_basis(Ideal(ring, ["1"]), 3).dimension == 4


def test_truncated_ideal_basis_general():
    ring = PolynomialRing(GF(5), ("x", "y"))
    I = Ideal(ring, ["x - y"])
    B = truncated_ideal_basis(I, 2)
    # inside degree 2: (x-y), x(x-y), y(x-y)
    assert B.dimension == 3
    assert B.contains(parse_polynomial("x^2 - x*y", ring))
    assert not B.contains(parse_polynomial("x", ring))


def test_star_space_on_torus_line():
    ring = PolynomialRing(GF(5), ("t",))
    graded = GradedRing(ring, GradingGroup(1, ()), [((1,), ())])
    B = truncated_star_basis(Ideal(ring, ["t - 1"]), graded, 5)
    assert B.dimension == 0


def test_star_space_under_torsion():
    ring, graded = line_with_torsion(GF(5), 2)
    I = Ideal(ring, ["x - 1"])
    B = truncated_star_basis(I, graded, 6)
    assert B.dimension == 5     # (x^2-1) * {1, x, ..., x^4}
    assert B.contains(parse_polynomial("x^2 - 1", ring))
    assert B.contains(parse_polynomial("x^4 - 1", ring))
    assert B.contains(parse_polynomial("(x^2 - 1)^2", ring))
    assert not B.contains(parse_polynomial("x - 1", ring))
    assert not B.contains(parse_polynomial("x^2", ring))


def test_star_space_matches_star_ideal_truncation():
    """Dual route: the blockwise kernel must equal the truncation of the
    independently computed star ideal."""
    for modulus, gens in ((2, ["x - 1"]), (3, ["x - 2"]), (2, ["x^2 - x"])):
        ring, graded = line_with_torsion(GF(5), modulus)
        I = Ideal(ring, gens)
        left = truncated_star_basis(I, graded, 6)
        right = truncated_ideal_basis(star(I, graded), 6)
        assert np.array_equal(left.matrix, right.matrix)


def test_oracle_pass_and_error():
    ring, graded = line_with_torsion(GF(5), 2)
    I = Ideal(ring, ["x - 1"])
    assert oracle_compare(I, graded, 6).passed
    v = oracle_compare(I, graded, 2)    # bound below maxdeg + 2
    assert v.status == "error"


def test_oracle_detects_corruption():
    ring, graded = line_with_torsion(GF(5), 2)
    I = Ideal(ring, ["x - 1"])
    # too small a claim: a truncated star vector escapes it
    low = oracle_compare(I, graded, 6, star_ideal=Ideal(ring, ["x^4 - 1"]))
    assert low.status == "fail" and low.witness == "4*x^6 + 1"
    # too large a claim: a claimed generator is outside the star space
    high = oracle_compare(I, graded, 6, star_ideal=I)
    assert high.status == "fail" and high.witness is not None


def test_oracle_payload_shape():
    ring, graded = line_with_torsion(GF(5), 2)
    v = oracle_compare(Ideal(ring, ["x - 1"]), graded, 6)
    payload = v.to_payload()
    assert payload["verdict"] == "pass" and payload["witness"] is None


def test_reduce_ideal_mod():
    ring = PolynomialRing(QQ, ("x",))
    I = Ideal(ring, ["x - 1/2"])
    J = reduce_ideal_mod(I, 5)
    assert J.ring.field.characteristic == 5
    assert J == Ideal(J.ring, ["x - 3"])    # 1/2 = 3 mod 5
    with pytest.raises(BadPrimeError):
        reduce_ideal_mod(Ideal(ring, ["x - 1/5"]), 5)


def test_oracle_over_rationals_is_heuristic():
    ring, graded = line_with_torsion(QQ, 2)
    v = oracle_compare_rationals(Ideal(ring, ["x - 1"]), graded, 6)
    assert v.passed
    assert "mod 5, 7, 11" in v.reason


def test_oracle_monomial_fast_path():
    ring = PolynomialRing(GF(5), ("x", "y"))
    graded = GradedRing(ring, GradingGroup(2, ()),
                        [((1, 0), ()), ((0, 1), ())])
    I = Ideal(ring, ["x^2", "x*y"])
    assert oracle_compare(I, graded, 5).passed


def test_space_over_budget_is_refused_before_building():
    # 135,751 monomials: without the check this builds only tuples.
    ring = PolynomialRing(GF(5), ("x", "y", "z", "w"))
    with pytest.raises(ResourceLimitError, match="135751"):
        TruncatedSpace(ring, 40)
    assert TruncatedSpace(ring, 8).dimension == 495


def _rref_reference(rows, p, ncols):
    """Textbook Gauss-Jordan elimination on Python integers."""
    rows = [[x % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


@st.composite
def _matrices_mod_p(draw):
    p = draw(st.sampled_from((2, 5, 2147483647)))
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-(p - 1), p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return p, np.array(rows, dtype=np.int64).reshape(nrows, ncols)


@settings(max_examples=100, deadline=None)
@given(_matrices_mod_p())
@example((5, np.zeros((3, 4), dtype=np.int64)))
@example((2, np.zeros((0, 3), dtype=np.int64)))
@example((2147483647, np.array([[2147483646, 1], [1, 2147483646],
                                [2147483646, 2147483646]], dtype=np.int64)))
def test_rref_is_reduced_and_spans_the_input(case):
    p, A = case
    before = A.copy()
    R, pivots = _rref(A, p)
    assert np.array_equal(A, before)
    assert R.shape == (len(pivots), A.shape[1]) and R.dtype == np.int64
    assert ((R >= 0) & (R < p)).all()
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert not R[i, :c].any()
        unit = np.zeros(len(pivots), dtype=np.int64)
        unit[i] = 1
        assert np.array_equal(R[:, c], unit)
    for row in A:
        v = row % p
        for i, c in enumerate(pivots):
            v = (v - v[c] * R[i]) % p
        assert not v.any()
    ref_rows, ref_pivots = _rref_reference(A.tolist(), p, A.shape[1])
    assert len(pivots) == len(ref_pivots)
    assert R.tolist() == ref_rows and pivots == ref_pivots


def test_unit_rows_match_rref_of_the_same_rows():
    space = TruncatedSpace(PolynomialRing(GF(5), ("x", "y", "z")), 4)
    idx = np.array([0, 3, 4, 10, 34])
    rows = np.zeros((len(idx), space.dimension), dtype=np.int64)
    rows[np.arange(len(idx)), idx] = 1
    fast = Subspace.unit_rows(space, idx)
    slow = Subspace(space, rows)
    assert np.array_equal(fast.matrix, slow.matrix)
    assert fast.matrix.dtype == slow.matrix.dtype
    assert fast.pivots == slow.pivots == idx.tolist()
    empty = Subspace.unit_rows(space, np.array([], dtype=np.int64))
    assert empty.matrix.shape == (0, space.dimension) and empty.pivots == []


def test_monomial_star_basis_skips_rref(monkeypatch):
    ring = PolynomialRing(GF(5), ("x", "y", "z"))
    graded = GradedRing(ring, GradingGroup(1, ()),
                        [((1,), ()), ((1,), ()), ((1,), ())])
    I = Ideal(ring, ["x^2*y", "y*z^3", "z^4"])
    expected = truncated_star_basis(I, graded, 8)
    calls = {"rref": 0, "monomials": 0}
    real_rref, real_monomials = oracle._rref, oracle.monomials_up_to

    def rref(*args):
        calls["rref"] += 1
        return real_rref(*args)

    def monomials(*args):
        calls["monomials"] += 1
        return real_monomials(*args)

    monkeypatch.setattr(oracle, "_rref", rref)
    monkeypatch.setattr(oracle, "monomials_up_to", monomials)
    B = truncated_star_basis(I, graded, 8)
    assert calls == {"rref": 0, "monomials": 1}
    assert np.array_equal(B.matrix, expected.matrix)
    members = [i for i, m in enumerate(B.space.monomials)
               if any(all(a >= b for a, b in zip(m, g))
                      for g in I.monomial_generators())]
    assert B.pivots == members
