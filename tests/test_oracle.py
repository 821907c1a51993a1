"""Truncated-space oracle: linear-algebra verification of star outputs."""

import math
import tracemalloc
from operator import add, sub

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import grady.oracle as oracle
from grady.grading import (GradedRing, GradingGroup, homogeneous_components,
                           star)
from grady.groebner import GREVLEX, Ideal
from grady.oracle import (BadPrimeError, OracleVerdict, ResourceLimitError,
                          Subspace, TermForms, TruncatedSpace, _block_kernels,
                          _dense_forms, _first_escape, _homogeneous_blocks,
                          _kernel, _matmul_mod, _normal_form_matrix,
                          _normal_forms, _rref, _term_forms, _term_kernel,
                          monomials_up_to, oracle_compare, reduce_ideal_mod,
                          truncated_star_basis)
from grady.poly import GF, QQ, Polynomial, PolynomialRing, parse_polynomial

from conftest import line_with_torsion, time_limit, ungraded


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
    flat = ungraded(ring)
    B = truncated_star_basis(Ideal(ring, ["x"]), flat, 3)
    assert B.dimension == 3     # x, x^2, x^3
    assert B.contains(parse_polynomial("2*x^3 + x", ring))
    assert not B.contains(ring.one())
    assert truncated_star_basis(Ideal(ring), flat, 3).dimension == 0
    assert truncated_star_basis(Ideal(ring, ["1"]), flat, 3).dimension == 4


def test_truncated_ideal_basis_general():
    ring = PolynomialRing(GF(5), ("x", "y"))
    I = Ideal(ring, ["x - y"])
    B = truncated_star_basis(I, ungraded(ring), 2)
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
        right = truncated_star_basis(star(I, graded), ungraded(ring), 6)
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


def test_reduction_mod_p_keeps_the_content():
    """reduce_ideal_mod clears denominators only, so a generator whose
    content p divides vanishes mod p and the oracle skips p, although
    (5*x + 5) is (x + 1)."""
    ring, graded = line_with_torsion(QQ, 2)
    with pytest.raises(BadPrimeError, match="^generator vanishes mod 5$"):
        reduce_ideal_mod(Ideal(ring, ["5*x + 5"]), 5)
    assert [oracle_compare(Ideal(ring, [g]), graded).reason
            for g in ("5*x + 5", "x + 1")] == [
        "heuristic: agreement mod 7, 11",
        "heuristic: agreement mod 5, 7, 11"]


def test_oracle_over_rationals_is_heuristic():
    ring, graded = line_with_torsion(QQ, 2)
    v = oracle_compare(Ideal(ring, ["x - 1"]), graded, 6)
    assert v.passed
    assert "mod 5, 7, 11" in v.reason


@pytest.mark.parametrize("gens, reason", [
    (["x - 1/5"], "heuristic: agreement mod 7, 11"),      # denominator
    (["5*x - 5"], "heuristic: agreement mod 7, 11"),      # generator
])
def test_rational_oracle_skips_a_bad_prime(gens, reason):
    ring, graded = line_with_torsion(QQ, 2)
    v = oracle_compare(Ideal(ring, gens), graded, 6)
    assert (v.status, v.reason) == ("pass", reason)


def test_rational_oracle_skips_a_prime_that_changes_the_ideal():
    # (x^2 - 5*x, x^2) is (x), but its generators reduce to (x^2) mod 5
    ring = PolynomialRing(QQ, ("x",))
    v = oracle_compare(Ideal(ring, ["x^2 - 5*x", "x^2"]), ungraded(ring))
    assert (v.status, v.reason) == ("pass", "heuristic: agreement mod 7, 11")


def test_rational_oracle_reports_the_failing_prime():
    ring, graded = line_with_torsion(QQ, 2)
    v = oracle_compare(Ideal(ring, ["x - 1"]), graded, 6,
                       star_ideal=Ideal(ring, ["x^4 - 1"]))
    assert v == OracleVerdict(
        "fail", "heuristic mod 5: truncated star vector escapes the "
        "computed star", "4*x^6 + 1")


def test_rational_oracle_without_a_usable_prime():
    ring, graded = line_with_torsion(QQ, 2)
    v = oracle_compare(Ideal(ring, ["x - 1/385"]), graded, 6)
    assert v == OracleVerdict("error", "no usable prime for reduction")


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


FIELDS = (2, 5, 32003, 2147483647)


@st.composite
def _matrices_mod_p(draw, fields=(2, 5, 2147483647)):
    p = draw(st.sampled_from(fields))
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


def test_term_rows_match_rref_of_the_same_rows():
    space = TruncatedSpace(PolynomialRing(GF(5), ("x", "y", "z")), 4)
    dim = space.dimension
    pivots = np.array([0, 3, 4, 10, 20])
    tails = np.array([0, 12, 4, 12, 30])
    values = np.array([0, 2, 0, 4, 1])
    rows = np.zeros((len(pivots), dim), dtype=np.int64)
    rows[np.arange(len(pivots)), pivots] = 1
    rows[[1, 3, 4], [12, 12, 30]] = [2, 4, 1]
    fast = Subspace.from_terms(space, pivots, tails, values)
    slow = Subspace(space, rows)
    assert fast.pivots == slow.pivots == pivots.tolist()
    assert fast.dimension == slow.dimension == len(pivots)
    assert [fast.row(i).tolist() for i in range(len(pivots))] == \
        slow.matrix.tolist()
    assert np.array_equal(fast.matrix, slow.matrix)
    assert fast.matrix.dtype == slow.matrix.dtype
    # Membership: combinations of the rows, and each of them moved off
    # the span at a pivot, a tail and a column outside both.
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.integers(0, 5, len(pivots)) @ rows
        assert fast.contains_vector(v) and slow.contains_vector(v)
        for c in (3, 12, 7):
            w = v.copy()
            w[c] += 1
            assert not fast.contains_vector(w)
            assert not slow.contains_vector(w)
    none = np.array([], dtype=np.int64)
    empty = Subspace.from_terms(space, none, none, none)
    assert empty.matrix.shape == (0, dim) and empty.pivots == []
    assert empty.contains_vector(np.zeros(dim, dtype=np.int64))
    assert not empty.contains_vector(np.eye(1, dim, 5, dtype=np.int64)[0])


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
    # The space of (3 variables, degree 8) was built by the first call.
    assert calls == {"rref": 0, "monomials": 0}
    assert np.array_equal(B.matrix, expected.matrix)
    members = [i for i, m in enumerate(B.space.monomials)
               if any(all(a >= b for a, b in zip(m, g))
                      for g in I.monomial_generators())]
    assert B.pivots == members


# ---------------------------------------------------------------------------
# The linear-algebra kernels against the per-monomial and per-row
# references they replaced.

def _nullspace_reference(A, p):
    """Basis (as rows) of {x : A x = 0} over F_p, one row per free
    column: 1 there, minus that column of the RREF at the pivots."""
    R, pivots = _rref(A, p)
    free = np.ones(A.shape[1], dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    K = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = (-R[:, free].T) % p
    return K


def _normal_form_rows_reference(gb, space):
    """Dense matrix of per-monomial normal forms, over all columns."""
    N = np.zeros((space.dimension, space.dimension), dtype=np.int64)
    for i, m in enumerate(space.monomials):
        for mm, c in gb.normal_form(space.ring.monomial(m)).terms.items():
            N[i, space.index[mm]] = c
    return N


def _normal_form_matrix_reference(gb, space):
    """The recurrence filled one row at a time in ascending grevlex
    order, each row one product of its reducer's negated tail
    coefficients with the rows of t * v."""
    p = space.ring.field.characteristic
    divisible = space.divisible(gb.leads)
    reducible = divisible.any(axis=1)
    standard = np.flatnonzero(~reducible)
    N = np.zeros((space.dimension, len(standard)), dtype=np.int64)
    N[standard, np.arange(len(standard))] = 1
    for i in space.ascending[reducible[space.ascending]].tolist():
        g = int(divisible[i].argmax())
        lm, terms = gb.leads[g], gb.elements[g].terms
        t = tuple(map(sub, space.monomials[i], lm))
        tail = [v for v in terms if v != lm]
        cs = np.array([-terms[v] % p for v in tail], dtype=np.int64)
        N[i] = _matmul_mod(cs, N[[space.index[tuple(map(add, v, t))]
                                  for v in tail]], p)
    return N, reducible


def _homogeneous_blocks_reference(graded, space):
    """Blocks grouped by np.unique over the rows of degrees."""
    weights = np.array(graded.weights, dtype=np.int64)
    dots = space.exponents @ weights.reshape(-1, space.ring.nvars).T
    r = graded.group.free_rank
    dots[:, r:] %= np.array(graded.group.torsion, dtype=np.int64)
    block = np.unique(dots, axis=0, return_inverse=True)[1].ravel()
    order = np.argsort(block, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(block[order])) + 1)


def _star_basis_reference(I, graded, bound):
    """Per-monomial normal forms, per-block nullspaces, one final RREF."""
    space = TruncatedSpace(I.ring, bound)
    p = I.ring.field.characteristic
    N = _normal_form_rows_reference(I.groebner(), space)
    blocks = {}
    for i, m in enumerate(space.monomials):
        blocks.setdefault(graded.degree_of_monomial(m), []).append(i)
    rows = [np.zeros((0, space.dimension), dtype=np.int64)]
    for idx in blocks.values():
        W = _nullspace_reference(N[idx, :].T, p)
        V = np.zeros((len(W), space.dimension), dtype=np.int64)
        V[:, idx] = W
        rows.append(V)
    return Subspace(space, np.vstack(rows))


def _oracle_reference(I, graded, bound, S):
    """oracle_compare with the escape check done row by row."""
    gens = S.canonical_generators()
    maxdeg = max((g.total_degree() for g in gens), default=0)
    if bound < maxdeg + 2:
        return OracleVerdict("error", f"degree bound {bound} below "
                             f"generator degree {maxdeg} + 2")
    B = truncated_star_basis(I, graded, bound)
    for b in B.polynomials():
        if not S.contains(b):
            return OracleVerdict(
                "fail", "truncated star vector escapes the computed star",
                str(b))
    # deg g <= bound, so g lies in the truncated star exactly when each
    # homogeneous component of g lies in I.
    for g in gens:
        if not all(map(I.contains,
                       homogeneous_components(g, graded).values())):
            return OracleVerdict(
                "fail", "computed star generator missing from the "
                "truncated star space", str(g))
    return OracleVerdict("pass", f"agreement at degree {bound}, space "
                         f"dimension {B.dimension}")


@st.composite
def _oracle_cases(draw, sizes=((1, 3), (1, 3), (2, 2)), most_vars=4):
    """(ideal, grading, degree bound, another ideal) over 1-4 variables
    and the four fields; the other ideal contains the first half the
    time, so escapes are neither certain nor absent.  Each generator
    has a number of terms in a range drawn from `sizes`: by default a
    third of the time every generator is a binomial, so the normal
    forms are terms."""
    p = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, most_vars))
    ring = PolynomialRing(GF(p), ("x", "y", "z", "w")[:n])
    top = {1: 4, 2: 3, 3: 2, 4: 2}[n]
    mono = st.lists(st.integers(0, n - 1), max_size=top).map(
        lambda vs: tuple(vs.count(i) for i in range(n)))
    sizes = draw(st.sampled_from(sizes))
    poly = st.dictionaries(mono, st.integers(1, p - 1), min_size=sizes[0],
                           max_size=sizes[1]).map(
                               lambda t: Polynomial(ring, t))
    I = Ideal(ring, draw(st.lists(poly, min_size=1,
                                  max_size=3 if n < 4 else 2)))
    rank = draw(st.integers(0, 2))
    torsion = draw(st.lists(st.sampled_from((2, 3, 4)), max_size=1))
    degrees = [(tuple(draw(st.integers(-1, 1)) for _ in range(rank)),
                tuple(draw(st.integers(0, m - 1)) for m in torsion))
               for _ in range(n)]
    graded = GradedRing(ring, GradingGroup(rank, tuple(torsion)), degrees)
    other = draw(st.lists(poly, max_size=2))
    if draw(st.booleans()):
        other += list(I.generators)
    return I, graded, draw(st.integers(1, 6)), Ideal(ring, other)


@settings(max_examples=80, deadline=None)
@given(_matrices_mod_p(FIELDS))
@example((5, np.zeros((3, 4), dtype=np.int64)))
@example((2, np.zeros((0, 3), dtype=np.int64)))
def test_kernel_is_born_in_rref(case):
    p, A = case
    K, free = _kernel(A, p)
    R, pivots = _rref(_nullspace_reference(A, p), p)
    assert K.tolist() == R.tolist() and free.tolist() == pivots


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(1, 40),
       st.integers(1, 4), st.randoms(use_true_random=False))
def test_matmul_mod_is_exact(p, rows, inner, cols, rnd):
    A = [[rnd.randrange(p) for _ in range(inner)] for _ in range(rows)]
    B = [[rnd.randrange(p) for _ in range(cols)] for _ in range(inner)]
    want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
            for row in A]
    got = _matmul_mod(np.array(A, dtype=np.int64),
                      np.array(B, dtype=np.int64), p)
    assert got.tolist() == want


def test_matmul_mod_at_the_dimension_budget():
    p = 2147483647
    A = np.full((2, oracle.MAX_SPACE_DIMENSION), p - 1, dtype=np.int64)
    B = np.full((oracle.MAX_SPACE_DIMENSION, 3), p - 1, dtype=np.int64)
    want = (p - 1) ** 2 * oracle.MAX_SPACE_DIMENSION % p
    assert (_matmul_mod(A, B, p) == want).all()
    assert (_matmul_mod(A[:, :1], B[:1], p) == 1).all()


@settings(max_examples=90, deadline=None)
@given(_oracle_cases())
def test_normal_form_matrix_matches_per_monomial_reduction(case):
    I, _, bound, _ = case
    assume(not I.is_zero)
    space = TruncatedSpace(I.ring, bound)
    gb = I.groebner()
    N, reducible = _normal_form_matrix(gb, space)
    standard = np.flatnonzero(~reducible)
    reference = _normal_form_rows_reference(gb, space)
    assert not np.delete(reference, standard, axis=1).any()
    assert N.tolist() == reference[:, standard].tolist()
    assert standard.tolist() == [
        i for i, m in enumerate(space.monomials)
        if not any(all(a >= b for a, b in zip(m, lm)) for lm in gb.leads)]


@pytest.mark.parametrize("nvars, bound", [(1, 0), (1, 9), (2, 7), (3, 6),
                                          (4, 3), (6, 2), (30, 1)])
def test_positions_index_the_space(nvars, bound):
    ring = PolynomialRing(GF(5), tuple(f"x{i}" for i in range(nvars)))
    space = TruncatedSpace(ring, bound)
    suffix = np.cumsum(space.exponents[:, ::-1], axis=1)[:, ::-1]
    assert space.positions(suffix[:, j] for j in range(nvars)).tolist() \
        == list(range(space.dimension))


def test_wave_fill_matches_the_row_fill_at_the_budget_edge():
    # 3,654 monomials, tails of 3 and 4 terms, the largest field
    ring = PolynomialRing(GF(2147483647), ("x", "y", "z"))
    space = TruncatedSpace(ring, 26)
    assert space.dimension == 3654
    gb = Ideal(ring, ["x^3 + 2*x*y*z - 5*y^2 + 3*z - 1",
                      "y^3 - 2*x*z + x - 1"]).groebner(GREVLEX)
    tracemalloc.start()
    try:
        N, reducible = _normal_form_matrix(gb, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reference, expected = _normal_form_matrix_reference(gb, space)
    assert np.array_equal(reducible, expected)
    assert N.shape == reference.shape and np.array_equal(N, reference)
    # N itself plus one wave's work at a time: no rows x tail x columns
    # gather, which would take about four times N here.
    assert peak < 2 * N.nbytes


def test_term_kernel_matches_the_block_kernels_at_the_budget_edge():
    # 3,654 monomials modulo a binomial basis, the largest field, 53
    # blocks of Z + Z/2
    ring = PolynomialRing(GF(2147483647), ("x", "y", "z"))
    space = TruncatedSpace(ring, 26)
    assert space.dimension == 3654
    graded = GradedRing(ring, GradingGroup(1, (2,)),
                        [((1,), (1,)), ((1,), (0,)), ((1,), (1,))])
    I = Ideal(ring, ["x*y - 3*z^2", "x^3 - 2*y"])
    gb = I.groebner(GREVLEX)
    tracemalloc.start()
    try:
        forms = _term_forms(gb, space)
        B = _term_kernel(space, forms, graded)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Arrays of the space's length only: 64 int64 entries per monomial
    # (1.9 MB here) where a dense star-space matrix takes 67 MB.
    assert peak < 64 * 8 * space.dimension
    # Each block's rows of B are its kernel from _kernel, and vanish
    # outside the block.
    N, _ = _normal_form_matrix(gb, space)
    assert (np.count_nonzero(N, axis=1) <= 1).all()
    p = ring.field.characteristic
    pivots, nonzeros = [], 0
    for idx in _homogeneous_blocks(graded, space):
        rows = N[idx]
        K, free = _kernel(rows[:, rows.any(axis=0)].T, p)
        mine = np.flatnonzero(np.isin(B.pivots, idx))
        assert np.array_equal(B.matrix[np.ix_(mine, idx)], K)
        pivots.extend(idx[free].tolist())
        nonzeros += np.count_nonzero(K)
    assert B.pivots == sorted(pivots) and B.dimension == 2300
    assert np.count_nonzero(B.matrix) == nonzeros
    # The whole compare, which took 194 s with a dense escape product.
    with time_limit(10):
        verdict = oracle_compare(I, graded, 26)
    assert verdict == OracleVerdict(
        "pass", "agreement at degree 26, space dimension 2300")


def test_compare_fills_one_normal_form_matrix_for_a_star_with_the_basis(
        monkeypatch):
    ring = PolynomialRing(GF(7), ("x", "y", "z"))
    graded = GradedRing(ring, GradingGroup(1, ()), [((1,), ())] * 3)
    I = Ideal(ring, ["x^2 - y*z", "x*y - z^2"])
    S = star(I, graded)
    assert S == I and not S.is_monomial
    gens = S.canonical_generators()
    bound = max(g.total_degree() for g in gens) + 2
    filled = []
    real = oracle._term_forms

    def counting(gb, space):
        filled.append(gb)
        return real(gb, space)

    monkeypatch.setattr(oracle, "_term_forms", counting)
    assert oracle_compare(I, graded, bound, star_ideal=S).passed
    assert len(filled) == 1
    # Without x*y - z^2 the claim has another basis, so its own N, and
    # the dropped generator escapes it.
    filled.clear()
    claim = Ideal(ring, [g for g in gens if str(g) != "x*y + 6*z^2"])
    assert len(claim.generators) == len(gens) - 1
    verdict = oracle_compare(I, graded, bound, star_ideal=claim)
    assert verdict == OracleVerdict(
        "fail", "truncated star vector escapes the computed star",
        "6*x*y + z^2")
    assert len(filled) == 2


def test_lexsort_blocks_match_the_unique_grouping():
    ring = PolynomialRing(GF(5), ("x", "y", "z"))
    space = TruncatedSpace(ring, 5)
    for graded in (
            ungraded(ring),
            GradedRing(ring, GradingGroup(0, (3,)), [((), (1,))] * 3),
            GradedRing(ring, GradingGroup(1, (2,)),
                       [((1,), (1,)), ((-1,), (0,)), ((0,), (1,))]),
            GradedRing(ring, GradingGroup(2, ()),
                       [((1, 0), ()), ((0, 1), ()), ((-1, 1), ())])):
        blocks = _homogeneous_blocks(graded, space)
        reference = _homogeneous_blocks_reference(graded, space)
        assert [b.tolist() for b in blocks] == \
            [b.tolist() for b in reference]
    assert [b.tolist() for b in _homogeneous_blocks(ungraded(ring),
                                                    space)] == \
        [list(range(space.dimension))]


@settings(max_examples=90, deadline=None)
@given(_oracle_cases())
def test_lexsort_blocks_match_the_unique_grouping_on_random_gradings(case):
    I, graded, bound, _ = case
    space = TruncatedSpace(I.ring, bound)
    assert [b.tolist() for b in _homogeneous_blocks(graded, space)] == \
        [b.tolist() for b in _homogeneous_blocks_reference(graded, space)]


@settings(max_examples=90, deadline=None)
@given(_oracle_cases(), st.integers(1, 3))
def test_star_basis_and_verdict_match_the_references(case, cut):
    I, graded, bound, S = case
    B = truncated_star_basis(I, graded, bound)
    reference = _star_basis_reference(I, graded, bound)
    assert B.matrix.tolist() == reference.matrix.tolist()
    assert B.pivots == reference.pivots
    # The span of the first rows holds them, so a later row escapes.
    first_rows = Ideal(I.ring, B.polynomials()[:cut])
    for claim in (S, first_rows):
        escapes = [i for i, b in enumerate(B.polynomials())
                   if not claim.contains(b)]
        forms = _normal_forms(claim.groebner(GREVLEX), B.space)
        assert _first_escape(B, forms) == (escapes[0] if escapes else None)
        assert oracle_compare(I, graded, bound, star_ideal=claim) == \
            _oracle_reference(I, graded, bound, claim)


@settings(max_examples=120, deadline=None)
@given(_oracle_cases(sizes=((1, 2),), most_vars=3), st.integers(1, 3))
def test_term_path_matches_the_dense_path(case, cut):
    """Modulo monomials and binomials, the term forms, their star space
    and its escapes equal the wave fill, the block kernels and the
    dense product, in every pairing of the two representations."""
    I, graded, bound, S = case
    space = TruncatedSpace(I.ring, bound)
    gb = I.groebner(GREVLEX)
    forms = _normal_forms(gb, space)
    assert isinstance(forms, TermForms)
    N, reducible = _normal_form_matrix(gb, space)
    dense_N, dense_reducible = _dense_forms(forms)
    assert dense_N.tolist() == N.tolist()
    assert dense_reducible.tolist() == reducible.tolist()
    B = _term_kernel(space, forms, graded)
    dense = _block_kernels(space, N, _homogeneous_blocks(graded, space))
    assert B.terms is not None and dense.terms is None
    assert B.pivots == dense.pivots
    assert B.matrix.tolist() == dense.matrix.tolist()
    assert [B.row(i).tolist() for i in range(B.dimension)] == \
        dense.matrix.tolist()
    first_rows = Ideal(I.ring, B.polynomials()[:cut])
    for claim in (S, first_rows):
        claim_forms = _normal_forms(claim.groebner(GREVLEX), space)
        assert isinstance(claim_forms, TermForms)
        claim_dense = _dense_forms(claim_forms)
        first = _first_escape(dense, claim_dense)
        assert _first_escape(B, claim_forms) == first
        assert _first_escape(B, claim_dense) == first
        assert _first_escape(dense, claim_forms) == first
        assert oracle_compare(I, graded, bound, star_ideal=claim) == \
            _oracle_reference(I, graded, bound, claim)


_Z = [((1,), ()), ((1,), ())]


@pytest.mark.parametrize("gens, claim, verdict", [
    # A basis with a 3-term element against a star of monomials.
    (["x^2 + x*y + 1", "y^2"], ["y^2"], "pass"),
    (["x^3 + x*y + y", "y^2"], ["x^6", "x^3*y", "y^2"], "pass"),
    (["x^3 + x*y + y", "y^2"], ["x^6", "y^2"], "fail"),
    # A basis of monomials against a claim with a 3-term element.
    (["y^2"], ["x^2 + x*y + 1", "y^2"], "fail"),
    (["x^6", "x^3*y", "y^2"], ["x^4 + 2*x^2 + 1", "x^2*y + y", "y^2"],
     "fail"),
])
def test_mixed_compares_match_the_reference(gens, claim, verdict):
    ring = PolynomialRing(GF(7), ("x", "y"))
    graded = GradedRing(ring, GradingGroup(1, ()), _Z)
    I, S = Ideal(ring, gens), Ideal(ring, claim)
    shapes = [max(len(g.terms) for g in J.groebner(GREVLEX).elements)
              for J in (I, S)]
    assert sorted(shapes) == [1, 3] or sorted(shapes) == [2, 3]
    got = oracle_compare(I, graded, 8, star_ideal=S)
    assert got.status == verdict
    assert got == _oracle_reference(I, graded, 8, S)


# ---------------------------------------------------------------------------
# The field characteristic divides a torsion modulus: the group scheme
# mu_m is not reduced there, and the star must still agree with the
# truncated-space oracle.

_CHAR_DIVIDES_TORSION = [
    (GF(2), 2, ["x - 1"]),
    (GF(2), 2, ["x*y - 1", "y^2 - x"]),
    (GF(2), 2, ["x^2*y", "x*y^3"]),
    (GF(3), 3, ["x - 1"]),
    (GF(3), 3, ["x^2 - y", "x*y - 1"]),
    (GF(3), 3, ["x^3", "x*y^2", "y^4"]),
    (GF(2), 4, ["x - 1"]),
    (GF(2), 4, ["x^3 - y", "y^2 - 1"]),
    (GF(2), 4, ["x^2*y^2", "y^3"]),
]


@pytest.mark.parametrize("field, modulus, gens", _CHAR_DIVIDES_TORSION)
def test_oracle_passes_when_characteristic_divides_torsion(field, modulus,
                                                           gens):
    ring = PolynomialRing(field, ("x", "y"))
    graded = GradedRing(ring, GradingGroup(0, (modulus,)),
                        [((), (1,)), ((), (2 % modulus,))])
    I = Ideal(ring, gens)
    S = star(I, graded)
    if gens == ["x - 1"]:
        assert S == Ideal(ring, [f"x^{modulus} - 1"])
    bound = max(g.total_degree() for g in S.canonical_generators()) + 2
    verdict = oracle_compare(I, graded, bound, star_ideal=S)
    assert verdict.passed, verdict
