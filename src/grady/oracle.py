"""Brute-force verification of star outputs.

Works entirely inside the space of polynomials of total degree <= D with
dense exact linear algebra mod p; no elimination machinery is involved,
which is the point of the oracle.  `oracle_compare` takes either field:
over Q it reduces the ideal and its rational star mod a few primes and
labels its verdict heuristic.  Its default bound D is two above the
star's top generator degree, the least bound that is not vacuous.

- Normal forms.  The normal-form matrix of an ideal has one row per
  monomial of the space and one column per standard monomial of its
  grevlex basis.  It is filled by recurrence, as in FGLM (Faugere,
  Gianni, Lazard and Mora 1993): a non-standard m = t * lm(g) gets
  minus the combination of the rows of t * v over the non-lead terms
  c_v * v of g, all smaller than m and of no larger degree.  The rows
  are filled in waves: a standard row has level 0 and a non-standard
  one level 1 + the largest level among its rows t * v, so each level
  reads only rows of lower levels and is filled at once, one
  gather-multiply-mod per tail position.  Monomial ideals need only a
  divisibility mask.
- The star space.  Membership in the ideal is the kernel of that map;
  membership in the star is the same kernel restricted to each
  homogeneous block.  Each block kernel is born in reduced row echelon
  form (the block is reduced with its columns reversed), and blocks have
  disjoint supports, so their rows sorted by pivot are already the RREF
  of the whole space.  Modulo a binomial basis the normal form of a
  monomial is a single term (Eisenbud and Sturmfels 1996), so N has at
  most one nonzero per row.  Such a term-shaped N needs no row
  reduction: within a block, the monomials whose normal forms share a
  column are tied by one relation, and the kernel of all blocks at once
  is written down directly.
- The escape check.  A truncated star vector b lies in the computed star
  S exactly when b N_S = 0 mod p, so all of them are checked with one
  product; a claimed star with I's reduced basis reuses I's N.
- Exactness.  Products are exact in int64: GF caps p below 2**31, and
  a product with inner dimension k is taken whole when
  (p - 1)^2 k < 2^63, otherwise with one factor split into 16-bit limbs,
  which covers every such p up to MAX_SPACE_DIMENSION.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .grading import GradedRing, star
from .groebner import GREVLEX, Ideal
from .poly import (GF, Polynomial, PolynomialRing, ResourceLimitError,
                   _cleared, _same_ring)


def monomials_up_to(nvars, bound):
    """All exponent tuples of total degree <= bound, degree-major order."""
    out = []
    for d in range(bound + 1):
        for cuts in itertools.combinations(range(d + nvars - 1), nvars - 1):
            exps = []
            prev = -1
            for c in cuts:
                exps.append(c - prev - 1)
                prev = c
            exps.append(d + nvars - 2 - prev)
            out.append(tuple(exps))
    return out


# One dim x dim int64 matrix (the normal-form map) stays within 128 MiB,
# and products of inner dimension <= 4096 stay exact with 16-bit limbs.
MAX_SPACE_DIMENSION = 4096


@functools.lru_cache(maxsize=8)
def _monomial_table(nvars, bound):
    """(monomials, index, exponent array, ascending grevlex order, counts)
    of the space of degree <= bound; shared by every space of these
    sizes.  counts[r, j] is the number of monomials of degree < r in the
    last nvars - j variables (see TruncatedSpace.positions)."""
    monomials = tuple(monomials_up_to(nvars, bound))
    exponents = np.array(monomials, dtype=np.int64).reshape(-1, nvars)
    exponents.flags.writeable = False
    ascending = sorted(range(len(monomials)),
                       key=lambda i: GREVLEX.key(monomials[i]))
    counts = np.array([[math.comb(r + nvars - j - 1, nvars - j)
                        for j in range(nvars)] for r in range(bound + 2)],
                      dtype=np.int64).reshape(bound + 2, nvars)
    return (monomials, {m: i for i, m in enumerate(monomials)}, exponents,
            np.array(ascending, dtype=np.int64), counts)


class TruncatedSpace:
    __slots__ = ("ring", "degree_bound", "monomials", "index", "exponents",
                 "ascending", "counts")

    def __init__(self, ring, degree_bound):
        if ring.field.characteristic == 0:
            raise ValueError("truncation oracle works over prime fields; "
                             "reduce rational inputs mod primes")
        dim = math.comb(ring.nvars + degree_bound, ring.nvars)
        if dim > MAX_SPACE_DIMENSION:
            raise ResourceLimitError(
                f"truncated space of dimension {dim} exceeds the budget "
                f"of {MAX_SPACE_DIMENSION}")
        self.ring = ring
        self.degree_bound = degree_bound
        (self.monomials, self.index, self.exponents, self.ascending,
         self.counts) = _monomial_table(ring.nvars, degree_bound)

    @property
    def dimension(self):
        return len(self.monomials)

    def vector(self, f):
        _same_ring(self.ring, f)
        v = np.zeros(self.dimension, dtype=np.int64)
        for m, c in f.terms.items():
            if m not in self.index:
                raise ValueError("polynomial exceeds the degree bound")
            v[self.index[m]] = c
        return v

    def polynomial(self, v):
        return Polynomial(self.ring, {self.monomials[i]: int(v[i])
                                      for i in np.flatnonzero(v)})

    def positions(self, suffixes):
        """Indices of the monomials with suffix sums s_j = e_j + ... +
        e_(n-1), which the iterable yields one array at a time for j = 0,
        1, ..., n - 1.

        monomials_up_to lists the counts[d + 1, 0] monomials of degree
        <= d = s_0 up to x_0^d.  The monomials of degree d after one with
        exponents e are those that first differ from it by a larger
        e_(j-1), for some j >= 1: they leave degree < s_j to the last
        n - j variables, so there are counts[s_j, j] of them.
        """
        suffixes = iter(suffixes)
        counts = self.counts
        index = counts[next(suffixes) + 1, 0] - 1
        for j, suffix in enumerate(suffixes, 1):
            index -= counts[suffix, j]
        return index

    def divisible(self, leads):
        """Boolean (monomial, lead) matrix: which leads divide which
        monomials of the space."""
        leads = np.array(leads, dtype=np.int64).reshape(-1, self.ring.nvars)
        # One comparison per variable: numpy reduces a short last axis
        # (all(axis=2) over a monomial x lead x variable array) slowly.
        exponents = self.exponents
        out = exponents[:, 0, None] >= leads[:, 0]
        for j in range(1, self.ring.nvars):
            out &= exponents[:, j, None] >= leads[:, j]
        return out


def _matmul_mod(A, B, p):
    """A @ B mod p for entries in [0, p), p < 2**31, exact in int64 for an
    inner dimension k < 2**16: one product when (p - 1)^2 k < 2^63, else
    B split into 16-bit limbs, each partial product below 2^63."""
    if (p - 1) ** 2 * A.shape[-1] < 2 ** 63:
        return (A @ B) % p
    return ((((A @ (B >> 16)) % p) << 16) + A @ (B & 0xFFFF)) % p


def _rref(A, p):
    """Reduced row echelon form of A mod p: (nonzero rows, pivot columns).

    Exact in int64: GF caps p below 2**31, so products stay below 2**62.
    Each pivot clears only the rows with a nonzero entry in its column,
    and only from that column on; entries to its left are already zero.
    """
    A = A % p
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        below = A[r:, c].nonzero()[0]
        if not below.size:
            continue
        pivot = r + below[0]
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        rows = A[:, c].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            A[rows, c:] = (A[rows, c:]
                           - np.outer(A[rows, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _kernel(A, p):
    """Basis of {x : A x = 0} over F_p in reduced row echelon form:
    (rows, pivot columns).

    A is row-reduced with its columns reversed, so every pivot lies to
    the right of the free columns it couples with.  The kernel vector of
    free column f (1 there, minus the reversed RREF's column at the
    pivots) then leads with f and is zero at the other free columns:
    the rows, ordered by f, are already reduced.  _block_kernels calls it
    only for a normal-form matrix that is not term-shaped.
    """
    ncols = A.shape[1]
    R, reversed_pivots = _rref(A[:, ::-1], p)
    pivots = ncols - 1 - np.array(reversed_pivots, dtype=np.int64)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    K = np.zeros((len(free), ncols), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = (-R[:, ncols - 1 - free].T) % p
    return K, free


class Subspace:
    """Row span in a TruncatedSpace, held in reduced row echelon form."""

    __slots__ = ("space", "matrix", "pivots")

    def __init__(self, space, rows):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, space.dimension)
        self.matrix, self.pivots = _rref(rows, space.ring.field.characteristic)
        self.space = space

    @classmethod
    def from_rref(cls, space, matrix, pivots):
        """Span of rows already in RREF with the given pivot columns."""
        S = cls.__new__(cls)
        S.space = space
        S.matrix = matrix
        S.pivots = np.asarray(pivots, dtype=np.int64).tolist()
        return S

    @classmethod
    def unit_rows(cls, space, indices):
        """Span of the unit vectors at the given increasing indices: those
        rows are already in RREF, with the indices as pivots."""
        matrix = np.zeros((len(indices), space.dimension), dtype=np.int64)
        matrix[np.arange(len(indices)), indices] = 1
        return cls.from_rref(space, matrix, indices)

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def contains_vector(self, v):
        p = self.space.ring.field.characteristic
        v = v.astype(np.int64) % p
        for i, c in enumerate(self.pivots):
            if v[c]:
                v = (v - v[c] * self.matrix[i]) % p
        return not v.any()

    def contains(self, f):
        return self.contains_vector(self.space.vector(f))

    def polynomials(self):
        return [self.space.polynomial(row) for row in self.matrix]


def _normal_form_matrix(gb, space):
    """(N, reducible) for the grevlex basis gb of a non-monomial ideal:
    row i of N is the normal form of the i-th monomial of the space, over
    the columns of the standard monomials (those not `reducible`, a
    mask over the space).  Filled in the waves of the module docstring;
    grevlex never raises total degree, so every row stays in the space.

    Row `dim` of the work matrix stays zero: the padded tail positions
    of a shorter reducer point there with coefficient 0.  Each wave and
    tail position adds a product of two residues below p < 2**31 to a
    residue, so every entry stays below 2**63.
    """
    p = space.ring.field.characteristic
    dim, n = space.exponents.shape
    divisible = space.divisible(gb.leads)
    reducible = divisible.any(axis=1)
    standard = np.flatnonzero(~reducible)
    N = np.zeros((dim + 1, len(standard)), dtype=np.int64)
    N[standard, np.arange(len(standard))] = 1
    rows = space.ascending[reducible[space.ascending]]
    first = divisible[rows].argmax(axis=1)
    # The non-lead terms of each reducer in use (a lead dividing some
    # monomial of the space is one): exponents of v - lm and negated
    # coefficients, padded with zero coefficients to the longest tail.
    used = divisible.any(axis=0)
    tails = [[(tuple(map(sub, v, lm)), -c % p)
              for v, c in g.terms.items() if v != lm] if u else []
             for u, lm, g in zip(used, gb.leads, gb.elements)]
    width = max(map(len, tails), default=0)
    shift = np.zeros((len(tails), width, n), dtype=np.int64)
    coef = np.zeros((len(tails), width), dtype=np.int64)
    for g, tail in enumerate(tails):
        for k, (t, c) in enumerate(tail):
            shift[g, k] = t
            coef[g, k] = c
    # deps[r, k] is the row of t * v_k = m - lm + v_k for the r-th
    # reducible m, found from suffix sums, which are additive.
    shift = np.cumsum(shift[:, :, ::-1], axis=2)[:, :, ::-1]
    suffix = np.cumsum(space.exponents[rows, ::-1], axis=1)[:, ::-1]
    deps = space.positions(suffix[:, j, None] + shift[first, :, j]
                           for j in range(n))
    coef = coef[first]
    deps[coef == 0] = dim
    # Levels in ascending grevlex order, where every row t * v of a
    # reducible row comes before it; waves[l] lists the rows of level
    # l + 1, by position in `rows`.
    level = [0] * (dim + 1)
    get = level.__getitem__
    waves = []
    for r, (i, ds) in enumerate(zip(rows.tolist(), deps.tolist())):
        lv = max(map(get, ds), default=0)
        level[i] = lv + 1
        if lv == len(waves):
            waves.append([])
        waves[lv].append(r)
    order = np.array([r for wave in waves for r in wave], dtype=np.int64)
    rows, deps, coef = rows[order], deps[order].T, coef[order].T
    for start, stop in itertools.pairwise(itertools.accumulate(
            map(len, waves), initial=0)):
        acc = 0
        for ds, cs in zip(deps[:, start:stop], coef[:, start:stop]):
            acc = (acc + cs[:, None] * N[ds]) % p
        N[rows[start:stop]] = acc
    return N[:dim], reducible


def _monomial_basis(I, space):
    inside = space.divisible(I.monomial_generators()).any(axis=1)
    return Subspace.unit_rows(space, np.flatnonzero(inside))


def _block_kernels(space, N, blocks):
    """Subspace of the vectors whose restriction to each block (disjoint
    increasing index arrays) lies in the kernel of the normal-form
    matrix N: the block kernels, merged by pivot.  A term-shaped N (at
    most one nonzero per row) takes _term_kernel instead."""
    if (np.count_nonzero(N, axis=1) <= 1).all():
        return _term_kernel(space, N, blocks)
    p = space.ring.field.characteristic
    kernels = []
    for idx in blocks:
        rows = N[idx]
        K, free = _kernel(rows[:, rows.any(axis=0)].T, p)
        kernels.append((idx, K, idx[free]))
    pivots = np.concatenate([piv for _, _, piv in kernels])
    matrix = np.zeros((len(pivots), space.dimension), dtype=np.int64)
    r = 0
    for idx, K, _ in kernels:
        matrix[r:r + len(K), idx] = K
        r += len(K)
    order = np.argsort(pivots)
    return Subspace.from_rref(space, matrix[order], pivots[order])


def _term_kernel(space, N, blocks):
    """_block_kernels for a term-shaped N, whose row m is c_m e_j(m) or
    zero, as modulo a binomial basis: one kernel for all blocks, in
    closed form.  A monomial of normal form zero is free; the others of
    one block and one column j are tied by the single relation
    sum c_m x_m = 0, whose kernel in RREF has the row
    e_m - (c_m / c_l) e_l for each member m but the last, l."""
    p = space.ring.field.characteristic
    dim, ncols = N.shape
    block = np.empty(dim, dtype=np.int64)
    block[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)),
                                              list(map(len, blocks)))
    column = N.argmax(axis=1)
    coef = N[np.arange(dim), column]
    key = block * ncols + column
    live = np.flatnonzero(coef)
    live = live[np.argsort(key[live], kind="stable")]
    key = key[live]
    last = np.diff(key, append=-1) != 0
    group = np.cumsum(last) - last
    tails = live[last]
    inverses = np.array([pow(c, -1, p) for c in coef[tails].tolist()],
                        dtype=np.int64)
    tied, group = live[~last], group[~last]
    pivots = np.sort(np.concatenate([np.flatnonzero(coef == 0), tied]))
    matrix = np.zeros((len(pivots), dim), dtype=np.int64)
    matrix[np.arange(len(pivots)), pivots] = 1
    matrix[np.searchsorted(pivots, tied), tails[group]] = \
        -coef[tied] * inverses[group] % p
    return Subspace.from_rref(space, matrix, pivots)


def _homogeneous_blocks(graded, space):
    """Index arrays of the monomials of each degree, from one product
    with the grading's weight vectors: increasing indices, the blocks in
    lexicographic order of their degrees.  A grading without weights
    makes the whole space one block."""
    weights = np.array(graded.weights, dtype=np.int64)
    if not weights.size:
        return [np.arange(space.dimension)]
    dots = space.exponents @ weights.reshape(-1, space.ring.nvars).T
    r = graded.group.free_rank
    dots[:, r:] %= np.array(graded.group.torsion, dtype=np.int64)
    order = np.lexsort(dots.T[::-1])
    dots = dots[order]
    return np.split(order, np.flatnonzero(
        (dots[1:] != dots[:-1]).any(axis=1)) + 1)


def _star_space(I, graded, space):
    """(truncated star basis of I in space, I's normal-form matrix and
    reducible mask, or None for a monomial I)."""
    if I.is_monomial:
        return _monomial_basis(I, space), None
    normal_forms = _normal_form_matrix(I.groebner(GREVLEX), space)
    return _block_kernels(space, normal_forms[0],
                          _homogeneous_blocks(graded, space)), normal_forms


def truncated_star_basis(I, graded, degree_bound):
    """{f : deg f <= D, every homogeneous component of f lies in I}."""
    _same_ring(I.ring, graded)
    return _star_space(I, graded, TruncatedSpace(I.ring, degree_bound))[0]


def _first_escape(B, S, normal_forms):
    """Index of the first row of B whose polynomial is not in S, or None.

    With N the normal-form matrix of S, the normal forms of the rows are
    B[:, standard] + B[:, reducible] N[reducible] mod p; a monomial S has
    N = 0 on its reducible monomials.  normal_forms is S's (N,
    reducible), or None for a monomial S.
    """
    space = B.space
    p = space.ring.field.characteristic
    if S.is_monomial:
        leads = S.groebner(GREVLEX).leads
        E = B.matrix[:, ~space.divisible(leads).any(axis=1)]
    else:
        N, reducible = normal_forms
        E = (B.matrix[:, ~reducible]
             + _matmul_mod(B.matrix[:, reducible], N[reducible], p)) % p
    escaping = np.flatnonzero(E.any(axis=1))
    return int(escaping[0]) if escaping.size else None


@dataclass(frozen=True)
class OracleVerdict:
    status: str              # pass | fail | error
    reason: str
    witness: str | None = None

    @property
    def passed(self):
        return self.status == "pass"

    def to_payload(self):
        return {"verdict": self.status, "reason": self.reason,
                "witness": self.witness}


def _top_degree(gens):
    return max((g.total_degree() for g in gens), default=0)


def _compare_mod_p(I, graded, degree_bound, S):
    """oracle_compare over a prime field against the claimed star S."""
    gens = S.canonical_generators()
    maxdeg = _top_degree(gens)
    if degree_bound < maxdeg + 2:
        return OracleVerdict(
            "error",
            f"degree bound {degree_bound} below generator degree "
            f"{maxdeg} + 2")

    space = TruncatedSpace(I.ring, degree_bound)
    B, normal_forms = _star_space(I, graded, space)
    # A star with I's reduced basis has I's normal forms.
    if S != I:
        normal_forms = (None if S.is_monomial else
                        _normal_form_matrix(S.groebner(GREVLEX), space))
    escape = _first_escape(B, S, normal_forms)
    if escape is not None:
        return OracleVerdict(
            "fail", "truncated star vector escapes the computed star",
            str(space.polynomial(B.matrix[escape])))
    for g in gens:
        if not B.contains_vector(space.vector(g)):
            return OracleVerdict(
                "fail", "computed star generator missing from the "
                "truncated star space", str(g))
    return OracleVerdict(
        "pass",
        f"agreement at degree {degree_bound}, space dimension "
        f"{B.dimension}")


# Primes a rational ideal is reduced by.
_RATIONAL_PRIMES = (5, 7, 11)


class BadPrimeError(Exception):
    """Reduction mod p degenerates (a denominator or content vanishes)."""


def reduce_ideal_mod(I, p):
    """Image of a rational ideal in F_p with the same variables."""
    modular = PolynomialRing(GF(p), I.ring.variables)
    gens = []
    for g in I.generators:
        ints, den = _cleared(g.terms.values())
        if den % p == 0:
            raise BadPrimeError(f"denominator vanishes mod {p}")
        h = Polynomial(modular, dict(zip(g.terms, ints)))
        if h.is_zero:
            raise BadPrimeError(f"generator vanishes mod {p}")
        gens.append(h)
    return Ideal(modular, gens)


def oracle_compare(I, graded, degree_bound=None, star_ideal=None):
    """Differential check of the star computation at one degree bound.

    star_ideal overrides the computed star; that is how mutation tests
    inject corrupted outputs.  The bound must leave two degrees of
    headroom above the star's generators, otherwise the comparison is
    vacuous and the verdict says so instead of passing; a missing bound
    is exactly that headroom.

    Over Q the check is a heuristic, labeled so in the verdict: I and
    its rational star are reduced mod each of _RATIONAL_PRIMES whose
    reduction does not degenerate and takes I's generators and I's
    reduced basis to the same ideal, and every such prime must agree.
    """
    S = star(I, graded) if star_ideal is None else star_ideal
    _same_ring(I.ring, graded, S)
    if degree_bound is None:
        degree_bound = _top_degree(S.canonical_generators()) + 2
    if I.ring.field.characteristic:
        return _compare_mod_p(I, graded, degree_bound, S)
    used = []
    basis = Ideal(I.ring, I.groebner().elements)
    for p in _RATIONAL_PRIMES:
        try:
            Ip, Sp = reduce_ideal_mod(I, p), reduce_ideal_mod(S, p)
            if reduce_ideal_mod(basis, p) != Ip:
                continue
        except BadPrimeError:
            continue
        verdict = _compare_mod_p(
            Ip, GradedRing(Ip.ring, graded.group, graded.degrees),
            degree_bound, Sp)
        if not verdict.passed:
            return OracleVerdict(verdict.status,
                                 f"heuristic mod {p}: {verdict.reason}",
                                 verdict.witness)
        used.append(p)
    if not used:
        return OracleVerdict("error", "no usable prime for reduction")
    return OracleVerdict(
        "pass",
        "heuristic: agreement mod " + ", ".join(str(p) for p in used))
