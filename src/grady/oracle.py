"""Brute-force verification of star outputs over prime fields.

Works entirely inside the space of polynomials of total degree <= D:
membership in an ideal becomes the kernel of the normal-form linear
map, and membership in the star becomes the same kernel restricted to
each homogeneous block.  Dense exact row reduction mod p; no
elimination machinery is involved, which is the point of the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grading import GradedRing, star
from .groebner import GREVLEX, Ideal
from .poly import GF, Polynomial, PolynomialRing


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


# One dim x dim int64 matrix (the normal-form map) stays within 128 MiB.
MAX_SPACE_DIMENSION = 4096


class ResourceLimitError(Exception):
    """The job would need more memory than a fixed budget allows."""


class TruncatedSpace:
    __slots__ = ("ring", "degree_bound", "monomials", "index")

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
        self.monomials = tuple(monomials_up_to(ring.nvars, degree_bound))
        self.index = {m: i for i, m in enumerate(self.monomials)}
        assert len(self.monomials) == dim

    @property
    def dimension(self):
        return len(self.monomials)

    def vector(self, f):
        v = np.zeros(self.dimension, dtype=np.int64)
        for m, c in f.terms.items():
            if m not in self.index:
                raise ValueError("polynomial exceeds the degree bound")
            v[self.index[m]] = c
        return v

    def polynomial(self, v):
        p = self.ring.field.characteristic
        return Polynomial(self.ring, {self.monomials[i]: int(v[i]) % p
                                      for i in np.flatnonzero(v)})


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
        below = np.flatnonzero(A[r:, c])
        if not below.size:
            continue
        pivot = r + below[0]
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        A[r] = (A[r] * pow(int(A[r, c]), -1, p)) % p
        rows = np.flatnonzero(A[:, c])
        rows = rows[rows != r]
        if rows.size:
            A[rows, c:] = (A[rows, c:]
                           - np.outer(A[rows, c], A[r, c:])) % p
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _nullspace(A, p):
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


class Subspace:
    """Row span in a TruncatedSpace, held in reduced row echelon form."""

    __slots__ = ("space", "matrix", "pivots")

    def __init__(self, space, rows):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, space.dimension)
        self.matrix, self.pivots = _rref(rows, space.ring.field.characteristic)
        self.space = space

    @classmethod
    def unit_rows(cls, space, indices):
        """Span of the unit vectors at the given increasing indices: those
        rows are already in RREF, with the indices as pivots."""
        S = cls.__new__(cls)
        S.space = space
        S.matrix = np.zeros((len(indices), space.dimension), dtype=np.int64)
        S.matrix[np.arange(len(indices)), indices] = 1
        S.pivots = [int(i) for i in indices]
        return S

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


def _normal_form_matrix(I, space):
    """Row i is the normal form of the i-th monomial; grevlex reduction
    never raises total degree, so rows stay inside the space."""
    ring = space.ring
    gb = I.groebner(GREVLEX)
    N = np.zeros((space.dimension, space.dimension), dtype=np.int64)
    for i, m in enumerate(space.monomials):
        nf = gb.normal_form(ring.monomial(m))
        for mm, c in nf.terms.items():
            N[i, space.index[mm]] = c
    return N


def truncated_ideal_basis(I, degree_bound):
    """Exact basis of {f in I : deg f <= D} as a Subspace."""
    space = TruncatedSpace(I.ring, degree_bound)
    if I.is_monomial:
        exps = np.array(space.monomials, dtype=np.int64)
        inside = np.zeros(space.dimension, dtype=bool)
        for g in I.monomial_generators():
            inside |= (exps >= g).all(axis=1)
        return Subspace.unit_rows(space, np.flatnonzero(inside))
    N = _normal_form_matrix(I, space)
    return Subspace(space, _nullspace(N.T, I.ring.field.characteristic))


def truncated_star_basis(I, graded, degree_bound):
    """{f : deg f <= D, every homogeneous component of f lies in I}."""
    if I.is_monomial:
        return truncated_ideal_basis(I, degree_bound)
    space = TruncatedSpace(I.ring, degree_bound)
    p = I.ring.field.characteristic
    N = _normal_form_matrix(I, space)
    blocks = {}
    for i, m in enumerate(space.monomials):
        blocks.setdefault(graded.degree_of_monomial(m), []).append(i)
    rows = []
    for key in sorted(blocks, key=lambda h: (h.free, h.torsion)):
        idx = blocks[key]
        W = _nullspace(N[idx, :].T, p)
        V = np.zeros((len(W), space.dimension), dtype=np.int64)
        V[:, idx] = W
        rows.append(V)
    return Subspace(space, np.vstack(rows))


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


def oracle_compare(I, graded, degree_bound, star_ideal=None):
    """Differential check of the star computation at one degree bound.

    star_ideal overrides the computed star; that is how mutation tests
    inject corrupted outputs.  The bound must leave two degrees of
    headroom above the star's generators, otherwise the comparison is
    vacuous and the verdict says so instead of passing.
    """
    S = star(I, graded) if star_ideal is None else star_ideal
    gens = S.canonical_generators()
    maxdeg = max((g.total_degree() for g in gens), default=0)
    if degree_bound < maxdeg + 2:
        return OracleVerdict(
            "error",
            f"degree bound {degree_bound} below generator degree "
            f"{maxdeg} + 2")

    B = truncated_star_basis(I, graded, degree_bound)
    for b in B.polynomials():
        if not S.contains(b):
            return OracleVerdict(
                "fail", "truncated star vector escapes the computed star",
                str(b))
    space = B.space
    for g in gens:
        if not B.contains_vector(space.vector(g)):
            return OracleVerdict(
                "fail", "computed star generator missing from the "
                "truncated star space", str(g))
    return OracleVerdict(
        "pass",
        f"agreement at degree {degree_bound}, space dimension "
        f"{B.dimension}")


class BadPrimeError(Exception):
    """Reduction mod p degenerates (a denominator or content vanishes)."""


def reduce_ideal_mod(I, p, graded=None):
    """Image of a rational ideal in F_p with the same variables."""
    ring = I.ring
    modular = PolynomialRing(GF(p), ring.variables)
    gens = []
    for g in I.generators:
        den = math.lcm(*(c.denominator for c in g.terms.values()))
        if den % p == 0:
            raise BadPrimeError(f"denominator vanishes mod {p}")
        terms = {}
        for m, c in g.terms.items():
            r = int(c * den) % p
            if r:
                terms[m] = r
        if not terms:
            raise BadPrimeError(f"generator vanishes mod {p}")
        gens.append(Polynomial(modular, terms))
    J = Ideal(modular, gens)
    if graded is None:
        return J
    return J, GradedRing(modular, graded.group, graded.degrees)


def oracle_compare_rationals(I, graded, degree_bound, primes=(5, 7, 11),
                             star_ideal=None):
    """Heuristic rational-coefficient variant: reduce mod several primes
    and demand agreement at each; labeled heuristic in the verdict."""
    if I.ring.field.characteristic != 0:
        raise ValueError("rational oracle expects characteristic 0")
    used = []
    for p in primes:
        try:
            Ip, Rp = reduce_ideal_mod(I, p, graded)
            Sp = None
            if star_ideal is not None:
                Sp = reduce_ideal_mod(star_ideal, p)
        except BadPrimeError:
            continue
        verdict = oracle_compare(Ip, Rp, degree_bound, star_ideal=Sp)
        if verdict.status != "pass":
            return OracleVerdict(verdict.status,
                                 f"heuristic mod {p}: {verdict.reason}",
                                 verdict.witness)
        used.append(p)
    if not used:
        return OracleVerdict("error", "no usable prime for reduction")
    return OracleVerdict(
        "pass",
        "heuristic: agreement mod " + ", ".join(str(p) for p in used))
