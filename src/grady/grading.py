"""Gradings of polynomial rings by Z^r x Z/m_1 x ... x Z/m_s, homogeneous
components, and the largest homogeneous subideal.

Every monomial is homogeneous, so the grading data is just one group
element per variable.  The field plays no role in what "homogeneous"
means, which is why the same code serves Q and GF(p) even when p divides
a torsion modulus.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .groebner import _eliminated, _extension, _published
from .poly import GREVLEX, Polynomial, ResourceLimitError

# star eliminates over s^m - 1 for each used torsion modulus m, in time
# that grows faster than m^2: on a 2-core VM, star of (x - 1) over F5
# graded by Z/m takes 0.9 s at m = 1000 and 4.4 s at m = 2000.
MAX_TORSION_MODULUS = 1000


class Hdeg(NamedTuple):
    """Element of the grading group: free part over Z, torsion residues."""

    free: tuple
    torsion: tuple

    def __str__(self):
        return f"[{list(self.free)}, {list(self.torsion)}]"


def _integers(values, what):
    """values as a tuple of ints; a float, string or bool is refused rather
    than truncated or parsed."""
    values = tuple(values)
    if not all(type(a) is int for a in values):
        raise TypeError(f"{what} must be integers")
    return values


class GradingGroup:
    """Z^free_rank plus cyclic factors of the given moduli (each >= 2)."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank=0, torsion=()):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        moduli = _integers(torsion, "torsion moduli")
        if any(m < 2 for m in moduli):
            raise ValueError("torsion moduli must be >= 2")
        self.free_rank = free_rank
        self.torsion = moduli

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def degree(self, free=(), torsion=()):
        free = _integers(free, "degrees")
        tors = _integers(torsion, "degrees")
        if len(free) != self.free_rank or len(tors) != len(self.torsion):
            raise ValueError("degree has wrong shape for this group")
        return Hdeg(free, tuple(b % m for b, m in zip(tors, self.torsion)))

    def sub(self, a, b):
        return Hdeg(tuple(x - y for x, y in zip(a.free, b.free)),
                    tuple((x - y) % m for x, y, m in
                          zip(a.torsion, b.torsion, self.torsion)))

    def __eq__(self, other):
        return (isinstance(other, GradingGroup)
                and other.free_rank == self.free_rank
                and other.torsion == self.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{m}" for m in self.torsion]
        return " x ".join(parts) if parts else "0"


class GradedRing:
    """A polynomial ring together with a degree for each variable, held as
    an integer matrix: one weight vector per coordinate of the group (free
    ones first, torsion ones reduced mod their moduli) with every
    variable's degree there."""

    __slots__ = ("ring", "group", "weights")

    def __init__(self, ring, group, degrees):
        # an Hdeg unpacks as (free, torsion) too, and is checked the same
        rows = [group.degree(*d) for d in degrees]
        if len(rows) != ring.nvars:
            raise ValueError("need exactly one degree per variable")
        self.ring = ring
        self.group = group
        self.weights = tuple(zip(*(d.free + d.torsion for d in rows)))

    @property
    def degrees(self):
        """Each variable's degree."""
        r = self.group.free_rank
        return tuple(Hdeg(tuple(w[i] for w in self.weights[:r]),
                          tuple(w[i] for w in self.weights[r:]))
                     for i in range(self.ring.nvars))

    def degree_of_monomial(self, exps):
        """Dot products of exps with the weight vectors, the torsion
        coordinates reduced mod their moduli."""
        dots = [sum(map(mul, exps, w)) for w in self.weights]
        r = self.group.free_rank
        return Hdeg(tuple(dots[:r]),
                    tuple(d % m for d, m in zip(dots[r:],
                                                self.group.torsion)))

    def __repr__(self):
        return f"GradedRing({self.ring!r}, {self.group!r})"


def homogeneous_components(f, graded):
    """Split f by degree; returns {Hdeg: component}, insertion-ordered by
    descending grevlex leading term so iteration is reproducible."""
    buckets = {}
    for m in sorted(f.terms, key=GREVLEX.desc_key):
        d = graded.degree_of_monomial(m)
        buckets.setdefault(d, {})[m] = f.terms[m]
    return {d: Polynomial(f.ring, t, _clean=True)
            for d, t in buckets.items()}


def degree_of(f, graded):
    """Degree of a nonzero homogeneous polynomial, else None."""
    degrees = {graded.degree_of_monomial(m) for m in f.terms}
    return degrees.pop() if len(degrees) == 1 else None


def is_homogeneous(f, graded):
    return f.is_zero or degree_of(f, graded) is not None


def is_g_ideal(I, graded):
    """True when I is generated by homogeneous elements: the group is
    trivial, every generator is homogeneous, or every element of I's
    reduced grevlex basis is.

    The last test is exact.  If I is homogeneous and g is a reduced basis
    element, the components of g that miss the degree of its lead sum to
    an element of I whose terms are all tail terms of g; no lead of the
    basis divides a tail term, so that element is its own normal form,
    hence zero, and g is homogeneous.
    """
    if I.ring != graded.ring:
        raise ValueError("ideal and grading live on different rings")
    return (graded.group.is_trivial
            or all(is_homogeneous(g, graded) for g in I.generators)
            or all(is_homogeneous(g, graded) for g in I.groebner().elements))


def star(I, graded):
    """Largest homogeneous ideal contained in I.

    An element lies in the result iff all its components do, i.e. iff its
    image under x_i -> x_i * chi(d_i) falls in the extension of I to
    R tensor k[H].  Model k[H] with one invertible u_j per used free
    coordinate (a single Rabinowitsch variable z inverts their product)
    and one s_k per used torsion coordinate subject to s_k^{m_k} = 1;
    substitute, then eliminate the auxiliaries.
    """
    ring = I.ring
    if ring != graded.ring:
        raise ValueError("ideal and grading live on different rings")
    # A homogeneous ideal is its own star, and the star's generators are
    # always its reduced basis: I itself when it holds exactly that basis,
    # else the basis published.
    gb = I.groebner(GREVLEX)
    if gb.is_monomial or is_g_ideal(I, graded):
        if I.generators == gb.elements:
            return I
        return _published(ring, gb.elements, gb.leads)

    r = graded.group.free_rank
    moduli = graded.group.torsion
    free_used = [j for j in range(r) if any(graded.weights[j])]
    tors_used = [k for k in range(len(moduli))
                 if any(graded.weights[r + k])]
    for k in tors_used:
        if moduli[k] > MAX_TORSION_MODULUS:
            raise ResourceLimitError(
                f"star would eliminate over the relation s^{moduli[k]} - 1, "
                f"over the torsion modulus budget of {MAX_TORSION_MODULUS}")

    # Auxiliaries after the ring's variables: the u_j, the s_k, then z.
    n, nu, ns = ring.nvars, len(free_used), len(tors_used)
    nz = 1 if free_used else 0
    big, _ = _extension(ring, nu + ns + nz)
    pad = (0,) * nz
    lifted = []
    for g in gb.by_lead_descending():
        degrees = {m: graded.degree_of_monomial(m) for m in g.terms}
        top = [max(d.free[j] for d in degrees.values()) for j in free_used]
        lifted.append(Polynomial(big, {
            m + tuple(t - d.free[j] for t, j in zip(top, free_used))
            + tuple(d.torsion[k] for k in tors_used) + pad: g.terms[m]
            for m, d in degrees.items()}, _clean=True))
    one = big.one()
    relations = [big.gen(n + nu + at) ** moduli[k] - one
                 for at, k in enumerate(tors_used)]
    if free_used:
        relations.append(
            one - big.monomial((0,) * n + (1,) * nu + (0,) * ns + (1,)))
    return _eliminated(big, lifted + relations, ring)
