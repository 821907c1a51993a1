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

from .groebner import Ideal, _monomial_ideal, _primed, _restrict, eliminate
from .poly import GREVLEX, Polynomial, fresh_names


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
        degrees = tuple(
            d if isinstance(d, Hdeg) else group.degree(*d) for d in degrees)
        if len(degrees) != ring.nvars:
            raise ValueError("need exactly one degree per variable")
        self.ring = ring
        self.group = group
        rows = [group.degree(d.free, d.torsion) for d in degrees]
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
    comps = homogeneous_components(f, graded)
    if len(comps) != 1:
        return None
    return next(iter(comps))


def is_homogeneous(f, graded):
    return len(homogeneous_components(f, graded)) <= 1


def is_g_ideal(I, graded):
    """True when every homogeneous component of every generator lies in I
    (equivalently, I is generated by homogeneous elements)."""
    if I.ring != graded.ring:
        raise ValueError("ideal and grading live on different rings")
    for g in I.generators:
        comps = homogeneous_components(g, graded)
        if len(comps) <= 1:
            continue
        if not all(I.contains(c) for c in comps.values()):
            return False
    return True


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
    if I.is_zero:
        return Ideal(ring)
    # Monomials are homogeneous: a monomial ideal is its own star.
    if I.is_monomial:
        return _monomial_ideal(ring, I.monomial_generators())
    gens = I.canonical_generators()
    if graded.group.is_trivial:
        return _primed(ring, gens)

    # Already generated by homogeneous elements: the ideal is its own star.
    # Otherwise a component of an inhomogeneous reduced basis element
    # that misses its lead has no term in the leading ideal, so it lies
    # outside I: only the elimination below can find the star.
    if all(is_homogeneous(g, graded) for g in gens):
        return _primed(ring, gens)

    r = graded.group.free_rank
    moduli = graded.group.torsion
    free_used = [j for j in range(r) if any(graded.weights[j])]
    tors_used = [k for k in range(len(moduli))
                 if any(graded.weights[r + k])]

    taken = set(ring.variables)
    u_names = fresh_names("u", len(free_used), taken)
    taken.update(u_names)
    s_names = fresh_names("s", len(tors_used), taken)
    taken.update(s_names)
    z_names = fresh_names("z", 1, taken) if free_used else []
    big = ring.extend(u_names + s_names + list(z_names))

    n = ring.nvars
    u_at = {j: n + pos for pos, j in enumerate(free_used)}
    s_at = {k: n + len(free_used) + pos for pos, k in enumerate(tors_used)}
    z_at = n + len(free_used) + len(tors_used) if free_used else None
    aux = list(range(n, big.nvars))

    lifted = []
    for g in gens:
        term_data = []
        for m, c in g.terms.items():
            d = graded.degree_of_monomial(m)
            term_data.append((m, c, d))
        shift = {j: max(d.free[j] for _, _, d in term_data)
                 for j in free_used}
        terms = {}
        for m, c, d in term_data:
            e = list(m) + [0] * (big.nvars - n)
            for j in free_used:
                e[u_at[j]] = shift[j] - d.free[j]
            for k in tors_used:
                e[s_at[k]] = d.torsion[k]
            terms[tuple(e)] = c
        lifted.append(Polynomial(big, terms))

    relations = []
    for k in tors_used:
        s = big.gen(s_at[k])
        relations.append(s ** moduli[k] - big.one())
    if free_used:
        prod = big.one()
        for j in free_used:
            prod = prod * big.gen(u_at[j])
        relations.append(big.one() - big.gen(z_at) * prod)

    upstairs = eliminate(Ideal(big, lifted + relations), aux)
    return _primed(ring, _restrict(upstairs, ring).canonical_generators())
