"""Buchberger-based ideal arithmetic: bases, membership, intersection,
quotients, saturation, elimination.

Determinism contract: S-pairs are processed in a fixed order (lcm under the
working order, then generator indices), bases are reduced and monic, and
every published generator list is sorted, so identical inputs give identical
output bytes.
"""

from __future__ import annotations

import heapq

from .poly import (GREVLEX, Polynomial, TermOrder, fresh_names, mono_div,
                   mono_divides, mono_gcd, mono_lcm, mono_mul)


class GroebnerBasis:
    """Reduced monic basis for an ideal under a fixed order."""

    __slots__ = ("ring", "order", "elements", "_reducers")

    def __init__(self, ring, order, elements):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self._reducers = tuple(
            (g.leading_monomial(order), g.terms) for g in self.elements)

    def normal_form(self, f):
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        terms = _reduce_full(dict(f.terms), self._reducers, self.order,
                             self.ring.field)
        return Polynomial(self.ring, terms, _clean=True)

    def contains(self, f):
        return self.normal_form(f).is_zero

    @property
    def is_unit(self):
        return (len(self.elements) == 1
                and not any(self.elements[0].leading_monomial(self.order)))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _reduce_full(work, reducers, order, field):
    """Fully reduce a term dict against monic reducers; returns the
    remainder dict.  First reducer in list order whose lead divides wins."""
    p = field.characteristic
    key = order.key
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for lm, gterms in reducers:
            if mono_divides(lm, m):
                hit = (lm, gterms)
                break
        if hit is None:
            remainder[m] = c
            continue
        lm, gterms = hit
        shift = tuple(a - b for a, b in zip(m, lm))
        for gm, gc in gterms.items():
            if gm == lm:
                continue
            mm = tuple(a + b for a, b in zip(gm, shift))
            s = work.get(mm, 0) - c * gc
            if p:
                s %= p
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return remainder


def _spoly_terms(lm_f, f_terms, lm_g, g_terms, field):
    """S-polynomial term dict for monic f, g."""
    p = field.characteristic
    lcm = mono_lcm(lm_f, lm_g)
    sf = tuple(a - b for a, b in zip(lcm, lm_f))
    sg = tuple(a - b for a, b in zip(lcm, lm_g))
    out = {}
    for m, c in f_terms.items():
        out[mono_mul(m, sf)] = c
    for m, c in g_terms.items():
        mm = mono_mul(m, sg)
        s = out.get(mm, 0) - c
        if p:
            s %= p
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return out


def _monomial_min_gens(monomials):
    """Minimal generating set of a monomial ideal, as exponent tuples."""
    ordered = sorted(set(monomials), key=lambda m: (sum(m), m))
    kept = []
    for m in ordered:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return kept


def buchberger(generators, order):
    """Reduced monic Groebner basis of the generated ideal.

    Product and chain criteria prune S-pairs; the queue is a heap keyed by
    (order key of the pair lcm, i, j) so runs are reproducible.
    """
    ring = generators[0].ring
    field = ring.field
    seed = [g for g in generators if not g.is_zero]
    if not seed:
        return GroebnerBasis(ring, order, ())

    if all(g.is_monomial for g in seed):
        gens = _monomial_min_gens([g.leading_monomial(order) for g in seed])
        elems = [ring.monomial(m) for m in
                 sorted(gens, key=order.key)]
        return GroebnerBasis(ring, order, elems)

    key = order.key
    basis = []          # list of (lm, terms) with monic terms
    for g in sorted(seed, key=lambda h: key(h.leading_monomial(order))):
        basis.append(_monic_entry(g, order, field))

    pending = set()
    heap = []
    for j in range(len(basis)):
        for i in range(j):
            _push_pair(heap, pending, basis, i, j, key)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lm_i, ti = basis[i]
        lm_j, tj = basis[j]
        if lcm == mono_mul(lm_i, lm_j):
            continue  # coprime leads: S-pair reduces to zero
        if _chain_deletable(basis, pending, i, j, lcm):
            continue
        s = _spoly_terms(lm_i, ti, lm_j, tj, field)
        rem = _reduce_full(s, basis, order, field)
        if not rem:
            continue
        lead = max(rem, key=key)
        inv = field.inv(rem[lead])
        p = field.characteristic
        if p:
            rem = {m: (c * inv) % p for m, c in rem.items()}
        else:
            rem = {m: c * inv for m, c in rem.items()}
        basis.append((lead, rem))
        t = len(basis) - 1
        for i2 in range(t):
            _push_pair(heap, pending, basis, i2, t, key)

    return GroebnerBasis(ring, order, _reduce_basis(basis, order, ring))


def _monic_entry(g, order, field):
    lm, c = g.leading_term(order)
    if c == field.one:
        return (lm, dict(g.terms))
    inv = field.inv(c)
    p = field.characteristic
    if p:
        return (lm, {m: (a * inv) % p for m, a in g.terms.items()})
    return (lm, {m: a * inv for m, a in g.terms.items()})


def _push_pair(heap, pending, basis, i, j, key):
    lcm = mono_lcm(basis[i][0], basis[j][0])
    heapq.heappush(heap, (key(lcm), lcm, i, j))
    pending.add((i, j))


def _chain_deletable(basis, pending, i, j, lcm):
    for k in range(len(basis)):
        if k == i or k == j:
            continue
        if not mono_divides(basis[k][0], lcm):
            continue
        a = (min(i, k), max(i, k))
        b = (min(j, k), max(j, k))
        if a not in pending and b not in pending:
            return True
    return False


def _reduce_basis(basis, order, ring):
    """Minimalize then interreduce; output sorted ascending by lead."""
    key = order.key
    entries = sorted(basis, key=lambda e: key(e[0]))
    kept = []
    for idx, (lm, terms) in enumerate(entries):
        redundant = False
        for jdx, (lm2, _) in enumerate(entries):
            if jdx == idx:
                continue
            if mono_divides(lm2, lm) and (lm2 != lm or jdx < idx):
                redundant = True
                break
        if not redundant:
            kept.append((lm, terms))
    field = ring.field
    final = []
    for idx, (lm, terms) in enumerate(kept):
        others = [kept[k] for k in range(len(kept)) if k != idx]
        reduced = _reduce_full(dict(terms), others, order, field)
        final.append(Polynomial(ring, reduced, _clean=True))
    final.sort(key=lambda g: key(g.leading_monomial(order)))
    return final


class Ideal:
    """Finitely generated ideal in a PolynomialRing.

    Equality and containment are extensional (Groebner-backed), so two
    ideals compare equal exactly when they contain the same elements.
    """

    __slots__ = ("ring", "generators", "_bases")

    def __init__(self, ring, generators=()):
        gens = []
        for g in generators:
            if isinstance(g, str):
                from .poly import parse_polynomial
                g = parse_polynomial(g, ring)
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._bases = {}

    def groebner(self, order=GREVLEX):
        basis = self._bases.get(order)
        if basis is None:
            if not self.generators:
                basis = GroebnerBasis(self.ring, order, ())
            else:
                basis = buchberger(list(self.generators), order)
            self._bases[order] = basis
        return basis

    def canonical_generators(self):
        """Reduced grevlex basis, sorted by leading exponent tuple,
        lexicographically descending.  The printed form of the ideal."""
        elems = list(self.groebner(GREVLEX))
        elems.sort(key=lambda g: g.leading_monomial(GREVLEX), reverse=True)
        return elems

    @property
    def is_zero(self):
        return len(self.groebner(GREVLEX)) == 0

    @property
    def is_unit(self):
        return self.groebner(GREVLEX).is_unit

    def contains(self, f):
        return self.groebner(GREVLEX).contains(f)

    @property
    def is_monomial(self):
        return all(g.is_monomial for g in self.groebner(GREVLEX))

    def monomial_generators(self):
        """Minimal generating exponent tuples; only for monomial ideals."""
        if not self.is_monomial:
            raise ValueError("not a monomial ideal")
        return [g.leading_monomial(GREVLEX) for g in self.groebner(GREVLEX)]

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner(GREVLEX).elements == \
            other.groebner(GREVLEX).elements

    __hash__ = None

    def __le__(self, other):
        """self is a subset of other."""
        if self.ring != other.ring:
            raise ValueError("ideals in different rings")
        gb = other.groebner(GREVLEX)
        return all(gb.contains(g) for g in self.generators)

    def __ge__(self, other):
        return other.__le__(self)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.canonical_generators())
        return f"Ideal({gens})" if gens else "Ideal(0)"


def normal_form(f, ideal, order=GREVLEX):
    return ideal.groebner(order).normal_form(f)


def ideal_membership(f, ideal):
    return ideal.contains(f)


def ideal_equal(I, J):
    return I == J


def ideal_contains(I, J):
    """True when J is a subset of I."""
    return J <= I


def ideal_sum(I, *rest):
    gens = list(I.generators)
    for J in rest:
        if J.ring != I.ring:
            raise ValueError("ideals in different rings")
        gens.extend(J.generators)
    return Ideal(I.ring, gens)


def ideal_product(I, J):
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    gens = [f * g for f in I.generators for g in J.generators]
    return Ideal(I.ring, gens)


def ideal_power(I, n):
    if n < 0:
        raise ValueError("negative ideal power")
    out = Ideal(I.ring, [I.ring.one()])
    for _ in range(n):
        out = ideal_product(out, I)
    return out


def _lift(ideal_or_polys, big, var_map):
    return [f.map_to(big, var_map) for f in ideal_or_polys]


def _extension(ring, label, count=1):
    names = fresh_names(label, count, ring.variables)
    big = ring.extend(names)
    var_map = {i: i for i in range(ring.nvars)}
    new_idx = tuple(range(ring.nvars, ring.nvars + count))
    return big, var_map, new_idx


def _restrict(polys, big, small, elim_indices):
    """Map elimination output back down; keeps only polys free of the
    eliminated variables (the rest are dropped by the caller's selection)."""
    back = {i: i for i in range(small.nvars)}
    out = []
    for f in polys:
        if any(m[i] for m in f.terms for i in elim_indices):
            continue
        out.append(f.map_to(small, back))
    return out


def eliminate(ideal, variables):
    """Generators of ideal ∩ k[remaining variables], as an ideal of the
    same ring (output polynomials avoid the eliminated variables)."""
    ring = ideal.ring
    indices = frozenset(
        ring.variable_index(v) if isinstance(v, str) else int(v)
        for v in variables)
    if not indices:
        return Ideal(ring, ideal.generators)
    order = TermOrder.elimination(indices)
    gb = ideal.groebner(order)
    kept = [g for g in gb
            if not any(m[i] for m in g.terms for i in indices)]
    return Ideal(ring, kept)


def intersect(I, J):
    """I ∩ J.  Monomial pairs use pairwise lcms; the general route scales
    by an auxiliary variable t and eliminates it from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    ring = I.ring
    if I.is_zero or J.is_zero:
        return Ideal(ring)
    if I.is_monomial and J.is_monomial:
        lcms = [mono_lcm(a, b)
                for a in I.monomial_generators()
                for b in J.monomial_generators()]
        return Ideal(ring, [ring.monomial(m)
                            for m in _monomial_min_gens(lcms)])
    big, var_map, (ti,) = _extension(ring, "t")
    t = big.gen(ti)
    one = big.one()
    gens = [t * f for f in _lift(I.groebner(GREVLEX), big, var_map)]
    gens += [(one - t) * g for g in _lift(J.groebner(GREVLEX), big, var_map)]
    upstairs = eliminate(Ideal(big, gens), [ti])
    return Ideal(ring, _restrict(upstairs.generators, big, ring, (ti,)))


def intersect_all(ideals, ring=None):
    """Intersection of a family; the empty family gives the unit ideal."""
    ideals = list(ideals)
    if not ideals:
        if ring is None:
            raise ValueError("empty intersection needs an explicit ring")
        return Ideal(ring, [ring.one()])
    out = ideals[0]
    for J in ideals[1:]:
        out = intersect(out, J)
    return out


def exact_quotient(f, g, order=GREVLEX):
    """f / g for f in (g); raises ArithmeticError when not divisible."""
    ring = f.ring
    field = ring.field
    p = field.characteristic
    lt = g.leading_term(order)
    if lt is None:
        raise ArithmeticError("division by zero polynomial")
    lm_g, lc_g = lt
    inv = field.inv(lc_g)
    work = dict(f.terms)
    quot = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        shift = mono_div(m, lm_g)
        if shift is None:
            raise ArithmeticError("not an exact multiple")
        q = c * inv
        if p:
            q %= p
        quot[shift] = q
        for gm, gc in g.terms.items():
            if gm == lm_g:
                continue
            mm = mono_mul(gm, shift)
            s = work.get(mm, 0) - q * gc
            if p:
                s %= p
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return Polynomial(ring, quot, _clean=True)


def colon(I, J):
    """Ideal quotient I : J; J may be a polynomial or an ideal, but not
    zero."""
    if isinstance(J, Polynomial):
        if J.is_zero:
            raise ValueError("colon by zero")
        return _colon_poly(I, J)
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    gens = [g for g in J.generators if not g.is_zero]
    if not gens:
        raise ValueError("colon by the zero ideal")
    return intersect_all([_colon_poly(I, g) for g in gens], I.ring)


def _colon_poly(I, g):
    ring = I.ring
    if g.is_constant:
        return Ideal(ring, I.generators)
    if I.is_zero:
        return Ideal(ring)
    if I.is_monomial and g.is_monomial:
        gm = g.leading_monomial(GREVLEX)
        quotients = [mono_div(m, mono_gcd(m, gm))
                     for m in I.monomial_generators()]
        return Ideal(ring, [ring.monomial(m)
                            for m in _monomial_min_gens(quotients)])
    meet = intersect(I, Ideal(ring, [g]))
    return Ideal(ring, [exact_quotient(h, g) for h in meet.generators])


def saturate(I, f, cap=64):
    """(I : f^infinity, n) with n minimal such that I : f^n stabilizes.

    The stable ideal comes from one elimination with the inverted-variable
    relation 1 - z*f; the exponent from iterating colon against it.
    """
    ring = I.ring
    if f.is_zero:
        raise ValueError("saturation by zero")
    if f.is_constant:
        return Ideal(ring, I.generators), 0
    big, var_map, (zi,) = _extension(ring, "z")
    rel = big.one() - big.gen(zi) * f.map_to(big, var_map)
    up = Ideal(big, _lift(I.groebner(GREVLEX), big, var_map) + [rel])
    stable = Ideal(ring,
                   _restrict(eliminate(up, [zi]).generators, big, ring,
                             (zi,)))
    current = Ideal(ring, I.generators)
    n = 0
    while current != stable:
        if n >= cap:
            raise RuntimeError(f"saturation exponent exceeds {cap}")
        current = _colon_poly(current, f)
        n += 1
    return stable, n


def saturate_ideal(I, J, cap=64):
    """I : J^infinity as the meet of the single-element saturations."""
    gens = [g for g in J.generators if not g.is_zero]
    if not gens:
        return Ideal(I.ring, [I.ring.one()])
    parts = [saturate(I, g, cap)[0] for g in gens]
    return intersect_all(parts, I.ring)


def radical_membership(f, I):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - z*f)."""
    ring = I.ring
    if f.is_zero:
        return True
    big, var_map, (zi,) = _extension(ring, "z")
    rel = big.one() - big.gen(zi) * f.map_to(big, var_map)
    up = Ideal(big, _lift(I.generators, big, var_map) + [rel])
    return up.is_unit
