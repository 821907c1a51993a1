"""Buchberger-based ideal arithmetic: bases, membership, intersection,
quotients, saturation, elimination.

Buchberger's algorithm here uses the Gebauer-Moller pair update (Gebauer
and Moller 1988): each new basis element prunes its own new S-pairs and
the queued ones by the chain and product criteria before anything is
keyed, and retires the elements whose leads it divides.  Division is
heap-based (Monagan and Pearce 2007): each monomial's order key is
computed once, when it first enters the working polynomial.

Coefficients: poly.CoefficientField owns their form; the kernel tests no
characteristic.  field.entry makes a basis entry, monic over F_p and over
Q a primitive integer term dict (denominators cleared, content divided
out, lead positive), so the kernel does no Fraction arithmetic: a reducer
with a lead coefficient other than one pseudo-divides, an S-polynomial
crosses the two leads over their gcd, and field.canonical reduces mod p.
An entry is a multiple of the monic one, so leads, pairs and sugar are a
monic run's; field.publish makes it monic when _reduce_basis publishes it.

Determinism contract: S-pairs are processed in a fixed order (sugar, lcm
under the working order, then generator indices), bases are reduced and
monic, and every published generator list is sorted, so identical inputs
give identical output bytes.

Published bases: a result whose reduced monic grevlex basis is already at
hand is built by _published from that basis, ascending, and its leads,
so Buchberger never rebuilds it and nothing is scanned or sorted.
Monomial ideals stay exponent tuples, their minimal generators ascending
in grevlex, while the kernel at the end of this module works on them;
decomposition and gtheory fold and compare such tuples too, and publish
an Ideal (_monomial_ideal) only for a result they return.  Elimination
keeps the Buchberger entries whose leads avoid the eliminated variables
and minimalizes and interreduces only those: under the block order such
an entry is free of them, the leads that divide its terms are free of
them too, so the dropped entries never reduce a kept one, and the result
is the slice of the reduced elimination basis free of the eliminated
variables.  The block order is grevlex there, so the slice is the reduced
grevlex basis of the elimination ideal, ascending, with the same leads.
The kernel takes term dicts, so the auxiliaries of intersect,
saturation, radical membership and star are trailing exponent positions,
never a ring: _eliminated cuts the kept entries to the ring's variables.
A colon by a monomial x^a publishes the reduced basis of I ∩ (x^a)
divided by x^a.
"""

from __future__ import annotations

import functools
import heapq
import math
from itertools import chain, islice
from operator import add, itemgetter, le, sub

from .poly import (GREVLEX, Polynomial, ResourceLimitError, TermOrder,
                   _add_terms, _same_ring, _scale_terms, mono_div,
                   mono_divides, mono_lcm, mono_mul, parse_polynomial)


class GroebnerBasis:
    """Reduced monic basis for an ideal under a fixed order: elements
    ascending in the order, with their leading monomials."""

    __slots__ = ("ring", "order", "elements", "leads", "_monomial",
                 "_descending", "_key")

    def __init__(self, ring, order, elements, leads):
        self.ring = ring
        self.order = order
        self.elements = tuple(elements)
        self.leads = tuple(leads)
        self._monomial = self._descending = self._key = None

    @property
    def is_monomial(self):
        """Every element is a single term; found on the first call."""
        if self._monomial is None:
            self._monomial = all(len(g.terms) == 1 for g in self.elements)
        return self._monomial

    def normal_form(self, f):
        _same_ring(self.ring, f)
        reducers = [(lm, g.terms) for lm, g in zip(self.leads, self.elements)]
        terms = _reduce_full(dict(f.terms), reducers, self.order,
                             self.ring.field)
        return Polynomial(self.ring, terms, _clean=True)

    def contains(self, f):
        return self.normal_form(f).is_zero

    @property
    def is_unit(self):
        return len(self.leads) == 1 and not any(self.leads[0])

    def by_lead_descending(self):
        """Elements sorted by leading exponent tuple, lexicographically
        descending; a fresh list of the order found on the first call."""
        if self._descending is None:
            self._descending = [g for _, g in sorted(
                zip(self.leads, self.elements), key=itemgetter(0),
                reverse=True)]
        return self._descending[:]

    @property
    def key(self):
        """The rendered elements in by_lead_descending order, rendered on
        the first call: the printed form, and the sort key of ideals."""
        if self._key is None:
            self._key = tuple(map(str, self.by_lead_descending()))
        return self._key

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def _reduce_full(work, reducers, order, field):
    """Fully reduce a term dict (consumed) against reducers, basis entries
    as field.entry makes them; returns the remainder dict, its terms
    inserted in descending order.  First reducer in list order whose lead
    divides wins.

    A heap of (desc_key, monomial) beside work yields the terms largest
    first; each is popped from work when taken, and every later term is
    smaller, so it never returns.  A cancelled term stays in work with
    coefficient zero until the heap reaches it, so each monomial is keyed
    and pushed once.  A reducer whose lead coefficient a is not one
    pseudo-divides: a and the work term's coefficient c go over their gcd,
    then the work and the remainder are scaled by a before c times the
    shifted reducer is taken off.
    """
    canonical = field.canonical
    dkey = order.desc_key
    heap = [(dkey(m), m) for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        m = pop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for lm, gterms in reducers:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        a = gterms[lm]
        if a != 1:
            d = math.gcd(a, c)
            a, c = a // d, c // d
            work = {k: v * a for k, v in work.items()}
            remainder = {k: v * a for k, v in remainder.items()}
        shift = tuple(map(sub, m, lm))
        for gm, gc in gterms.items():
            if gm == lm:
                continue
            mm = tuple(map(add, gm, shift))
            old = work.get(mm)
            if old is None:
                old = 0
                push(heap, (dkey(mm), mm))
            work[mm] = canonical(old - c * gc)
    return remainder


def _spoly_terms(lcm, lm_f, f_terms, lm_g, g_terms, field):
    """S-polynomial term dict of basis entries f, g whose leads have this
    lcm: each tail shifted once and the leads, which cancel, left out.
    The lead coefficients cross over their gcd, so monic entries give
    exactly the S-polynomial."""
    canonical = field.canonical
    a, b = f_terms[lm_f], g_terms[lm_g]
    if a == b:
        a = b = 1
    else:
        d = math.gcd(a, b)
        a, b = b // d, a // d
    sf = tuple(map(sub, lcm, lm_f))
    out = {tuple(map(add, m, sf)): a * c
           for m, c in f_terms.items() if m != lm_f}
    sg = tuple(map(sub, lcm, lm_g))
    for m, c in g_terms.items():
        if m != lm_g:
            mm = tuple(map(add, m, sg))
            s = canonical(out.get(mm, 0) - b * c)
            if s:
                out[mm] = s
            else:
                del out[mm]
    return out


def buchberger(generators, order):
    """Reduced monic Groebner basis of the generated ideal."""
    ring = generators[0].ring
    _same_ring(ring, *generators)
    seed = [g.terms for g in generators if g.terms]
    if seed and all(len(terms) == 1 for terms in seed):
        gens = sorted(_monomial_min_gens([next(iter(t)) for t in seed]),
                      key=order.key)
        return GroebnerBasis(ring, order, [ring.monomial(m) for m in gens],
                             gens)
    leads, elements = _reduce_basis(_buchberger(seed, order, ring.field),
                                    order, ring)
    return GroebnerBasis(ring, order, elements, leads)


def _buchberger(seed, order, field):
    """The live entries of a Groebner basis of seed, nonzero term dicts
    over field: a list of (lead, terms) as field.entry makes them,
    neither minimal nor reduced; _reduce_basis publishes them.

    The generators enter one at a time, ascending by lead, and so does
    each nonzero S-polynomial remainder; every entry runs the
    Gebauer-Moller update (_update).  Queued pairs live in a dict keyed by
    (i, j) beside a heap of (sugar, order key of the pair lcm, i, j), from
    which deleted pairs are dropped when popped, so runs are
    reproducible.

    Pairs are taken by sugar (Giovini, Mora, Niesi, Robbiano and Traverso
    1991, "One sugar cube, please"): a generator's sugar is its total
    degree, a pair's is the larger of s_i + deg lcm - deg lm_i over its
    two elements, and a remainder takes its pair's.  Sugar is the degree
    the polynomial would have over the homogenized input, so lex and
    elimination runs no longer chase pairs of high degree first.
    """
    key = order.key

    basis = []          # (lm, terms); retired entries still reduce
    sugar = []          # the sugar of each basis entry
    live = []           # indices of the entries that take new pairs
    pairs = {}          # (i, j) -> lcm of every queued pair
    heap = []
    leads = [min(terms, key=order.desc_key) for terms in seed]
    for lm, terms in sorted(zip(leads, seed), key=lambda e: key(e[0])):
        _update(basis, sugar, live, pairs, heap,
                (lm, field.entry(lm, terms)), max(map(sum, terms)), key)

    while heap:
        s, _, i, j = heapq.heappop(heap)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        spoly = _spoly_terms(lcm, *basis[i], *basis[j], field)
        rem = _reduce_full(spoly, basis, order, field)
        if rem:     # the remainder's first term is its lead
            lm = next(iter(rem))
            _update(basis, sugar, live, pairs, heap,
                    (lm, field.entry(lm, rem)), s, key)
    return [basis[i] for i in live]


def _update(basis, sugar, live, pairs, heap, entry, s_h, key):
    """Gebauer-Moller update: append entry h, of sugar s_h, to the basis
    and queue only the S-pairs the chain and product criteria cannot
    discard, each under its sugar.

    - A new pair (g, h) goes when another new pair's lcm divides its lcm
      (a later one's, or a kept one's, so one of equal lcms survives);
      coprime new pairs serve as such witnesses, then go themselves.
    - A queued pair (i, j) goes when LM(h) divides its lcm and that lcm
      differs from lcm(i, h) and from lcm(j, h).
    - Live entries whose lead LM(h) divides retire: they stay reducers
      but take no new pairs.
    """
    lm_h = entry[0]
    t = len(basis)
    basis.append(entry)
    sugar.append(s_h)
    new = [(i, mono_lcm(basis[i][0], lm_h),
            not any(map(min, basis[i][0], lm_h))) for i in live]
    kept = []
    for n, (i, lcm, coprime) in enumerate(new):
        if coprime or not any(all(map(le, other[1], lcm)) for other in
                              chain(islice(new, n + 1, None), kept)):
            kept.append((i, lcm, coprime))

    for (i, j), lcm in list(pairs.items()):
        if all(map(le, lm_h, lcm)) \
                and lcm != mono_lcm(basis[i][0], lm_h) \
                and lcm != mono_lcm(basis[j][0], lm_h):
            del pairs[i, j]

    for i, lcm, coprime in kept:
        if not coprime:
            pairs[i, t] = lcm
            s = max(sugar[i] - sum(basis[i][0]), s_h - sum(lm_h))
            heapq.heappush(heap, (s + sum(lcm), key(lcm), i, t))
    live[:] = [i for i in live if not all(map(le, lm_h, basis[i][0]))]
    live.append(t)


def _reduce_basis(entries, order, ring):
    """Minimalize then interreduce basis entries; returns (leads,
    polynomials), both ascending by lead, the polynomials monic."""
    key = order.key
    kept = []
    for lm, terms in sorted(entries, key=lambda e: key(e[0])):
        # sorted ascending: only an earlier lead can divide this one
        if not any(mono_divides(k[0], lm) for k in kept):
            kept.append((lm, terms))
    field = ring.field
    leads = [lm for lm, _ in kept]
    final = []
    for idx, (lm, terms) in enumerate(kept):
        # Every term the reduction meets is at most lm, and a later lead
        # is larger than lm: it cannot divide such a term (a divisor is
        # never larger than its multiple), so the earlier leads alone
        # give the same remainder.
        reduced = _reduce_full(dict(terms), kept[:idx], order, field)
        final.append(Polynomial(ring, field.publish(lm, reduced),
                                _clean=True))
    return leads, final


class Ideal:
    """Finitely generated ideal in a PolynomialRing.

    Equality and containment are extensional (Groebner-backed), so two
    ideals compare equal exactly when they contain the same elements.
    Only the grevlex basis, which every query reads, is cached; a basis
    in another order is computed on each call.
    """

    __slots__ = ("ring", "generators", "_grevlex")

    def __init__(self, ring, generators=()):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = parse_polynomial(g, ring)
            _same_ring(ring, g)
            if g.terms:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._grevlex = None

    def groebner(self, order=GREVLEX):
        if order is GREVLEX and self._grevlex is not None:
            return self._grevlex
        if not self.generators:
            basis = GroebnerBasis(self.ring, order, (), ())
        else:
            basis = buchberger(list(self.generators), order)
        if order is GREVLEX:
            self._grevlex = basis
        return basis

    def canonical_generators(self):
        """Reduced grevlex basis, sorted by leading exponent tuple,
        lexicographically descending.  The printed form of the ideal."""
        return self.groebner(GREVLEX).by_lead_descending()

    @property
    def is_zero(self):
        """Exact without a basis: zero generators are dropped on entry."""
        return not self.generators

    @property
    def is_unit(self):
        return self.groebner(GREVLEX).is_unit

    def contains(self, f):
        return self.groebner(GREVLEX).contains(f)

    @property
    def is_monomial(self):
        return self.groebner(GREVLEX).is_monomial

    def monomial_generators(self):
        """Minimal generating exponent tuples, ascending in grevlex (the
        form of the monomial kernel below); only for monomial ideals."""
        gb = self.groebner(GREVLEX)
        if not gb.is_monomial:
            raise ValueError("not a monomial ideal")
        return gb.leads

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        a, b = self.groebner(GREVLEX), other.groebner(GREVLEX)
        return a.leads == b.leads and a.elements == b.elements

    __hash__ = None

    def __le__(self, other):
        """self is a subset of other.  Into a monomial ideal by
        divisibility: a polynomial lies in it when every term does."""
        _same_ring(self.ring, other)
        if other.is_monomial:
            return _monomial_le([m for g in self.generators for m in g.terms],
                                other.monomial_generators())
        gb = other.groebner(GREVLEX)
        return all(gb.contains(g) for g in self.generators)

    def __ge__(self, other):
        return other.__le__(self)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.canonical_generators())
        return f"Ideal({gens})" if gens else "Ideal(0)"


def _published(ring, gens, leads):
    """Ideal generated by gens, nonzero polynomials that already form its
    reduced monic grevlex basis ascending, with these leads: both are
    stored as given, with nothing scanned, found or sorted."""
    out = Ideal.__new__(Ideal)
    out.ring, out.generators = ring, tuple(gens)
    out._grevlex = GroebnerBasis(ring, GREVLEX, out.generators, leads)
    return out


def _monomial_ideal(ring, exps):
    """Ideal published from a result exps of the monomial kernel below:
    with coefficient one they are its reduced grevlex basis, in order."""
    return _published(ring, [ring.monomial(m) for m in exps], exps)


def ideal_sum(I, *rest):
    _same_ring(I.ring, *rest)
    gens = list(I.generators)
    for J in rest:
        gens.extend(J.generators)
    return Ideal(I.ring, gens)


def ideal_product(I, J):
    """I * J; monomial generators multiply as exponent tuples."""
    _same_ring(I.ring, J)
    if all(len(g.terms) == 1 for g in I.generators + J.generators):
        return _monomial_ideal(I.ring, _monomial_product(
            *([next(iter(g.terms)) for g in K.generators] for K in (I, J))))
    gens = [f * g for f in I.generators for g in J.generators]
    return Ideal(I.ring, gens)


def ideal_power(I, n):
    if n < 0:
        raise ValueError("negative ideal power")
    out = Ideal(I.ring, [I.ring.one()])
    for _ in range(n):
        out = ideal_product(out, I)
    return out


def _padded(terms, tail):
    """terms with the auxiliary exponents tail appended to each monomial."""
    return {m + tail: c for m, c in terms.items()}


def _eliminated(ring, gens):
    """The ideal generated by gens, nonzero term dicts over ring's field
    whose monomials extend ring's by trailing auxiliary exponents, met
    with ring and published there with its basis."""
    return _slice(ring, gens, range(ring.nvars, len(next(iter(gens[0])))))


def _slice(ring, seed, indices):
    """The ideal the term dicts seed generate, met with the monomials free
    of the positions indices: the entries of its elimination basis whose
    leads avoid them, cut to ring's variables and published in ring."""
    n = ring.nvars
    order = TermOrder.elimination(indices)
    leads, elements = _reduce_basis(
        [(lm[:n], {m[:n]: c for m, c in terms.items()})
         for lm, terms in _buchberger(seed, order, ring.field)
         if not any(lm[i] for i in indices)], GREVLEX, ring)
    return _published(ring, elements, leads)


def eliminate(ideal, variables):
    """Generators of ideal ∩ k[remaining variables], as an ideal of the
    same ring (output polynomials avoid the eliminated variables),
    published with its grevlex basis."""
    ring = ideal.ring
    indices = frozenset(
        ring.variable_index(v) if isinstance(v, str) else int(v)
        for v in variables)
    if not indices:
        return ideal
    return _slice(ring, [g.terms for g in ideal.generators], indices)


def intersect(I, J):
    """I ∩ J.  Monomial pairs use pairwise lcms; the general route scales
    by an auxiliary variable t and eliminates it from t*I + (1-t)*J."""
    _same_ring(I.ring, J)
    ring = I.ring
    if I.is_zero or J.is_zero:
        return Ideal(ring)
    if I.is_monomial and J.is_monomial:
        return intersect_all([I, J])
    gens = [_padded(f.terms, (1,)) for f in I.groebner(GREVLEX)]
    gens += [{**_padded(g.terms, (0,)), **_padded((-g).terms, (1,))}
             for g in J.groebner(GREVLEX)]
    return _eliminated(ring, gens)


def intersect_all(ideals, ring=None):
    """Intersection of a family; the empty family gives the unit ideal.
    A family of two or more monomial ideals folds the meet of their
    exponent tuples and builds one ideal at the end."""
    ideals = list(ideals)
    if ring is None:
        if not ideals:
            raise ValueError("empty intersection needs an explicit ring")
        ring = ideals[0].ring
    _same_ring(ring, *ideals)
    if not ideals:
        return Ideal(ring, [ring.one()])
    if len(ideals) > 1 and all(J.is_monomial for J in ideals):
        return _monomial_ideal(ring, functools.reduce(
            _monomial_meet, [J.monomial_generators() for J in ideals]))
    out = ideals[0]
    for J in ideals[1:]:
        out = intersect(out, J)
    return out


def exact_quotient(f, g):
    """f / g for f in (g); raises ArithmeticError when not divisible."""
    _same_ring(f.ring, g)
    lt = g.leading_term()
    if lt is None:
        raise ArithmeticError("division by zero polynomial")
    lm_g, lc_g = lt
    p = f.ring.field.characteristic
    inv = f.ring.field.inv(lc_g)
    monic = _scale_terms(g.terms, inv, p)
    work = dict(f.terms)
    quot = {}       # f / monic g
    dkey = GREVLEX.desc_key
    while work:
        m = min(work, key=dkey)
        shift = mono_div(m, lm_g)
        if shift is None:
            raise ArithmeticError("not an exact multiple")
        q = quot[shift] = work[m]
        _add_terms(work, {mono_mul(gm, shift): q * gc
                          for gm, gc in monic.items()}, p, sub)
    return Polynomial(f.ring, _scale_terms(quot, inv, p), _clean=True)


def colon(I, J):
    """Ideal quotient I : J; J may be a polynomial or an ideal, but not
    zero."""
    _same_ring(I.ring, J)
    if isinstance(J, Polynomial):
        if J.is_zero:
            raise ValueError("colon by zero")
        return _colon_poly(I, J)
    gens = [g for g in J.generators if not g.is_zero]
    if not gens:
        raise ValueError("colon by the zero ideal")
    return intersect_all([_colon_poly(I, g) for g in gens], I.ring)


def _colon_poly(I, g):
    ring = I.ring
    if g.is_constant:
        return I
    if I.is_zero:
        return Ideal(ring)
    if I.is_monomial and g.is_monomial:
        return _monomial_ideal(ring, _monomial_colon(
            I.monomial_generators(), next(iter(g.terms))))
    meet = intersect(I, Ideal(ring, [g]))
    if g.is_monomial:
        # Every element of I ∩ (x^a) is a multiple of x^a, and dividing a
        # reduced monic basis by x^a keeps it reduced, monic and ascending.
        a = next(iter(g.terms))
        gb = meet.groebner(GREVLEX)
        quotients = [Polynomial(ring, {tuple(map(sub, m, a)): c
                                       for m, c in h.terms.items()},
                                _clean=True) for h in gb]
        return _published(ring, quotients,
                          [tuple(map(sub, lm, a)) for lm in gb.leads])
    return Ideal(ring, [exact_quotient(h, g) for h in meet.generators])


# saturate refuses exponents above this many multiplications by f.
MAX_SATURATION_EXPONENT = 1000


def _rabinowitsch(polys, f):
    """The polys and 1 - z*f as term dicts, z an auxiliary exponent after
    the variables of f's ring."""
    return [_padded(g.terms, (0,)) for g in polys] + [
        {(0,) * (f.ring.nvars + 1): 1, **_padded((-f).terms, (1,))}]


def _saturation(I, f):
    """I : f^infinity, from one elimination with the inverted-variable
    relation 1 - z*f."""
    _same_ring(I.ring, f)
    if f.is_zero:
        raise ValueError("saturation by zero")
    if f.is_constant:
        return I
    return _eliminated(I.ring, _rabinowitsch(I.groebner(GREVLEX), f))


def saturate(I, f):
    """(I : f^infinity, n) with n minimal such that I : f^n stabilizes.

    I : f^n is the stable ideal exactly when f^n * g lies in I for every
    generator g of the stable ideal, so the remainders of the g modulo I
    are multiplied by f and reduced again until all vanish.  Exponents
    above MAX_SATURATION_EXPONENT raise ResourceLimitError.
    """
    stable = _saturation(I, f)
    gb = I.groebner(GREVLEX)
    rest = [r for r in map(gb.normal_form, stable.generators)
            if not r.is_zero]
    n = 0
    while rest:
        if n == MAX_SATURATION_EXPONENT:
            raise ResourceLimitError(
                f"saturation exponent exceeds the budget of "
                f"{MAX_SATURATION_EXPONENT}")
        rest = [r for r in (gb.normal_form(f * r) for r in rest)
                if not r.is_zero]
        n += 1
    return stable, n


def saturate_ideal(I, J):
    """I : J^infinity as the meet of the single-element saturations."""
    _same_ring(I.ring, J)
    gens = [g for g in J.generators if not g.is_zero]
    if not gens:
        return Ideal(I.ring, [I.ring.one()])
    return intersect_all([_saturation(I, g) for g in gens], I.ring)


def radical_membership(f, I):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - z*f), that is,
    iff a live entry of its Groebner basis has a constant lead."""
    _same_ring(I.ring, f)
    if f.is_zero:
        return True
    return any(not any(lm) for lm, _ in _buchberger(
        _rabinowitsch(I.generators, f), GREVLEX, f.ring.field))


# ---------------------------------------------------------------------------
# Monomial ideals as exponent tuples (Miller and Sturmfels 2005, ch. 1).
# Each function takes and returns minimal generators ascending in grevlex,
# the leads Ideal.monomial_generators gives, so equal ideals have equal
# tuples.  A sum is _monomial_min_gens of the concatenation and a power
# repeated products.

def _monomial_min_gens(monomials):
    """Minimal generators of the ideal the exponent tuples generate.
    Distinct monomials of one total degree never divide each other, so a
    candidate is tested only against the kept ones of lower degree, and
    an input generated in one degree takes one sort."""
    kept = []
    lower = 0       # kept[:lower] have lower total degree than m
    degree = None
    # descending (-degree, reversed exponents) is ascending grevlex
    for d, _, m in sorted([(-sum(m), m[::-1], m) for m in set(monomials)],
                          reverse=True):
        if d != degree:
            degree, lower = d, len(kept)
        for i in range(lower):
            if all(map(le, kept[i], m)):
                break
        else:
            kept.append(m)
    return tuple(kept)


def _monomial_meet(a, b):
    """Meet: the pairwise lcms."""
    return _monomial_min_gens([mono_lcm(x, y) for x in a for y in b])


def _monomial_product(a, b):
    """Product: the pairwise products."""
    return _monomial_min_gens([mono_mul(x, y) for x in a for y in b])


def _monomial_colon(a, m):
    """Colon by the monomial m: each generator over its gcd with m."""
    return _monomial_min_gens([tuple(max(e - f, 0) for e, f in zip(x, m))
                               for x in a])


def _monomial_radical(a):
    """Radical: the squarefree supports."""
    return _monomial_min_gens([tuple(1 if e else 0 for e in x) for x in a])


def _monomial_le(a, b):
    """Containment of the ideal of a in that of b, by divisibility; a
    need not be minimal."""
    return all(any(mono_divides(k, m) for k in b) for m in a)
