"""Buchberger-based ideal arithmetic: bases, membership, intersection,
quotients, saturation, elimination.

Buchberger's algorithm here uses the Gebauer-Moller pair update (Gebauer
and Moller 1988): each new basis element prunes its own new S-pairs and
the queued ones by the chain and product criteria before anything is
keyed, and retires the elements whose leads it divides.  Division is
heap-based (Monagan and Pearce 2007): each monomial's order key is
computed once, when it first enters the working polynomial.

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
an Ideal (_monomial_ideal) only for a result they return.  eliminate
publishes the slice of its reduced elimination basis free of the
eliminated variables, with the elimination leads: the block order is
grevlex there and the whole basis is reduced, so the slice is the
reduced grevlex basis of the elimination ideal, ascending, with the same
leads; _eliminated carries it to the small ring for intersect, saturation
and star, whose auxiliaries _extension appends, cutting the leads to the
small ring's variables.
"""

from __future__ import annotations

import functools
import heapq
from operator import add, itemgetter, le, sub

from .poly import (GREVLEX, Polynomial, ResourceLimitError, TermOrder,
                   _add_terms, _scale_terms, fresh_names, mono_div,
                   mono_divides, mono_lcm, mono_mul)


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
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
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
    """Fully reduce a term dict (consumed) against monic reducers; returns
    the remainder dict, its terms inserted in descending order.  First
    reducer in list order whose lead divides wins.

    A heap of (desc_key, monomial) beside work yields the terms largest
    first; a cancelled term stays in work with coefficient zero, so each
    monomial is keyed and pushed once and popped zeros are skipped.
    """
    p = field.characteristic
    dkey = order.desc_key
    heap = [(dkey(m), m) for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        m = pop(heap)[1]
        c = work[m]
        if not c:
            continue
        for lm, gterms in reducers:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        for gm, gc in gterms.items():
            if gm == lm:
                continue
            mm = tuple(map(add, gm, shift))
            old = work.get(mm)
            if old is None:
                old = 0
                push(heap, (dkey(mm), mm))
            s = old - c * gc
            work[mm] = s % p if p else s
    return remainder


def _spoly_terms(lcm, lm_f, f_terms, lm_g, g_terms, field):
    """S-polynomial term dict for monic f, g whose leads have this lcm."""
    sf = tuple(map(sub, lcm, lm_f))
    sg = tuple(map(sub, lcm, lm_g))
    return _add_terms({mono_mul(m, sf): c for m, c in f_terms.items()},
                      {mono_mul(m, sg): c for m, c in g_terms.items()},
                      field.characteristic, sub)


def buchberger(generators, order):
    """Reduced monic Groebner basis of the generated ideal.

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
    ring = generators[0].ring
    field = ring.field
    seed = [g for g in generators if not g.is_zero]
    if not seed:
        return GroebnerBasis(ring, order, (), ())

    if all(g.is_monomial for g in seed):
        gens = sorted(_monomial_min_gens([next(iter(g.terms)) for g in seed]),
                      key=order.key)
        return GroebnerBasis(ring, order, [ring.monomial(m) for m in gens],
                             gens)

    key = order.key

    basis = []          # (lm, monic terms); retired entries still reduce
    sugar = []          # the sugar of each basis entry
    live = []           # indices of the entries that take new pairs
    pairs = {}          # (i, j) -> lcm of every queued pair
    heap = []
    entries = [(_monic(g.leading_monomial(order), g.terms, field),
                g.total_degree()) for g in seed]
    for entry, s in sorted(entries, key=lambda e: key(e[0][0])):
        _update(basis, sugar, live, pairs, heap, entry, s, key)

    while heap:
        s, _, i, j = heapq.heappop(heap)
        lcm = pairs.pop((i, j), None)
        if lcm is None:
            continue
        spoly = _spoly_terms(lcm, *basis[i], *basis[j], field)
        rem = _reduce_full(spoly, basis, order, field)
        if rem:     # the remainder's first term is its lead
            _update(basis, sugar, live, pairs, heap,
                    _monic(next(iter(rem)), rem, field), s, key)

    leads, elements = _reduce_basis([basis[i] for i in live], order, ring)
    return GroebnerBasis(ring, order, elements, leads)


def _monic(lm, terms, field):
    """(lm, terms) scaled so the coefficient at lm becomes one."""
    c = terms[lm]
    if c == field.one:
        return (lm, terms)
    return (lm, _scale_terms(terms, field.inv(c), field.characteristic))


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
        if coprime or not any(all(map(le, other[1], lcm))
                              for other in new[n + 1:] + kept):
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
    """Minimalize then interreduce; returns (leads, polynomials), both
    ascending by lead."""
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
        final.append(Polynomial(ring, reduced, _clean=True))
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
                from .poly import parse_polynomial
                g = parse_polynomial(g, ring)
            if g.ring != ring:
                raise ValueError("generator from a different ring")
            if not g.is_zero:
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
        return len(self.groebner(GREVLEX)) == 0

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
        if self.ring != other.ring:
            raise ValueError("ideals in different rings")
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
    gens = list(I.generators)
    for J in rest:
        if J.ring != I.ring:
            raise ValueError("ideals in different rings")
        gens.extend(J.generators)
    return Ideal(I.ring, gens)


def ideal_product(I, J):
    """I * J; monomial generators multiply as exponent tuples."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
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


def _extension(ring, count):
    """ring with count auxiliary variables appended, and the map lifting a
    polynomial of ring into it."""
    big = ring.extend(fresh_names("t", count, ring.variables))
    pad = (0,) * count
    return big, lambda f: Polynomial(
        big, {m + pad: c for m, c in f.terms.items()}, _clean=True)


def _eliminated(big, gens, ring):
    """The ideal gens generate in big, an _extension of ring, met with
    ring: big's trailing variables eliminated, published in ring (the
    variables matched by name) with its basis."""
    n = ring.nvars
    gb = eliminate(Ideal(big, gens), range(n, big.nvars)).groebner(GREVLEX)
    return _published(ring, [f.map_to(ring) for f in gb.elements],
                      [lm[:n] for lm in gb.leads])


def eliminate(ideal, variables):
    """Generators of ideal ∩ k[remaining variables], as an ideal of the
    same ring (output polynomials avoid the eliminated variables),
    published with its grevlex basis."""
    ring = ideal.ring
    indices = frozenset(
        ring.variable_index(v) if isinstance(v, str) else int(v)
        for v in variables)
    if not indices:
        return Ideal(ring, ideal.generators)
    order = TermOrder.elimination(indices)
    gb = ideal.groebner(order)
    kept = [(lm, g) for lm, g in zip(gb.leads, gb.elements)
            if not any(m[i] for m in g.terms for i in indices)]
    return _published(ring, [g for _, g in kept], [lm for lm, _ in kept])


def intersect(I, J):
    """I ∩ J.  Monomial pairs use pairwise lcms; the general route scales
    by an auxiliary variable t and eliminates it from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    ring = I.ring
    if I.is_zero or J.is_zero:
        return Ideal(ring)
    if I.is_monomial and J.is_monomial:
        return intersect_all([I, J])
    big, lift = _extension(ring, 1)
    t = big.gen(ring.nvars)
    one = big.one()
    gens = [t * lift(f) for f in I.groebner(GREVLEX)]
    gens += [(one - t) * lift(g) for g in J.groebner(GREVLEX)]
    return _eliminated(big, gens, ring)


def intersect_all(ideals, ring=None):
    """Intersection of a family; the empty family gives the unit ideal.
    A family of two or more monomial ideals folds the meet of their
    exponent tuples and builds one ideal at the end."""
    ideals = list(ideals)
    if not ideals:
        if ring is None:
            raise ValueError("empty intersection needs an explicit ring")
        return Ideal(ring, [ring.one()])
    if len(ideals) > 1 and all(J.is_monomial for J in ideals):
        if any(J.ring != ideals[0].ring for J in ideals):
            raise ValueError("ideals in different rings")
        return _monomial_ideal(ideals[0].ring, functools.reduce(
            _monomial_meet, [J.monomial_generators() for J in ideals]))
    out = ideals[0]
    for J in ideals[1:]:
        out = intersect(out, J)
    return out


def exact_quotient(f, g, order=GREVLEX):
    """f / g for f in (g); raises ArithmeticError when not divisible."""
    lt = g.leading_term(order)
    if lt is None:
        raise ArithmeticError("division by zero polynomial")
    lm_g, lc_g = lt
    p = f.ring.field.characteristic
    inv = f.ring.field.inv(lc_g)
    monic = _scale_terms(g.terms, inv, p)
    work = dict(f.terms)
    quot = {}       # f / monic g
    dkey = order.desc_key
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
        return _monomial_ideal(ring, _monomial_colon(
            I.monomial_generators(), next(iter(g.terms))))
    meet = intersect(I, Ideal(ring, [g]))
    return Ideal(ring, [exact_quotient(h, g) for h in meet.generators])


# saturate refuses exponents above this many multiplications by f.
MAX_SATURATION_EXPONENT = 1000


def _rabinowitsch(polys, f):
    """The polys and 1 - z*f, lifted to f's ring extended by z."""
    big, lift = _extension(f.ring, 1)
    return big, [*map(lift, polys),
                 big.one() - big.gen(f.ring.nvars) * lift(f)]


def _saturation(I, f):
    """I : f^infinity, from one elimination with the inverted-variable
    relation 1 - z*f."""
    ring = I.ring
    if f.is_zero:
        raise ValueError("saturation by zero")
    if f.is_constant:
        return Ideal(ring, I.generators)
    return _eliminated(*_rabinowitsch(I.groebner(GREVLEX), f), ring)


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
    gens = [g for g in J.generators if not g.is_zero]
    if not gens:
        return Ideal(I.ring, [I.ring.one()])
    return intersect_all([_saturation(I, g) for g in gens], I.ring)


def radical_membership(f, I):
    """Rabinowitsch test: f in sqrt(I) iff 1 in I + (1 - z*f)."""
    if f.is_zero:
        return True
    big, gens = _rabinowitsch(I.generators, f)
    return Ideal(big, gens).is_unit


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
