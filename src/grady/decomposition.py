"""Classical primary decomposition for the supported ideal classes:
monomial ideals (any number of variables) and principal univariate ideals.

Anything outside those classes raises UnsupportedClassError instead of
guessing; callers may hand in their own decompositions as certificates,
which downstream code then labels as assumed rather than verified.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce

from .groebner import (GREVLEX, Ideal, _monomial_ideal, _monomial_le,
                       _monomial_meet, _monomial_min_gens, _monomial_radical,
                       _published, intersect, intersect_all)
from .poly import Polynomial, ResourceLimitError, _scale_terms


class UnsupportedClassError(Exception):
    """Input falls outside the classes this kernel can decompose."""


VERIFIED = "verified"
ASSUMED = "assumed"


@dataclass(frozen=True)
class PrimaryComponent:
    """One component of a minimal decomposition and its radical: the
    classical radical, or the G-radical (the star of the radical) in a
    G-primary decomposition."""

    component: Ideal
    radical: Ideal
    status: str = VERIFIED


def check_minimal(target, pairs):
    """Assert that the (component, radical) pairs form a minimal primary
    decomposition of target: the components intersect to it, the radicals
    are pairwise distinct and no component is redundant.  Returns True or
    raises AssertionError."""
    comps = [q for q, _ in pairs]
    if intersect_all(comps, target.ring) != target:
        raise AssertionError("components do not intersect to the target")
    rads = [r for _, r in pairs]
    if any(rads[i] == rads[j] for j in range(len(rads)) for i in range(j)):
        raise AssertionError("radicals not pairwise distinct")
    # the drop-one pass keeps all when none is redundant beside the rest
    if len(_irredundant(*_meet_view(comps, target))) < len(comps):
        raise AssertionError("a component is redundant")
    return True


def _meet_view(ideals, target):
    """(parts, target, meet) for _irredundant: exponent tuples under the
    monomial meet when all are monomial, else the ideals under intersect."""
    if target.is_monomial and all(J.is_monomial for J in ideals):
        return ([J.monomial_generators() for J in ideals],
                target.monomial_generators(), _monomial_meet)
    return list(ideals), target, intersect


def _irredundant(parts, target, meet):
    """Indices of the parts a greedy drop-one pass in list order keeps: a
    part goes when meet folded over the other kept parts gives target."""
    kept = list(range(len(parts)))
    for i in range(len(parts)):
        trial = [j for j in kept if j != i]
        if trial and reduce(meet, [parts[j] for j in trial]) == target:
            kept = trial
    return kept


@dataclass(frozen=True)
class Decomposition:
    target: Ideal
    components: tuple

    def intersection(self):
        return intersect_all([c.component for c in self.components],
                             self.target.ring)

    def radical_index(self, P):
        for i, c in enumerate(self.components):
            if c.radical == P:
                return i
        raise ValueError("not a radical of this decomposition")

    def check(self):
        return check_minimal(self.target, [(c.component, c.radical)
                                           for c in self.components])


# ---------------------------------------------------------------------------
# Monomial ideals.  Splitting, merging by radical and pruning run on the
# minimal exponent tuples with the kernel in groebner; an Ideal is built
# only for a published component, radical or prime.

def _support(m):
    return tuple(i for i, e in enumerate(m) if e)


def monomial_radical(I):
    """Squarefree parts of the minimal generators, minimalized."""
    return _monomial_ideal(I.ring, _monomial_radical(I.monomial_generators()))


def _irreducible_split(gens, split):
    """All irreducible monomial components reachable by recursive splitting
    of mixed generators; no redundancy pruning here.

    split picks the mixed generator and the variable pulled off it:
    "first" takes the lexicographically first generator and its lowest
    variable, "last" the lexicographically last generator and its highest
    variable.  Both are deterministic; they can reach genuinely different
    (equally valid) primary decompositions after the radical merge.
    """
    out = []
    stack = [_monomial_min_gens(gens)]
    visited = set()
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        mixed = [m for m in current if m.count(0) < len(m) - 1]
        if not mixed:
            out.append(current)
            continue
        m = min(mixed) if split == "first" else max(mixed)
        sup = _support(m)
        v = sup[0] if split == "first" else sup[-1]
        u_part = tuple(e if i == v else 0 for i, e in enumerate(m))
        v_part = tuple(0 if i == v else e for i, e in enumerate(m))
        rest = [g for g in current if g != m]
        stack.append(_monomial_min_gens(rest + [u_part]))
        stack.append(_monomial_min_gens(rest + [v_part]))
    return out


def monomial_primary_decomposition(I, split="first"):
    """Minimal primary decomposition via recursive splitting.

    Pipeline: split to irreducibles, then intersect the ones sharing a
    radical into one primary component, for the radicals in Ass(I) only.
    Redundant irreducibles are merged too, so the two split orders can
    surface distinct legal decompositions.

    Ass(I) is read off the leaves (Miller and Sturmfels 2005, ch. 5).  If
    J = (x_i^{a_i}) contains the meet of monomial ideals A and B, it
    contains A or B: for a in A and b in B, lcm(a, b) lies in J, so a or
    b reaches some a_i in x_i and lies in J.  So the leaves minimal under
    inclusion are I's unique irredundant irreducible decomposition, with
    supports Ass(I); and as the merged components have distinct radicals,
    the first uniqueness theorem makes every irredundant subfamily of
    them (so what a drop-one pass keeps, in any order) those on Ass(I).
    """
    if I.is_unit:
        raise ValueError("unit ideal has no primary decomposition")
    ring = I.ring
    leaves = _irreducible_split(I.monomial_generators(), split)
    groups = {}         # the zero ideal splits to one empty component
    ass = set()
    for q in leaves:
        sup = tuple(sorted({i for m in q for i in _support(m)}))
        groups.setdefault(sup, []).append(q)
        if not any(r != q and _monomial_le(r, q) for r in leaves):
            ass.add(sup)
    kept = [reduce(_monomial_meet, groups[sup])
            for sup in sorted(ass, key=lambda sup: (len(sup), sup))]
    return Decomposition(I, tuple(PrimaryComponent(
        _monomial_ideal(ring, q), _monomial_ideal(ring, _monomial_radical(q)),
        VERIFIED) for q in kept))


def monomial_dimension(I):
    """Krull dimension of R/I for a proper monomial ideal."""
    return I.ring.nvars - min(len(P.generators) for P in minimal_primes(I))


# ---------------------------------------------------------------------------
# Univariate principal ideals.  One list convention throughout: dense
# coefficient lists, constant term first, always trimmed, so the degree is
# len - 1 and zero is [].  Residues over F_p, primitive integers (content
# removed, lead positive) over Q.  Yun's loop is written once (_yun) and
# takes the field's gcd and exact division: monic Euclid over F_p, and
# primitive-PRS gcds with exact division in Z[x] over Q (Brown 1971, von
# zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).  Over F_p a
# p-th root step runs it again on what the loop leaves, and each
# squarefree part is split completely (_fp_split) by distinct-degree
# factoring and Cantor-Zassenhaus equal-degree splitting.  Over Q the
# rational roots p/q of each part are found by integer Horner evaluation
# and deflated by exact division; a nonlinear residue stays one assumed
# component.  Squarefree parts are unique up to a unit, so the monic
# parts match a field computation.  A list becomes a monic polynomial
# only in a published ideal (_principal): a monic univariate generator is
# its own reduced grevlex basis.
#
# The dense stages refuse with ResourceLimitError when their estimated
# cost, in coefficient operations, exceeds MAX_FACTOR_WORK: deg^2 for the
# squarefree gcds, checked on the sparse input before any dense list is
# built (a p-th root taken later only lowers the degree), and
# m^3 * bit length of p for the distinct- and equal-degree stages on a
# squarefree part of degree m.  Every division walks down its dividend
# once, one step per quotient term, so the deg^2 estimate bounds the real
# cost of the gcds.  The rational-root search over Q takes
# numerators from the divisors of a part's constant term and denominators
# from those of its lead, and refuses above MAX_FACTOR_CANDIDATES divisor
# candidates.
MAX_FACTOR_WORK = 2 * 10 ** 6
MAX_FACTOR_CANDIDATES = 10 ** 5


def _check_work(work, what):
    if work > MAX_FACTOR_WORK:
        raise ResourceLimitError(
            f"{what} would take about {work} coefficient operations, "
            f"over the budget of {MAX_FACTOR_WORK}")


def _coeffs(f):
    d = f.total_degree()
    out = [f.ring.field.zero] * (d + 1)
    for (e,), c in f.terms.items():
        out[e] = c
    return out


def _principal(ring, a, mult=1):
    """The ideal (a^mult) of the dense list a (integers over Q, residues
    over F_p), published with its monic generator, whose terms descend
    as in a reduced basis."""
    p = ring.field.characteristic
    g = [1]
    for _ in range(mult):
        g = _mul_uni(g, a, p)
    terms = _scale_terms({(i,): c for i, c in reversed(list(enumerate(g)))
                          if c}, ring.field.inv(g[-1]), p)
    return _published(ring, [Polynomial(ring, terms, _clean=True)],
                      [(len(g) - 1,)])


def _component(ring, base, mult, status=VERIFIED):
    return PrimaryComponent(_principal(ring, base, mult),
                            _principal(ring, base), status)


def _mul_uni(a, b, p):
    """a * b, reduced mod p when p is nonzero."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                prod[i + j] += c * d
    return [c % p for c in prod] if p else prod


def _yun(a, gcd, exquo):
    """([(squarefree part, multiplicity)], rest) of a by Yun's loop, with
    the field's gcd and exact division.  In characteristic p the loop
    leaves behind, in rest, the factors whose multiplicity p divides;
    otherwise rest is a unit."""
    c = gcd(a, [i * t for i, t in enumerate(a)][1:])
    w = exquo(a, c)
    out = []
    i = 1
    while len(w) > 1:
        y = gcd(w, c)
        z = exquo(w, y)
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = exquo(c, y)
        i += 1
    return out, c


def _squarefree(f):
    """[(squarefree part, multiplicity)] of the univariate polynomial f:
    monic residue lists over F_p, primitive integer lists over Q.  Over
    F_p, what Yun's loop leaves has zero derivative, so it is the p-th
    power of the polynomial with its coefficients at multiples of p
    (c^(1/p) = c in F_p), and the loop runs again on that root,
    multiplicities times p."""
    _check_work(f.total_degree() ** 2, "squarefree decomposition")
    p = f.ring.field.characteristic
    coeffs = _coeffs(f)
    if not p:
        den = math.lcm(*(c.denominator for c in coeffs))
        a = _primitive([c.numerator * (den // c.denominator) for c in coeffs])
        return _yun(a, _z_gcd, _z_exquo)[0]
    a = _fp_monic(coeffs, p)
    out = []
    scale = 1
    while len(a) > 1:
        parts, a = _yun(a, lambda u, v: _fp_gcd(u, v, p),
                        lambda u, v: _fp_divmod(u, v, p)[0])
        out += [(z, i * scale) for z, i in parts]
        a = a[::p]
        scale *= p
    return out


# Over F_p: residue lists.

def _fp_reduce(a, p):
    """The integer list a mod p, trimmed."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _fp_sub(a, b, p):
    return _fp_reduce([u - v for u, v in
                       itertools.zip_longest(a, b, fillvalue=0)], p)


def _fp_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_divmod(a, b, p):
    """(q, r) with a = q*b + r and len(r) < len(b) over F_p, for a
    nonzero b: each step pops the top term of the dividend."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a.pop() * inv % p
        if c:
            for i in range(db):
                a[k + i] -= c * b[i]
    return q, _fp_reduce(a, p)


def _fp_gcd(a, b, p):
    """Monic gcd of a and b over F_p, [] when both are zero; b may be any
    integer list."""
    b = _fp_reduce(b, p)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p) if a else a


def _fp_powmod(a, e, g, p):
    """a^e mod g over F_p, by square-and-multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _fp_divmod(_mul_uni(out, out, p), g, p)[1]
        if bit == "1":
            out = _fp_divmod(_mul_uni(out, a, p), g, p)[1]
    return out


def _distinct_degree(g, p):
    """[(product of the irreducible factors of degree d, d)] of a monic
    squarefree g over F_p: gcd(x^(p^d) - x, g), once the factors of lower
    degree are divided out."""
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) < len(g):
        d += 1
        h = _fp_powmod(h, p, g, p)
        u = _fp_gcd(_fp_sub(h, [0, 1], p), g, p)
        if len(u) > 1:
            out.append((u, d))
            g = _fp_divmod(g, u, p)[0]
            h = _fp_divmod(h, g, p)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """The monic irreducible factors of a monic squarefree g over F_p
    whose factors all have degree d (Cantor-Zassenhaus).  A random a
    splits g at gcd(a^((p^d-1)/2) - 1, g) for odd p and at the trace
    gcd(a + a^2 + ... + a^(2^(d-1)), g) for p = 2."""
    out = []
    todo = [g]
    while todo:
        g = todo.pop()
        n = len(g) - 1
        if n == d:
            out.append(g)
            continue
        a = _fp_reduce([rng.randrange(p) for _ in range(n)], p)
        if p == 2:
            t = s = a
            for _ in range(d - 1):
                s = _fp_divmod(_mul_uni(s, s, 2), g, 2)[1]
                t = _fp_sub(t, s, 2)
        else:
            t = _fp_sub(_fp_powmod(a, (p ** d - 1) // 2, g, p), [1], p)
        u = _fp_gcd(t, g, p)
        if 1 < len(u) < len(g):
            todo += [u, _fp_divmod(g, u, p)[0]]
        else:
            todo.append(g)
    return out


def _fp_split(s, p, rng):
    """The monic irreducible factors of the monic squarefree residue list
    s over F_p: the work check, then distinct-degree factoring, then
    equal-degree splitting with the random generator rng."""
    m = len(s) - 1
    _check_work(m ** 3 * p.bit_length(),
                f"factoring a squarefree part of degree {m} over F{p}")
    return [q for g, d in _distinct_degree(s, p)
            for q in _equal_degree(g, d, p, rng)]


def _fp_factor(f):
    """[(monic irreducible residue list, multiplicity)] of the univariate
    polynomial f over F_p: each squarefree part split with one generator
    seeded per call, so runs repeat exactly."""
    p = f.ring.field.characteristic
    rng = random.Random(0)
    return [(q, mult) for s, mult in _squarefree(f)
            for q in _fp_split(s, p, rng)]


# Over Q: primitive integer lists, trimmed, lead positive.

def _primitive(a):
    """a divided by its content, signed so the lead is positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _z_prem(a, b):
    """Primitive part of a pseudo-remainder of a by b over Z: a mod b up
    to a nonzero rational factor; [] when b divides a."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) > db:
        c = a.pop()
        g = math.gcd(c, lb)
        u, v = lb // g, c // g
        if u != 1:
            a = [u * t for t in a]
        s = len(a) - db
        for i in range(db):
            a[s + i] -= v * b[i]
        while a and not a[-1]:
            a.pop()
    return _primitive(a) if a else a


def _z_gcd(a, b):
    """gcd of a and b over Z, primitive with a positive lead, by the
    primitive remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _z_prem(a, b)
    return _primitive(a)


def _z_exquo(a, b):
    """a / b over Z, for a b that divides a."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + db] // lb
        if c:
            for i in range(db):
                a[k + i] -= c * b[i]
    return q


def _divisors(n):
    n = abs(n)
    if math.isqrt(n) > MAX_FACTOR_CANDIDATES:
        raise ResourceLimitError(
            f"rational root search would trial-divide {math.isqrt(n)} "
            f"candidates, over the budget of {MAX_FACTOR_CANDIDATES}")
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _z_value(a, p, q):
    """q^deg(a) * a(p/q), by Horner's rule in integers."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _z_rational_roots(a):
    """([(p, q)] with q > 0 for the rational roots p/q of the squarefree
    primitive a, and a divided by their linear factors q*x - p."""
    roots = []
    if a[0] == 0:       # squarefree: at most one factor x
        roots.append((0, 1))
        a = a[1:]
    if len(a) > 2:
        nums, dens = _divisors(a[0]), _divisors(a[-1])
        for n, q in itertools.product(nums, dens):
            if math.gcd(n, q) > 1:
                continue
            for p in (n, -n):
                if (len(a) > 2 and a[0] % p == 0 and a[-1] % q == 0
                        and _z_value(a, p, q) == 0):
                    roots.append((p, q))
                    a = _z_exquo(a, [-p, q])
    if len(a) == 2:     # read the last root off, no search
        roots.append((-a[0], a[1]))
        a = [1]
    return roots, a


def univariate_primary_decomposition(I):
    """(f) = intersection of (p_i^{e_i}) over the irreducible factors.

    Prime fields factor completely, so every component is verified.
    Over Q a nonlinear squarefree residue survives as one assumed
    component.
    """
    ring = I.ring
    if ring.nvars != 1:
        raise ValueError("univariate decomposition needs a one-variable ring")
    if I.is_unit:
        raise ValueError("unit ideal has no primary decomposition")
    gb = list(I.groebner(GREVLEX))
    if not gb:
        zero = Ideal(ring)
        return Decomposition(I, (PrimaryComponent(zero, zero, VERIFIED),))
    f = gb[0]
    components = []
    if ring.field.characteristic:
        for q, mult in _fp_factor(f):
            components.append(_component(ring, q, mult))
    else:
        for z, mult in _squarefree(f):
            roots, rest = _z_rational_roots(z)
            for p, q in roots:
                components.append(_component(ring, (-p, q), mult))
            if len(rest) > 1:
                components.append(_component(ring, rest, mult, ASSUMED))
    components.sort(key=lambda c: (c.radical.generators[0].total_degree(),
                                   str(c.radical.generators[0])))
    return Decomposition(I, tuple(components))


# ---------------------------------------------------------------------------
# Dispatchers over the supported classes.

def classical_decomposition(I):
    if I.is_unit:
        raise ValueError("unit ideal has no primary decomposition")
    if I.is_monomial:
        return monomial_primary_decomposition(I)
    if I.ring.nvars == 1:
        return univariate_primary_decomposition(I)
    raise UnsupportedClassError(
        "primary decomposition only for monomial or univariate ideals")


def _decompose_for_primes(I, what):
    """classical_decomposition(I) for a prime-list query about I, with
    that query's errors: "unit ideal", "<what> outside supported classes",
    or an assumed component (_certified)."""
    if I.is_unit:
        raise ValueError("unit ideal")
    try:
        dec = classical_decomposition(I)
    except UnsupportedClassError:
        raise UnsupportedClassError(
            f"{what} outside supported classes") from None
    return _certified(dec, f"{what} are not certified")


def _certified(dec, reason):
    """dec, unless it has a component only assumed primary: then an answer
    with no status to carry that is refused, for the given reason."""
    names = " and ".join("(" + ", ".join(c.component.groebner().key) + ")"
                         for c in dec.components if c.status == ASSUMED)
    if names:
        raise UnsupportedClassError(f"{reason}; the assumed component "
                                    f"{names} may not be primary")
    return dec


def _primes_of(dec):
    """Ass of the target of a minimal primary decomposition: its
    radicals.  Monomial primes are listed by variable support."""
    primes = [c.radical for c in dec.components]
    if dec.target.is_monomial:
        primes.sort(key=lambda P: sorted(
            i for m in P.monomial_generators() for i in _support(m)))
    return primes


def _inclusion_minimal(primes):
    return [p for p in primes
            if not any(q <= p and not p <= q for q in primes)]


def associated_primes(I):
    return _primes_of(_decompose_for_primes(I, "associated primes"))


def minimal_primes(I):
    return _inclusion_minimal(
        _primes_of(_decompose_for_primes(I, "minimal primes")))


def radical_ideal(I):
    """Exact radical within the supported classes."""
    if I.is_monomial:
        return monomial_radical(I)
    if I.ring.nvars == 1:
        ring = I.ring
        gb = list(I.groebner(GREVLEX))
        if not gb:
            return Ideal(ring)
        p = ring.field.characteristic
        product = [1]
        for s, _ in _squarefree(gb[0]):
            product = _mul_uni(product, s, p)
        return _principal(ring, product)
    raise UnsupportedClassError("radical outside supported classes")

