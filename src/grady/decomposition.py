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
from fractions import Fraction
from functools import reduce

from .groebner import (GREVLEX, Ideal, _monomial_ideal, _monomial_meet,
                       _monomial_min_gens, _monomial_radical, intersect,
                       intersect_all)
from .poly import Polynomial, ResourceLimitError


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

    Pipeline: split to irreducibles, intersect the ones sharing a radical
    into a single primary component, then prune redundant components.
    Redundant irreducibles are deliberately merged before pruning, so the
    two split orders can surface distinct legal decompositions.
    """
    if I.is_unit:
        raise ValueError("unit ideal has no primary decomposition")
    ring = I.ring
    gens = I.monomial_generators()
    groups = {}         # the zero ideal splits to one empty component
    for comp in _irreducible_split(gens, split):
        sup = tuple(sorted({i for m in comp for i in _support(m)}))
        groups.setdefault(sup, []).append(comp)

    merged = [reduce(_monomial_meet, groups[sup])
              for sup in sorted(groups, key=lambda sup: (len(sup), sup))]
    kept = [merged[i] for i in _irredundant(merged, gens, _monomial_meet)]
    return Decomposition(I, tuple(PrimaryComponent(
        _monomial_ideal(ring, q), _monomial_ideal(ring, _monomial_radical(q)),
        VERIFIED) for q in kept))


def monomial_dimension(I):
    """Krull dimension of R/I for a proper monomial ideal."""
    return I.ring.nvars - min(len(P.generators) for P in minimal_primes(I))


# ---------------------------------------------------------------------------
# Univariate principal ideals.  Dense coefficient lists, constant term
# first.  Both fields start from the squarefree decomposition (_squarefree).
# Over a prime field each squarefree part is then split completely by
# distinct-degree factoring and Cantor-Zassenhaus equal-degree splitting;
# over Q we pull out linear factors by rational roots and leave any
# nonlinear squarefree residue as an assumed component.
#
# The dense stages refuse with ResourceLimitError when their estimated
# cost, in coefficient operations, exceeds MAX_FACTOR_WORK: deg^2 for the
# squarefree gcds, checked on the sparse input before any dense list is
# built (a p-th root taken later only lowers the degree), and
# m^3 * bit length of p for the distinct- and equal-degree stages on a
# squarefree part of degree m.  The rational-root search over Q trial-
# divides the end coefficients and refuses above MAX_FACTOR_CANDIDATES
# divisor candidates.
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


def _from_coeffs(ring, coeffs):
    return Polynomial(ring, {(i,): c for i, c in enumerate(coeffs)})


def _deg(a):
    for i in range(len(a) - 1, -1, -1):
        if a[i] != 0:
            return i
    return -1


def _trim(a):
    return a[:_deg(a) + 1]


def _divmod_uni(a, b, field):
    p = field.characteristic
    a = list(a)
    db, lb = _deg(b), b[_deg(b)]
    inv = field.inv(lb)
    q = [field.zero] * max(len(a) - db, 1)
    while _deg(a) >= db:
        da = _deg(a)
        c = a[da] * inv
        if p:
            c %= p
        q[da - db] = c
        for i in range(db + 1):
            s = a[da - db + i] - c * b[i]
            if p:
                s %= p
            a[da - db + i] = s
    return _trim(q) or [field.zero], _trim(a) or [field.zero]


def _gcd_uni(a, b, field):
    a, b = _trim(list(a)), _trim(list(b))
    while _deg(b) >= 0:
        _, r = _divmod_uni(a, b, field)
        a, b = b, r
    if _deg(a) < 0:
        return a
    return _monic_uni(a, field)


def _derivative_uni(a, field):
    p = field.characteristic
    out = []
    for i in range(1, len(a)):
        c = a[i] * i
        if p:
            c %= p
        out.append(c)
    return _trim(out) or [field.zero]


def _monic_uni(a, field):
    p = field.characteristic
    inv = field.inv(a[_deg(a)])
    out = [c * inv for c in a]
    if p:
        out = [c % p for c in out]
    return out


def _mulmod_uni(a, b, g, field):
    """a * b mod g over F_p."""
    p = field.characteristic
    prod = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                prod[i + j] += c * d
    return _divmod_uni([c % p for c in prod], g, field)[1]


def _powmod_uni(a, e, g, field):
    """a^e mod g over F_p, by square-and-multiply."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mulmod_uni(out, out, g, field)
        if bit == "1":
            out = _mulmod_uni(out, a, g, field)
    return out


def _squarefree(f, field):
    """[(monic squarefree part, multiplicity)] of the univariate
    polynomial f, over Q or F_p, by Yun's loop.  In characteristic p the
    loop leaves behind the factors whose multiplicity p divides; their
    product has zero derivative, so it is the p-th power of the
    polynomial with its coefficients at multiples of p (c^(1/p) = c in
    F_p), and the loop runs again on that root, multiplicities times p."""
    _check_work(f.total_degree() ** 2, "squarefree decomposition")
    p = field.characteristic
    a = _monic_uni(_coeffs(f), field)
    out = []
    scale = 1
    while True:
        c = _gcd_uni(a, _derivative_uni(a, field), field)
        w, _ = _divmod_uni(a, c, field)
        i = 1
        while _deg(w) >= 1:
            y = _gcd_uni(w, c, field)
            z, _ = _divmod_uni(w, y, field)
            if _deg(z) >= 1:
                out.append((z, i * scale))
            w = y
            c, _ = _divmod_uni(c, y, field)
            i += 1
        if _deg(c) < 1:
            return out
        a = c[::p]
        scale *= p


def _distinct_degree(g, field):
    """[(product of the irreducible factors of degree d, d)] of a monic
    squarefree g over F_p: gcd(x^(p^d) - x, g), once the factors of lower
    degree are divided out."""
    p = field.characteristic
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= _deg(g):
        d += 1
        h = _powmod_uni(h, p, g, field)
        t = h + [0] * (2 - len(h))
        t[1] = (t[1] - 1) % p
        u = _gcd_uni(t, g, field)
        if _deg(u) >= 1:
            out.append((u, d))
            g, _ = _divmod_uni(g, u, field)
            h = _divmod_uni(h, g, field)[1]
    if _deg(g) >= 1:
        out.append((g, _deg(g)))
    return out


def _equal_degree(g, d, field, rng):
    """The monic irreducible factors of a monic squarefree g over F_p
    whose factors all have degree d (Cantor-Zassenhaus).  A random a
    splits g at gcd(a^((p^d-1)/2) - 1, g) for odd p and at the trace
    gcd(a + a^2 + ... + a^(2^(d-1)), g) for p = 2."""
    p = field.characteristic
    out = []
    todo = [g]
    while todo:
        g = todo.pop()
        n = _deg(g)
        if n == d:
            out.append(g)
            continue
        a = _trim([rng.randrange(p) for _ in range(n)]) or [0]
        if p == 2:
            t = s = a
            for _ in range(d - 1):
                s = _mulmod_uni(s, s, g, field)
                t = [(u + v) % 2
                     for u, v in itertools.zip_longest(t, s, fillvalue=0)]
        else:
            t = _powmod_uni(a, (p ** d - 1) // 2, g, field)
            t[0] = (t[0] - 1) % p
        u = _gcd_uni(t, g, field)
        if 0 < _deg(u) < n:
            todo += [u, _divmod_uni(g, u, field)[0]]
        else:
            todo.append(g)
    return out


def _fp_factor(f, field):
    """{monic irreducible (tuple of residues): multiplicity} of the
    univariate polynomial f over F_p: squarefree parts, then
    distinct-degree factoring, then equal-degree splitting with a
    generator seeded per call, so runs repeat exactly."""
    p = field.characteristic
    rng = random.Random(0)
    factors = {}
    for s, mult in _squarefree(f, field):
        m = _deg(s)
        _check_work(m ** 3 * p.bit_length(),
                    f"factoring a squarefree part of degree {m} over F{p}")
        for g, d in _distinct_degree(s, field):
            for q in _equal_degree(g, d, field, rng):
                factors[tuple(q)] = mult
    return factors


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


def _rational_roots(s_coeffs):
    """All rational roots of a squarefree polynomial with Fraction
    coefficients."""
    den = math.lcm(*(c.denominator for c in s_coeffs))
    ints = [int(c * den) for c in s_coeffs]
    roots = []
    while ints[0] == 0:
        roots.append(Fraction(0))
        ints = ints[1:]
        break  # squarefree: at most one factor of x
    if _deg(ints) < 1:
        return roots
    if _deg(ints) == 1:     # read the root off, no search
        return sorted(roots + [Fraction(-ints[0], ints[1])])
    a0, alead = ints[0], ints[_deg(ints)]
    for p_ in _divisors(a0):
        for q_ in _divisors(alead):
            for cand in (Fraction(p_, q_), Fraction(-p_, q_)):
                if cand in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(_trim(ints)):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(roots)


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
    field = ring.field
    components = []
    if field.characteristic:
        for tail, mult in sorted(_fp_factor(f, field).items()):
            base = _from_coeffs(ring, list(tail))
            components.append(PrimaryComponent(
                Ideal(ring, [base ** mult]), Ideal(ring, [base]), VERIFIED))
    else:
        for z, mult in _squarefree(f, field):
            remaining = list(z)
            for root in _rational_roots(z):
                lin = [-root, Fraction(1)]
                base = _from_coeffs(ring, lin)
                components.append(PrimaryComponent(
                    Ideal(ring, [base ** mult]), Ideal(ring, [base]),
                    VERIFIED))
                remaining, _ = _divmod_uni(remaining, lin, field)
            if _deg(remaining) >= 1:
                base = _from_coeffs(ring, remaining)
                components.append(PrimaryComponent(
                    Ideal(ring, [base ** mult]), Ideal(ring, [base]),
                    ASSUMED))
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
    that query's errors: "unit ideal", or "<what> outside supported
    classes"."""
    if I.is_unit:
        raise ValueError("unit ideal")
    try:
        return classical_decomposition(I)
    except UnsupportedClassError:
        raise UnsupportedClassError(
            f"{what} outside supported classes") from None


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
        parts = [_from_coeffs(ring, s)
                 for s, _ in _squarefree(gb[0], ring.field)]
        return Ideal(ring, [math.prod(parts, start=ring.one())])
    raise UnsupportedClassError("radical outside supported classes")

