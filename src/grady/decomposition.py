"""Classical primary decomposition for the supported ideal classes:
monomial ideals (any number of variables) and principal univariate ideals.

Anything outside those classes raises UnsupportedClassError instead of
guessing; callers may hand in their own decompositions as certificates,
which downstream code then labels as assumed rather than verified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .groebner import GREVLEX, Ideal, _monomial_min_gens, intersect_all
from .poly import Polynomial, ResourceLimitError


class UnsupportedClassError(Exception):
    """Input falls outside the classes this kernel can decompose."""


VERIFIED = "verified"
ASSUMED = "assumed"


@dataclass(frozen=True)
class PrimaryComponent:
    component: Ideal
    radical: Ideal
    status: str = VERIFIED

    @property
    def verified(self):
        return self.status == VERIFIED


def check_minimal(target, pairs):
    """Assert that the (component, radical) pairs form a minimal primary
    decomposition of target: the components intersect to it, the radicals
    are pairwise distinct and no component is redundant.  Returns True or
    raises AssertionError."""
    comps = [q for q, _ in pairs]
    if intersect_all(comps, target.ring) != target:
        raise AssertionError("components do not intersect to the target")
    rads = [r for _, r in pairs]
    for i in range(len(rads)):
        for j in range(i + 1, len(rads)):
            if rads[i] == rads[j]:
                raise AssertionError("radicals not pairwise distinct")
    for i in range(len(comps)):
        rest = comps[:i] + comps[i + 1:]
        if rest and intersect_all(rest, target.ring) == target:
            raise AssertionError("a component is redundant")
    return True


@dataclass(frozen=True)
class Decomposition:
    target: Ideal
    components: tuple

    def intersection(self):
        return intersect_all([c.component for c in self.components],
                             self.target.ring)

    def check(self):
        return check_minimal(self.target, [(c.component, c.radical)
                                           for c in self.components])


# ---------------------------------------------------------------------------
# Monomial ideals.  All computations below are combinatorics on the minimal
# generating exponent tuples.

def is_monomial_ideal(I):
    """Order-independent: the reduced basis is all single-term."""
    return I.is_monomial


def _support(m):
    return tuple(i for i, e in enumerate(m) if e)


def _variable_ideal(ring, indices):
    return Ideal(ring, [ring.gen(i) for i in sorted(indices)])


def monomial_radical(I):
    """Squarefree parts of the minimal generators, minimalized."""
    gens = I.monomial_generators()
    squarefree = [tuple(1 if e else 0 for e in m) for m in gens]
    ring = I.ring
    return Ideal(ring, [ring.monomial(m)
                        for m in sorted(_monomial_min_gens(squarefree))])


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
    seen = set()
    stack = [tuple(sorted(_monomial_min_gens(gens)))]
    visited = set()
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        mixed = [m for m in current if len(_support(m)) >= 2]
        if not mixed:
            if current not in seen:
                seen.add(current)
                out.append(list(current))
            continue
        m = mixed[0] if split == "first" else mixed[-1]
        sup = _support(m)
        v = sup[0] if split == "first" else sup[-1]
        u_part = tuple(e if i == v else 0 for i, e in enumerate(m))
        v_part = tuple(0 if i == v else e for i, e in enumerate(m))
        rest = [g for g in current if g != m]
        stack.append(tuple(sorted(_monomial_min_gens(rest + [u_part]))))
        stack.append(tuple(sorted(_monomial_min_gens(rest + [v_part]))))
    return sorted(out)


def _irredundant(ideals, target):
    """Greedy drop-one pass in list order; the survivors are irredundant."""
    kept = list(ideals)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if trial and intersect_all(trial, target.ring) == target:
            kept = trial
        else:
            i += 1
    return kept


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
    if not gens:
        zero = Ideal(ring)
        return Decomposition(I, (PrimaryComponent(zero, zero, VERIFIED),))

    groups = {}
    for comp in _irreducible_split(gens, split):
        sup = frozenset(i for m in comp for i in _support(m))
        groups.setdefault(tuple(sorted(sup)), []).append(comp)

    merged = []
    for sup in sorted(groups):
        members = [Ideal(ring, [ring.monomial(m) for m in comp])
                   for comp in groups[sup]]
        merged.append((sup, intersect_all(members, ring)))

    merged.sort(key=lambda t: (len(t[0]), t[0]))
    survivors = _irredundant([q for _, q in merged], I)
    components = []
    for sup, q in merged:
        if any(q is s for s in survivors):
            components.append(
                PrimaryComponent(q, _variable_ideal(ring, sup), VERIFIED))
    return Decomposition(I, tuple(components))


def monomial_dimension(I):
    """Krull dimension of R/I for a proper monomial ideal."""
    return I.ring.nvars - min(len(P.generators) for P in minimal_primes(I))


# ---------------------------------------------------------------------------
# Univariate principal ideals.  Dense coefficient lists, constant term
# first.  Over a prime field the factorization is exhaustive trial division
# by monic polynomials of ascending degree; over Q we take the squarefree
# decomposition exactly and pull out linear factors by rational roots,
# leaving any nonlinear squarefree residue as an assumed component.
# Both searches enumerate candidates (monic polynomials over F_p, trial
# divisors of the end coefficients over Q) and refuse with
# ResourceLimitError before enumerating more than this many.
MAX_FACTOR_CANDIDATES = 10 ** 5


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


def _fp_factor(f_coeffs, field):
    """{monic irreducible (tuple of residues): multiplicity} by trial
    division with candidates of ascending degree.  Smaller factors are
    removed first, so any successful division is by an irreducible."""
    p = field.characteristic
    f = _monic_uni(_trim(list(f_coeffs)), field)
    factors = {}
    d = 1
    candidates = 0
    while _deg(f) >= 1:
        if 2 * d > _deg(f):
            factors[tuple(f)] = factors.get(tuple(f), 0) + 1
            break
        candidates += p ** d
        if candidates > MAX_FACTOR_CANDIDATES:
            raise ResourceLimitError(
                f"factoring over F{p} would try {candidates} candidate "
                f"factors, over the budget of {MAX_FACTOR_CANDIDATES}")
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            while True:
                q, r = _divmod_uni(f, g, field)
                if _deg(r) >= 0:
                    break
                factors[tuple(g)] = factors.get(tuple(g), 0) + 1
                f = q
            if _deg(f) < d:
                break
        d += 1
    return factors


def _yun_squarefree(f_coeffs, field):
    """[(squarefree factor, multiplicity)] over a characteristic-0 field."""
    f = _monic_uni(_trim(list(f_coeffs)), field)
    df = _derivative_uni(f, field)
    g = _gcd_uni(f, df, field)
    w, _ = _divmod_uni(f, g, field)
    out = []
    i = 1
    while _deg(w) >= 1:
        y = _gcd_uni(w, g, field)
        z, _ = _divmod_uni(w, y, field)
        if _deg(z) >= 1:
            out.append((z, i))
        w = y
        g, _ = _divmod_uni(g, y, field)
        i += 1
    return out


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


def univariate_primary_decomposition(I, require_verified=False):
    """(f) = intersection of (p_i^{e_i}) over the irreducible factors.

    Prime fields factor exhaustively, so every component is verified.
    Over Q a nonlinear squarefree residue survives as one assumed
    component; with require_verified that raises UnsupportedClassError.
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
        for tail, mult in sorted(_fp_factor(_coeffs(f), field).items()):
            base = _from_coeffs(ring, list(tail))
            components.append(PrimaryComponent(
                Ideal(ring, [base ** mult]), Ideal(ring, [base]), VERIFIED))
    else:
        for z, mult in _yun_squarefree(_coeffs(f), field):
            remaining = list(z)
            for root in _rational_roots(z):
                lin = [-root, Fraction(1)]
                base = _from_coeffs(ring, lin)
                components.append(PrimaryComponent(
                    Ideal(ring, [base ** mult]), Ideal(ring, [base]),
                    VERIFIED))
                remaining, _ = _divmod_uni(remaining, lin, field)
            if _deg(remaining) >= 1:
                if require_verified:
                    raise UnsupportedClassError(
                        "nonlinear squarefree factor over Q cannot be "
                        "certified irreducible")
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
    if is_monomial_ideal(I):
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
    if is_monomial_ideal(I):
        return monomial_radical(I)
    if I.ring.nvars == 1:
        ring = I.ring
        field = ring.field
        gb = list(I.groebner(GREVLEX))
        if not gb:
            return Ideal(ring)
        f = gb[0]
        if field.characteristic:
            factors = [_from_coeffs(ring, list(tail))
                       for tail in sorted(_fp_factor(_coeffs(f), field))]
            return Ideal(ring, [math.prod(factors, start=ring.one())])
        df = _derivative_uni(_coeffs(f), field)
        g = _gcd_uni(_coeffs(f), df, field)
        sqfree, _ = _divmod_uni(_monic_uni(_coeffs(f), field), g, field)
        return Ideal(ring, [_from_coeffs(ring, sqfree)])
    raise UnsupportedClassError("radical outside supported classes")

