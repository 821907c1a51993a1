"""Primary decomposition relative to a grading.

A homogeneous ideal is G-primary when, among homogeneous elements, the
usual primary condition holds; the G-radical of a homogeneous ideal is
the star of its radical.  Everything here reduces those notions to
classical decompositions in the supported classes plus the star
operator, with optional caller-supplied classical decompositions as
certificates (results are then labelled assumed, not verified).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (ASSUMED, VERIFIED, UnsupportedClassError,
                            _irredundant, associated_primes, check_minimal,
                            classical_decomposition, is_monomial_ideal,
                            minimal_primes, radical_ideal)
from .grading import is_g_ideal, star
from .groebner import (GREVLEX, Ideal, colon, ideal_power, ideal_product,
                       intersect_all, saturate_ideal)


def _canon_key(I):
    return tuple(str(g) for g in I.canonical_generators())


def _require_homogeneous(I, graded, what):
    if not is_g_ideal(I, graded):
        raise ValueError(f"{what} needs a homogeneous ideal")


def _classical_for(I, classical):
    if classical is None:
        return classical_decomposition(I)
    if classical.intersection() != I:
        raise ValueError("certificate decomposition does not intersect "
                         "to the ideal")
    return classical


@dataclass(frozen=True)
class GPrimaryComponent:
    component: Ideal
    g_radical: Ideal
    status: str = VERIFIED


@dataclass(frozen=True)
class GDecomposition:
    target: Ideal
    components: tuple

    def intersection(self):
        return intersect_all([c.component for c in self.components],
                             self.target.ring)

    def radical_index(self, P):
        for i, c in enumerate(self.components):
            if c.g_radical == P:
                return i
        raise ValueError("not a G-radical of this decomposition")

    def check(self):
        return check_minimal(self.target, [(c.component, c.g_radical)
                                           for c in self.components])


def g_radical(I, graded, classical=None):
    """star of the radical; the largest G-radical ideal inside sqrt(I)."""
    _require_homogeneous(I, graded, "g_radical")
    if classical is None:
        rad = radical_ideal(I)
    else:
        dec = _classical_for(I, classical)
        rad = intersect_all([c.radical for c in dec.components], I.ring)
    return star(rad, graded)


def is_g_radical(I, graded, classical=None):
    return g_radical(I, graded, classical) == I


def is_g_prime(P, graded):
    """A proper homogeneous P is G-prime iff it is the star of one of its
    own minimal primes."""
    if P.is_unit:
        return False
    _require_homogeneous(P, graded, "is_g_prime")
    return any(star(p, graded) == P for p in minimal_primes(P))


def is_g_primary(Q, graded, classical=None):
    """A proper homogeneous Q is G-primary iff some component of its
    minimal classical decomposition stars to Q itself."""
    if Q.is_unit:
        return False
    _require_homogeneous(Q, graded, "is_g_primary")
    dec = _classical_for(Q, classical)
    return any(star(c.component, graded) == Q for c in dec.components)


def g_primary_decomposition(N, graded, classical=None):
    """Minimal G-primary decomposition of a homogeneous ideal.

    Stars each classical component, drops redundant ones, then merges
    components sharing a G-radical; intersections of G-primary ideals
    with equal G-radical stay G-primary, so merging is sound and the
    result is minimal.
    """
    _require_homogeneous(N, graded, "g_primary_decomposition")
    ring = N.ring
    if N.is_unit:
        raise ValueError("unit ideal has no primary decomposition")
    dec = _classical_for(N, classical)

    starred = []
    for c in dec.components:
        S = star(c.component, graded)
        P = star(c.radical, graded)
        starred.append(GPrimaryComponent(S, P, c.status))
    starred.sort(key=lambda g: (_canon_key(g.g_radical),
                                _canon_key(g.component)))

    survivors = _irredundant([g.component for g in starred], N)
    kept = [g for g in starred if any(g.component is s for s in survivors)]

    by_radical = []
    for g in kept:
        for slot in by_radical:
            if slot[0] == g.g_radical:
                slot[1].append(g)
                break
        else:
            by_radical.append([g.g_radical, [g]])

    components = []
    for P, group in by_radical:
        comp = intersect_all([g.component for g in group], ring)
        status = VERIFIED if all(g.status == VERIFIED for g in group) \
            else ASSUMED
        components.append(GPrimaryComponent(comp, P, status))
    components.sort(key=lambda g: _canon_key(g.g_radical))
    return GDecomposition(N, tuple(components))


def _classical_primes(N, classical):
    """Ass(N): the certificate's radicals, or computed in a supported
    class."""
    if classical is None:
        return associated_primes(N)
    return [c.radical for c in _classical_for(N, classical).components]


def _inclusion_minimal(primes):
    return [p for p in primes
            if not any(q <= p and not p <= q for q in primes)]


def _starred(primes, graded):
    """Stars of the given primes, deduplicated, in canonical order."""
    out = []
    for p in primes:
        P = star(p, graded)
        if not any(P == q for q in out):
            out.append(P)
    out.sort(key=_canon_key)
    return out


def _g_ass_checked(N, graded, classical, gdec, ass):
    """Stars of ass, cross-checked against the G-radicals of the G-primary
    decomposition; a mismatch would be an internal error."""
    out = _starred(ass, graded)
    if gdec is None:
        gdec = g_primary_decomposition(N, graded, classical)
    radicals = [c.g_radical for c in gdec.components]
    if len(radicals) != len(out) or \
            any(not any(P == Q for Q in radicals) for P in out):
        raise AssertionError("G-associated primes disagree with the "
                             "G-primary decomposition")
    return out


def g_associated_primes(N, graded, classical=None, gdec=None):
    """Stars of the classical associated primes, deduplicated."""
    _require_homogeneous(N, graded, "g_associated_primes")
    return _g_ass_checked(N, graded, classical, gdec,
                          _classical_primes(N, classical))


def g_minimal_primes(N, graded, classical=None, gdec=None):
    """Stars of the inclusion-minimal classical associated primes,
    deduplicated; every G-associated prime must contain one of them."""
    _require_homogeneous(N, graded, "g_minimal_primes")
    try:
        ass = _classical_primes(N, classical)
    except UnsupportedClassError:
        raise UnsupportedClassError(
            "minimal primes outside supported classes") from None
    out = _starred(_inclusion_minimal(ass), graded)
    for P in _g_ass_checked(N, graded, classical, gdec, ass):
        if not any(Q <= P for Q in out):
            raise AssertionError("a G-associated prime contains no "
                                 "G-minimal prime")
    return out


def poset_component(gdec, omega):
    """Intersection of the components whose G-radicals lie in omega.

    omega must be downward closed in the inclusion order on the
    decomposition's G-radicals; the result is then independent of the
    decomposition.  Computed twice, directly and as a saturation, and
    the two answers are required to agree.
    """
    comps = gdec.components
    ring = gdec.target.ring
    idx = sorted({gdec.radical_index(P) for P in omega})
    chosen = set(idx)
    for i in chosen:
        for j in range(len(comps)):
            if j in chosen:
                continue
            if comps[i].g_radical >= comps[j].g_radical:
                raise ValueError("omega is not downward closed")

    direct = intersect_all([comps[i].component for i in idx], ring)
    J = intersect_all([c.g_radical for j, c in enumerate(comps)
                       if j not in chosen], ring)
    sat = saturate_ideal(gdec.target, J)
    if sat != direct:
        raise AssertionError("saturation route disagrees with direct "
                             "intersection")
    return direct


def g_associated_witness(N, graded, gdec, index, cap=64):
    """A homogeneous f with N : (f) equal to the index-th G-radical.

    Realizes the G-associated prime as an honest colon; existence is
    part of the theory, so failing to find one is an internal error.
    """
    comps = gdec.components
    P = comps[index].g_radical
    ring = N.ring
    others = [c.component for j, c in enumerate(comps) if j != index]
    M = intersect_all(others, ring)
    C = colon(N, M)
    n = 1
    power = P
    while not all(C.contains(g) for g in power.generators):
        n += 1
        if n > cap:
            raise ArithmeticError("no power of the G-radical fits the colon")
        power = ideal_product(power, P)
    L = ideal_product(ideal_power(P, n - 1), M)
    for f in L.canonical_generators():
        if colon(N, f) == P:
            return f
    raise AssertionError("no generator realizes the G-associated prime")


def _dimension_of_prime(P):
    ring = P.ring
    if P.is_zero:
        return ring.nvars
    if is_monomial_ideal(P):
        return ring.nvars - len(P.monomial_generators())
    if ring.nvars == 1:
        return 0
    raise UnsupportedClassError("dimension outside supported classes")


def verify_theorem_suite(I, graded, classical=None):
    """Structural consequences of the decomposition theory, checked on a
    concrete ideal.  Returns a report dict; statuses are pass, fail,
    assumed (certificate-dependent) or unsupported (class dispatch
    failed), and nothing is ever silently skipped.
    """
    checks = []

    def add(name, status, detail=""):
        checks.append({"name": name, "status": status, "detail": detail})

    # The target's classical decomposition, once: the certificate, or
    # computed here (after the homogeneity check g_primary_decomposition
    # would make first).  Beside a certificate, checks (c)-(e) still
    # compute Ass(I) and Min(I) in the target's class, so outside the
    # supported classes they report unsupported.
    _require_homogeneous(I, graded, "g_primary_decomposition")
    if classical is None:
        dec = classical_decomposition(I)
        own_ass = [c.radical for c in dec.components]
        own_min = _inclusion_minimal(own_ass)
        target_ass, target_min = (lambda: own_ass), (lambda: own_min)
    else:
        dec = classical
        target_ass = lambda: associated_primes(I)
        target_min = lambda: minimal_primes(I)
    gdec = g_primary_decomposition(I, graded, dec)
    certified = all(c.status == VERIFIED for c in gdec.components)

    # (a) concatenating classical decompositions of the G-components
    # yields a minimal classical decomposition of the target.
    try:
        pieces = [p for c in gdec.components
                  for p in classical_decomposition(c.component).components]
        try:
            check_minimal(I, [(p.component, p.radical) for p in pieces])
            status = "pass" if certified and \
                all(p.status == VERIFIED for p in pieces) else "assumed"
        except AssertionError:
            status = "fail"
        add("concatenated-classical-minimal", status,
            f"{len(pieces)} classical components")
    except UnsupportedClassError as exc:
        add("concatenated-classical-minimal", "unsupported", str(exc))

    # (b) G-primary components have no embedded primes.
    try:
        ok = True
        for c in gdec.components:
            ass = associated_primes(c.component)
            mins = minimal_primes(c.component)
            if len(ass) != len(mins) or \
                    any(not any(p == q for q in mins) for p in ass):
                ok = False
                break
        add("components-have-no-embedded-primes",
            "pass" if ok else "fail", f"{len(gdec.components)} components")
    except UnsupportedClassError as exc:
        add("components-have-no-embedded-primes", "unsupported", str(exc))

    # (c) Ass_G equals Min_G exactly when Ass equals Min.
    try:
        ass, mins = target_ass(), target_min()
        classical_flat = len(ass) == len(mins)
        gass = g_associated_primes(I, graded, dec, gdec=gdec)
        gmin = g_minimal_primes(I, graded, dec, gdec=gdec)
        g_flat = len(gass) == len(gmin)
        add("g-ass-equals-g-min-iff-classical",
            "pass" if classical_flat == g_flat else "fail",
            f"classical {len(ass)}/{len(mins)}, graded "
            f"{len(gass)}/{len(gmin)}")
    except UnsupportedClassError as exc:
        add("g-ass-equals-g-min-iff-classical", "unsupported", str(exc))

    # (d) a G-radical ideal has no embedded primes.
    try:
        if is_g_radical(I, graded, dec):
            ass, mins = target_ass(), target_min()
            ok = len(ass) == len(mins)
            add("g-radical-has-no-embedded-primes",
                "pass" if ok else "fail", f"{len(ass)} associated primes")
        else:
            add("g-radical-has-no-embedded-primes", "pass",
                "vacuous: ideal is not G-radical")
    except UnsupportedClassError as exc:
        add("g-radical-has-no-embedded-primes", "unsupported", str(exc))

    # (e) a G-primary ideal is equidimensional.
    try:
        if is_g_primary(I, graded, dec):
            dims = {_dimension_of_prime(p) for p in target_min()}
            add("g-primary-is-equidimensional",
                "pass" if len(dims) == 1 else "fail",
                f"dimensions {sorted(dims)}")
        else:
            add("g-primary-is-equidimensional", "pass",
                "vacuous: ideal is not G-primary")
    except UnsupportedClassError as exc:
        add("g-primary-is-equidimensional", "unsupported", str(exc))

    if any(c["status"] == "fail" for c in checks):
        overall = "fail"
    elif any(c["status"] == "unsupported" for c in checks):
        overall = "unsupported"
    elif any(c["status"] == "assumed" for c in checks) or not certified:
        overall = "assumed"
    else:
        overall = "pass"
    return {"status": overall, "checks": checks}
