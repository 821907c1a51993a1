"""Primary decomposition relative to a grading.

A homogeneous ideal is G-primary when, among homogeneous elements, the
usual primary condition holds; the G-radical of a homogeneous ideal is
the star of its radical.  Everything here reduces those notions to
classical decompositions in the supported classes plus the star
operator.  One minimal classical decomposition of the target answers
every prime-list question; g_primary_decomposition also takes a
caller-supplied one as a certificate, whose components' verified or
assumed statuses carry over.  A G-primary decomposition is a
`Decomposition` whose components' radicals are G-radicals.
"""

from __future__ import annotations

from .decomposition import (ASSUMED, VERIFIED, Decomposition,
                            PrimaryComponent, UnsupportedClassError,
                            _certified, _decompose_for_primes,
                            _inclusion_minimal, _irredundant, _meet_view,
                            _primes_of, check_minimal,
                            classical_decomposition, minimal_primes,
                            radical_ideal)
from .grading import is_g_ideal, star
from .groebner import (Ideal, colon, ideal_product, intersect_all,
                       saturate_ideal)
from .poly import ResourceLimitError


def _canon_key(I):
    return I.groebner().key


def _require_homogeneous(I, graded, what):
    if not is_g_ideal(I, graded):
        raise ValueError(f"{what} needs a homogeneous ideal")


def g_radical(I, graded):
    """star of the radical; the largest G-radical ideal inside sqrt(I)."""
    _require_homogeneous(I, graded, "g_radical")
    return star(radical_ideal(I), graded)


def is_g_radical(I, graded):
    return g_radical(I, graded) == I


def is_g_prime(P, graded):
    """A proper homogeneous P is G-prime iff it is the star of one of its
    own minimal primes."""
    if P.is_unit:
        return False
    _require_homogeneous(P, graded, "is_g_prime")
    return any(star(p, graded) == P for p in minimal_primes(P))


def _star_memo(graded):
    """star(., graded) that stars each ideal object once: one memo per
    public call, so the components and radicals of one decomposition are
    starred once however many checks read them."""
    seen = {}

    def star_of(I):
        if id(I) not in seen:
            seen[id(I)] = (I, star(I, graded))   # I pinned: ids stay unique
        return seen[id(I)][1]
    return star_of


def _stars_to_itself(Q, star_of, dec):
    """Q is G-primary iff some component of its minimal classical
    decomposition dec stars to Q itself."""
    return any(star_of(c.component) == Q for c in dec.components)


def is_g_primary(Q, graded):
    if Q.is_unit:
        return False
    _require_homogeneous(Q, graded, "is_g_primary")
    return _stars_to_itself(Q, _star_memo(graded), _certified(
        classical_decomposition(Q), "the G-primary test is not certified"))


def g_primary_decomposition(N, graded, classical=None):
    """Minimal G-primary decomposition of a homogeneous ideal, from its
    classical decomposition or from a caller's certificate, which must
    intersect to N."""
    _require_homogeneous(N, graded, "g_primary_decomposition")
    if N.is_unit:
        raise ValueError("unit ideal has no primary decomposition")
    if classical is None:
        classical = classical_decomposition(N)
    elif classical.intersection() != N:
        raise ValueError("certificate decomposition does not intersect "
                         "to the ideal")
    return _g_decompose(N, _star_memo(graded), classical)


def _g_decompose(N, star_of, dec):
    """G-primary decomposition from a trusted minimal classical
    decomposition dec of N.

    Stars each classical component, drops redundant ones, then merges
    components sharing a G-radical; intersections of G-primary ideals
    with equal G-radical stay G-primary, so merging is sound and the
    result is minimal.
    """
    starred = sorted(
        (PrimaryComponent(star_of(c.component), star_of(c.radical), c.status)
         for c in dec.components),
        key=lambda g: (_canon_key(g.radical), _canon_key(g.component)))
    kept = [starred[i] for i in _irredundant(
        *_meet_view([g.component for g in starred], N))]

    # kept is sorted by G-radical: the components to merge are adjacent,
    # and the merged ones come out in canonical order
    groups = []
    for g in kept:
        if groups and groups[-1][0].radical == g.radical:
            groups[-1].append(g)
        else:
            groups.append([g])
    return Decomposition(N, tuple(PrimaryComponent(
        intersect_all([g.component for g in group], N.ring), group[0].radical,
        VERIFIED if all(g.status == VERIFIED for g in group) else ASSUMED)
        for group in groups))


def _starred(primes, star_of):
    """Stars of the given primes, deduplicated, in canonical order."""
    out = []
    for p in primes:
        P = star_of(p)
        if not any(P == q for q in out):
            out.append(P)
    out.sort(key=_canon_key)
    return out


def _g_ass(N, star_of, dec, gdec=None):
    """Stars of Ass(N), read from its minimal classical decomposition
    dec, cross-checked against the G-radicals of gdec (built from dec
    when None).  A mismatch means an assumed component of dec is not
    primary after all (an unsupported class), or else an internal
    error."""
    out = _starred(_primes_of(dec), star_of)
    if gdec is None:
        gdec = _g_decompose(N, star_of, dec)
    radicals = [c.radical for c in gdec.components]
    if len(radicals) != len(out) or \
            any(not any(P == Q for Q in radicals) for P in out):
        _certified(dec, "G-associated primes disagree with the G-primary "
                   "decomposition")
        raise AssertionError("G-associated primes disagree with the "
                             "G-primary decomposition")
    return out


def _g_min(N, star_of, dec, gdec=None):
    """Stars of the inclusion-minimal members of Ass(N); every
    G-associated prime must contain one of them."""
    out = _starred(_inclusion_minimal(_primes_of(dec)), star_of)
    for P in _g_ass(N, star_of, dec, gdec):
        if not any(Q <= P for Q in out):
            raise AssertionError("a G-associated prime contains no "
                                 "G-minimal prime")
    return out


def g_associated_primes(N, graded):
    """Stars of the classical associated primes, deduplicated."""
    _require_homogeneous(N, graded, "g_associated_primes")
    return _g_ass(N, _star_memo(graded),
                  _decompose_for_primes(N, "associated primes"))


def g_minimal_primes(N, graded):
    """Stars of the inclusion-minimal classical associated primes,
    deduplicated."""
    _require_homogeneous(N, graded, "g_minimal_primes")
    return _g_min(N, _star_memo(graded),
                  _decompose_for_primes(N, "minimal primes"))


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
            if comps[i].radical >= comps[j].radical:
                raise ValueError("omega is not downward closed")

    direct = intersect_all([comps[i].component for i in idx], ring)
    J = intersect_all([c.radical for j, c in enumerate(comps)
                       if j not in chosen], ring)
    sat = saturate_ideal(gdec.target, J)
    if sat != direct:
        raise AssertionError("saturation route disagrees with direct "
                             "intersection")
    return direct


# g_associated_witness refuses with ResourceLimitError once a power of the
# G-radical needs more minimal generators than this: each next power costs
# about the square of that count in divisibility tests.
MAX_WITNESS_GENERATORS = 200


def g_associated_witness(N, graded, gdec, index):
    """A homogeneous f with N : (f) equal to the index-th G-radical.

    Realizes the G-associated prime as an honest colon; existence is
    part of the theory, so failing to find one is an internal error.
    The smallest power P^n of the G-radical inside N : M, M the other
    components, gives f among the generators of P^(n-1) * M.
    """
    comps = gdec.components
    P = comps[index].radical
    ring = N.ring
    others = [c.component for j, c in enumerate(comps) if j != index]
    M = intersect_all(others, ring)
    C = colon(N, M)
    previous, power = Ideal(ring, [ring.one()]), P
    while not power <= C:
        # minimal generators keep P^n from carrying len(P)^n products
        previous = power
        power = Ideal(ring, ideal_product(power, P).canonical_generators())
        if len(power.generators) > MAX_WITNESS_GENERATORS:
            raise ResourceLimitError(
                f"the powers of the G-radical outgrow "
                f"{MAX_WITNESS_GENERATORS} generators before one fits "
                f"the colon")
    L = ideal_product(previous, M)
    for f in L.canonical_generators():
        if colon(N, f) == P:
            return f
    raise AssertionError("no generator realizes the G-associated prime")


def _dimension_of_prime(P):
    ring = P.ring
    if P.is_monomial:
        return ring.nvars - len(P.monomial_generators())
    if ring.nvars == 1:
        return 0
    raise UnsupportedClassError("dimension outside supported classes")


def verify_theorem_suite(I, graded):
    """Structural consequences of the decomposition theory, checked on a
    concrete ideal.  Returns a report dict; statuses are pass, fail,
    assumed (resting on an assumed classical component) or unsupported
    (class dispatch failed), and nothing is ever silently skipped.
    """
    # The target's classical decomposition, once (after the homogeneity
    # check g_primary_decomposition makes first); every check below reads
    # Ass(I), Min(I) and the G-primary decomposition from it.
    _require_homogeneous(I, graded, "g_primary_decomposition")
    dec = classical_decomposition(I)
    star_of = _star_memo(graded)
    gdec = _g_decompose(I, star_of, dec)
    ass = _primes_of(dec)
    mins = _inclusion_minimal(ass)
    certified = all(c.status == VERIFIED for c in gdec.components)

    # Each check returns (status, detail) and is reported under its name,
    # underscores read as hyphens.
    def concatenated_classical_minimal():
        """(a) Concatenating classical decompositions of the G-components
        yields a minimal classical decomposition of the target."""
        pieces = [p for c in gdec.components
                  for p in classical_decomposition(c.component).components]
        try:
            check_minimal(I, [(p.component, p.radical) for p in pieces])
            status = "pass" if certified and \
                all(p.status == VERIFIED for p in pieces) else "assumed"
        except AssertionError:
            status = "fail"
        return status, f"{len(pieces)} classical components"

    def components_have_no_embedded_primes():
        """(b) G-primary components have no embedded primes.
        _inclusion_minimal returns a sublist, so equal lengths mean the
        lists are equal."""
        detail = f"{len(gdec.components)} components"
        for c in gdec.components:
            c_ass = _primes_of(classical_decomposition(c.component))
            if len(_inclusion_minimal(c_ass)) != len(c_ass):
                return "fail", detail
        return "pass", detail

    def g_ass_equals_g_min_iff_classical():
        """(c) Ass_G equals Min_G exactly when Ass equals Min."""
        gass = _g_ass(I, star_of, dec, gdec)
        gmin = _g_min(I, star_of, dec, gdec)
        same = (len(ass) == len(mins)) == (len(gass) == len(gmin))
        return "pass" if same else "fail", \
            f"classical {len(ass)}/{len(mins)}, graded " \
            f"{len(gass)}/{len(gmin)}"

    def g_radical_has_no_embedded_primes():
        """(d) A G-radical ideal (the star of its radical, the
        intersection of Ass(I), is I itself) has no embedded primes."""
        if star(intersect_all(ass, I.ring), graded) != I:
            return "pass", "vacuous: ideal is not G-radical"
        return "pass" if len(ass) == len(mins) else "fail", \
            f"{len(ass)} associated primes"

    def g_primary_is_equidimensional():
        """(e) A G-primary ideal is equidimensional."""
        if not _stars_to_itself(I, star_of, dec):
            return "pass", "vacuous: ideal is not G-primary"
        dims = {_dimension_of_prime(p) for p in mins}
        return "pass" if len(dims) == 1 else "fail", \
            f"dimensions {sorted(dims)}"

    checks = []
    for check in (concatenated_classical_minimal,
                  components_have_no_embedded_primes,
                  g_ass_equals_g_min_iff_classical,
                  g_radical_has_no_embedded_primes,
                  g_primary_is_equidimensional):
        try:
            status, detail = check()
        except UnsupportedClassError as exc:
            status, detail = "unsupported", str(exc)
        checks.append({"name": check.__name__.replace("_", "-"),
                       "status": status, "detail": detail})

    if any(c["status"] == "fail" for c in checks):
        overall = "fail"
    elif any(c["status"] == "unsupported" for c in checks):
        overall = "unsupported"
    elif any(c["status"] == "assumed" for c in checks) or not certified:
        overall = "assumed"
    else:
        overall = "pass"
    return {"status": overall, "checks": checks}
