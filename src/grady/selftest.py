"""Acceptance suite: the worked examples reproduced exactly, plus the
randomized property suites behind the calculus (star laws, G-primary
decompositions, uniqueness, Fitting equivariance, oracle agreement).

Everything is seed-deterministic; `run_all` is what both the CLI
selftest and the test suite execute.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .decomposition import (associated_primes, check_minimal,
                            classical_decomposition, minimal_primes,
                            monomial_primary_decomposition, monomial_radical)
from .fitting import PresentationMatrix, fitting_ideal, graded_matrix_check
from .grading import GradedRing, GradingGroup, star
from .groebner import Ideal, colon, ideal_sum, intersect
from .gtheory import (_canon_key, g_associated_primes, g_minimal_primes,
                      g_primary_decomposition, g_radical, is_g_primary,
                      is_g_prime, poset_component, verify_theorem_suite)
from .oracle import oracle_compare
from .poly import GF, QQ, PolynomialRing

_VARS = ("x", "y", "z", "w")


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _fine(ring):
    n = ring.nvars
    group = GradingGroup(n, ())
    degs = [(tuple(1 if j == i else 0 for j in range(n)), ())
            for i in range(n)]
    return GradedRing(ring, group, degs)


def _paper_ring():
    return PolynomialRing(QQ, ("x", "y"))


def _q_ideal(ring):
    return Ideal(ring, ["x^4", "x^3*y", "x^2*y^2+x*y^3", "y^4"])


def _q_star(ring):
    return Ideal(ring, ["x^4", "x^3*y", "x^2*y^3", "y^4"])


# ---------------------------------------------------------------------------
# Random generators shared by the suites.

def _random_exponent(rng, n, maxdeg):
    d = rng.randint(1, maxdeg)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(d - prev)
    return tuple(parts)


def _random_poly(rng, ring, maxdeg):
    """A monomial or a two-term polynomial with unit coefficients."""
    m1 = _random_exponent(rng, ring.nvars, maxdeg)
    f = ring.monomial(m1, ring.field.from_int(rng.randint(1, 4)))
    if rng.random() < 0.5:
        m2 = _random_exponent(rng, ring.nvars, maxdeg)
        if m2 != m1:
            f = f + ring.monomial(m2, ring.field.from_int(rng.randint(1, 4)))
    return f


def _random_ideal(rng, ring, max_gens, maxdeg):
    count = rng.randint(1, max_gens)
    return Ideal(ring, [_random_poly(rng, ring, maxdeg)
                        for _ in range(count)])


def _random_monomial_ideal(rng, ring, max_gens, maxdeg):
    count = rng.randint(2, max_gens)
    return Ideal(ring, [ring.monomial(_random_exponent(rng, ring.nvars,
                                                       maxdeg))
                        for _ in range(count)])


def _random_grading(rng, ring):
    """Nontrivial grading with free rank <= 2 and at most one Z/2 or Z/3."""
    while True:
        r = rng.randint(0, 2)
        s = rng.randint(0, 1)
        if r or s:
            break
    moduli = tuple(rng.choice((2, 3)) for _ in range(s))
    group = GradingGroup(r, moduli)
    degs = [(tuple(rng.randint(-2, 2) for _ in range(r)),
             tuple(rng.randrange(m) for m in moduli))
            for _ in range(ring.nvars)]
    return GradedRing(ring, group, degs)


def _coarse_torsion_free(rng, ring):
    r = rng.randint(1, 2)
    group = GradingGroup(r, ())
    degs = [(tuple(rng.randint(0, 3) for _ in range(r)), ())
            for _ in range(ring.nvars)]
    return GradedRing(ring, group, degs)


def _same_prime_sets(left, right):
    keys_l = sorted(_canon_key(P) for P in left)
    keys_r = sorted(_canon_key(P) for P in right)
    return keys_l == keys_r


# ---------------------------------------------------------------------------
# Shared suite construction.

def build_suite5(seed, count=200):
    """Monomial/binomial ideals over F5, n <= 3, degree <= 5, random
    gradings.  Instances whose star needs generators of degree > 6 are
    regenerated so one fixed oracle bound covers the whole suite."""
    rng = random.Random(seed * 1009 + 5)
    out = []
    while len(out) < count:
        n = rng.choice((1, 2, 3))
        ring = PolynomialRing(GF(5), _VARS[:n])
        graded = _random_grading(rng, ring)
        I = _random_ideal(rng, ring, 3, 5)
        if I.is_unit:
            continue
        S = star(I, graded)
        gens = S.canonical_generators()
        if max((g.total_degree() for g in gens), default=0) > 6:
            continue
        extra = _random_ideal(rng, ring, 2, 5)
        K = _random_ideal(rng, ring, 2, 5)
        Jm = Ideal(ring, [ring.monomial(_random_exponent(rng, n, 3))])
        out.append({"ring": ring, "graded": graded, "I": I, "star": S,
                    "sup": ideal_sum(I, extra), "K": K, "Jm": Jm})
    return out


def build_suite6(seed, count=200):
    """Monomial ideals over F5, n <= 4, degree <= 6, fine and coarse
    torsion-free gradings, with their G-primary decompositions."""
    rng = random.Random(seed * 1009 + 6)
    out = []
    while len(out) < count:
        n = rng.choice((2, 3, 4))
        ring = PolynomialRing(GF(5), _VARS[:n])
        I = _random_monomial_ideal(rng, ring, 4, 6)
        if I.is_unit or I.is_zero:
            continue
        graded = _fine(ring) if rng.random() < 0.5 \
            else _coarse_torsion_free(rng, ring)
        gdec = g_primary_decomposition(I, graded)
        out.append({"ring": ring, "graded": graded, "I": I, "gdec": gdec})
    return out


# ---------------------------------------------------------------------------
# Criteria.

def _criterion_1(ctx):
    ring = _paper_ring()
    S = star(_q_ideal(ring), _fine(ring))
    ok = S == _q_star(ring)
    return ok, "star(q) = (x^4, x^3*y, x^2*y^3, y^4)" if ok \
        else f"star(q) = {_canon_key(S)}"


def _criterion_2(ctx):
    ring = _paper_ring()
    q = _q_ideal(ring)
    qs = _q_star(ring)
    I = Ideal(ring, ["x^4", "x^3*y"])
    ok = I == intersect(Ideal(ring, ["x^3"]), q)
    ok = ok and q != qs
    dec = monomial_primary_decomposition(qs)
    ok = ok and len(dec.components) == 1
    ok = ok and dec.components[0].radical == Ideal(ring, ["x", "y"])
    ok = ok and all(c.component != q for c in dec.components)
    return ok, "(x^4,x^3*y) = (x^3) ∩ q; q* is (x,y)-primary and q is " \
               "not a component of it"


def _criterion_3(ctx):
    ring = PolynomialRing(QQ, ("t",))
    graded = GradedRing(ring, GradingGroup(1, ()), [((1,), ())])
    S = star(Ideal(ring, ["t-1"]), graded)
    return S.is_zero, "star((t-1)) = (0) under deg t = 1"


def _criterion_4(ctx):
    results = []
    for field in (QQ, GF(5)):
        ring = PolynomialRing(field, ("x",))
        graded = GradedRing(ring, GradingGroup(0, (2,)), [((), (1,))])
        I = Ideal(ring, ["x-1"])
        S = star(I, graded)
        results.append(S == Ideal(ring, ["x^2-1"]))
        results.append(oracle_compare(I, graded, 6, star_ideal=S).passed)
        if field.characteristic == 5:
            results.append(is_g_prime(S, graded))
            results.append(len(minimal_primes(S)) == 2)  # not prime
    ok = all(results)
    return ok, "star((x-1)) = (x^2-1) over Q and F5, oracle-checked at " \
               "D=6; G-prime but not prime over F5"


def _criterion_5(ctx):
    suite = ctx["five"]
    failures = 0
    first = ""
    for rec in suite:
        graded, I, S = rec["graded"], rec["I"], rec["star"]
        checks = [
            star(S, graded) == S,
            S <= I,
            S <= star(rec["sup"], graded),
            star(intersect(I, rec["K"]), graded)
            == intersect(S, star(rec["K"], graded)),
            star(colon(I, rec["Jm"]), graded) == colon(S, rec["Jm"]),
        ]
        if not all(checks):
            failures += 1
            if not first:
                first = f"gens {_canon_key(I)} checks {checks}"
    ok = failures == 0
    return ok, f"{len(suite)} instances, {failures} failures" \
        + (f"; first: {first}" if first else "")


def _criterion_6(ctx):
    suite = ctx["six"]
    failures = 0
    first = ""
    for rec in suite:
        graded, I, gdec = rec["graded"], rec["I"], rec["gdec"]
        try:
            gdec.check()
            comps = gdec.components
            assert all(is_g_primary(c.component, graded) for c in comps)
            assert all(is_g_prime(c.radical, graded) for c in comps)

            pieces = [p for c in comps for p in
                      classical_decomposition(c.component).components]
            check_minimal(I, [(p.component, p.radical) for p in pieces])

            gass = g_associated_primes(I, graded)
            assert _same_prime_sets(
                gass, [star(p, graded) for p in associated_primes(I)])
            gmin = g_minimal_primes(I, graded)
            assert _same_prime_sets(
                gmin, [star(p, graded) for p in minimal_primes(I)])
        except AssertionError as exc:
            failures += 1
            if not first:
                first = f"gens {_canon_key(I)}: {exc}"
    ok = failures == 0
    return ok, f"{len(suite)} instances, {failures} failures" \
        + (f"; first: {first}" if first else "")


def _criterion_7(ctx):
    suite = ctx["six"]
    failures = 0
    checked = 0
    for rec in suite:
        for c in rec["gdec"].components:
            checked += 1
            if not _same_prime_sets(associated_primes(c.component),
                                    minimal_primes(c.component)):
                failures += 1
        T = g_radical(rec["I"], rec["graded"])
        checked += 1
        if not _same_prime_sets(associated_primes(T), minimal_primes(T)):
            failures += 1
    ok = failures == 0
    return ok, f"{checked} G-primary/G-radical ideals, {failures} failures"


def _criterion_8(ctx):
    rng = random.Random(ctx["seed"] * 1009 + 8)
    found = 0
    failures = 0
    attempts = 0
    while found < 50 and attempts < 20000:
        attempts += 1
        n = rng.choice((2, 3))
        ring = PolynomialRing(GF(5), _VARS[:n])
        I = _random_monomial_ideal(rng, ring, 4, 5)
        if I.is_unit or I.is_zero:
            continue
        d1 = monomial_primary_decomposition(I, split="first")
        d2 = monomial_primary_decomposition(I, split="last")
        k1 = sorted(_canon_key(c.component) for c in d1.components)
        k2 = sorted(_canon_key(c.component) for c in d2.components)
        if k1 == k2:
            continue
        found += 1
        graded = _fine(ring)
        g1 = g_primary_decomposition(I, graded, classical=d1)
        g2 = g_primary_decomposition(I, graded, classical=d2)
        rads = [c.radical for c in g1.components]
        if not _same_prime_sets(rads, [c.radical for c in g2.components]):
            failures += 1
            continue
        k = len(rads)
        for mask in range(1 << k):
            chosen = [rads[i] for i in range(k) if mask >> i & 1]
            rest = [rads[i] for i in range(k) if not mask >> i & 1]
            if any(p <= c for c in chosen for p in rest):
                continue    # not downward closed
            if poset_component(g1, chosen) != poset_component(g2, chosen):
                failures += 1
                break
    ok = failures == 0 and found == 50
    return ok, f"{found} split-order-distinct instances " \
               f"({attempts} draws), {failures} failures"


def _criterion_9(ctx):
    rng = random.Random(ctx["seed"] * 1009 + 9)
    failures = 0
    primes_checked = 0
    while primes_checked < 100:
        n = rng.choice((2, 3, 4))
        ring = PolynomialRing(GF(5), _VARS[:n])
        graded = _fine(ring)
        idx = list(range(n))
        rng.shuffle(idx)
        ka = rng.randint(0, n - 1)
        kb = rng.randint(0, n - ka)
        A, B = idx[:ka], idx[ka:ka + kb]
        if not A and not B:
            continue
        primes_checked += 1
        gens = [ring.gen(i) - ring.constant(rng.randint(1, 4)) for i in A]
        gens += [ring.gen(j) for j in B]
        S = star(Ideal(ring, gens), graded)
        expected = Ideal(ring, [ring.gen(j) for j in sorted(B)])
        if S != expected:
            failures += 1
            continue
        if not S.is_zero and not S.is_monomial:
            failures += 1

    radical_checked = 0
    while radical_checked < 50:
        n = rng.choice((2, 3))
        ring = PolynomialRing(GF(5), _VARS[:n])
        exps = [tuple(min(e, 1) for e in _random_exponent(rng, n, 3))
                for _ in range(rng.randint(1, 3))]
        I = Ideal(ring, [ring.monomial(e) for e in exps])
        if I.is_unit or I.is_zero:
            continue
        radical_checked += 1
        graded = _coarse_torsion_free(rng, ring)
        S = star(I, graded)
        if S != I or monomial_radical(S) != S:
            failures += 1
    ok = failures == 0
    return ok, f"{primes_checked} prime translates + {radical_checked} " \
               f"radical monomial ideals, {failures} failures"


def _random_homogeneous(rng, ring, degree):
    if degree < 0:
        return ring.zero()
    terms = {}
    for i in range(degree + 1):
        c = rng.randint(-2, 2)
        if c:
            terms[(i, degree - i)] = ring.field.from_int(c)
    from .poly import Polynomial
    return Polynomial(ring, terms)


def _criterion_10(ctx):
    ring = _paper_ring()
    failures = 0

    row = PresentationMatrix(ring, [["x^2", "x*y", "y^3"]])
    if fitting_ideal(row, 0) != Ideal(ring, ["x^2", "x*y", "y^3"]):
        failures += 1
    M = PresentationMatrix(ring, [["x", "y"], ["y", "x"]])
    if fitting_ideal(M, 1) != Ideal(ring, ["x", "y"]):
        failures += 1
    if fitting_ideal(M, 0) != Ideal(ring, ["x^2-y^2"]):
        failures += 1
    if not (fitting_ideal(M, 2).is_unit and fitting_ideal(M, 5).is_unit
            and fitting_ideal(M, -1).is_zero):
        failures += 1

    z_grading = GradedRing(ring, GradingGroup(1, ()),
                           [((1,), ()), ((1,), ())])
    graded_M = PresentationMatrix(ring, [["x", "y"], ["y", "x"]],
                                  [((1,), ()), ((1,), ())],
                                  [((0,), ()), ((0,), ())])
    if graded_matrix_check(graded_M, z_grading)["status"] != "pass":
        failures += 1
    one_ring = PolynomialRing(QQ, ("x",))
    bad = PresentationMatrix(one_ring, [["x+1"]], [((1,), ())],
                             [((0,), ())])
    one_graded = GradedRing(one_ring, GradingGroup(1, ()), [((1,), ())])
    if graded_matrix_check(bad, one_graded)["status"] != "fail":
        failures += 1
    zero21 = PresentationMatrix(ring, [["0"], ["0"]])
    if not (fitting_ideal(zero21, 2).is_unit
            and fitting_ideal(zero21, 1).is_zero):
        failures += 1

    rng = random.Random(ctx["seed"] * 1009 + 10)
    line = PolynomialRing(QQ, ("y",))

    def specialize(f):
        return f.substitute({"x": 0}).map_to(line)

    for _ in range(50):
        rows, cols = rng.choice(((2, 2), (2, 3)))
        row_degs = [rng.randint(1, 3) for _ in range(rows)]
        col_degs = [rng.randint(0, 1) for _ in range(cols)]
        grid = [[_random_homogeneous(rng, ring, row_degs[i] - col_degs[j])
                 for j in range(cols)] for i in range(rows)]
        M = PresentationMatrix(ring, grid,
                               [((d,), ()) for d in row_degs],
                               [((d,), ()) for d in col_degs])
        rep = graded_matrix_check(M, z_grading)
        if rep["status"] != "pass":
            failures += 1
            continue
        spec_M = PresentationMatrix(line,
                                    [[specialize(e) for e in r]
                                     for r in M.entries])
        for j in range(-1, rows + 2):
            F = fitting_ideal(M, j)
            left = Ideal(line, [specialize(f) for f in F.generators])
            if left != fitting_ideal(spec_M, j):
                failures += 1
                break

        perm_rows = list(range(rows))
        perm_cols = list(range(cols))
        rng.shuffle(perm_rows)
        rng.shuffle(perm_cols)
        permuted = PresentationMatrix(
            ring, [[M.entries[i][j] for j in perm_cols] for i in perm_rows])
        scaled = [list(r) for r in M.entries]
        mult = ring.gen(0) if rng.random() < 0.5 else ring.constant(2)
        for j in range(cols):
            scaled[0][j] = scaled[0][j] + mult * scaled[1][j]
        added = PresentationMatrix(ring, scaled)
        for j in range(-1, rows + 2):
            F = fitting_ideal(M, j)
            if fitting_ideal(permuted, j) != F or \
                    fitting_ideal(added, j) != F:
                failures += 1
                break
    ok = failures == 0
    return ok, f"fixed examples + 50 random graded matrices, " \
               f"{failures} failures"


def _criterion_11(ctx):
    failures = 0
    checked = 0
    for rec in ctx["five"]:
        checked += 1
        v = oracle_compare(rec["I"], rec["graded"], 8,
                           star_ideal=rec["star"])
        if not v.passed:
            failures += 1
    for rec in ctx["six"]:
        checked += 1
        v = oracle_compare(rec["I"], rec["graded"], 8)
        if not v.passed:
            failures += 1

    mutated = 0
    bad_mutations = 0
    for rec in ctx["five"] + ctx["six"]:
        if mutated >= 20:
            break
        S = rec.get("star") or star(rec["I"], rec["graded"])
        gens = S.canonical_generators()
        if len(gens) < 2:
            continue
        corrupted = Ideal(rec["ring"], gens[:-1])
        if corrupted == S:
            continue
        cg = corrupted.canonical_generators()
        if max(g.total_degree() for g in cg) > 6:
            continue
        mutated += 1
        v = oracle_compare(rec["I"], rec["graded"], 8, star_ideal=corrupted)
        if v.status != "fail" or v.witness is None:
            bad_mutations += 1
    ok = failures == 0 and bad_mutations == 0 and mutated == 20
    return ok, f"{checked} instances at D=8, {failures} failures; " \
               f"{mutated} mutations, {bad_mutations} undetected"


def _criterion_12(ctx):
    failures = 0
    checked = 0
    for rec in ctx["six"]:
        candidates = [c.component for c in rec["gdec"].components]
        if len(rec["gdec"].components) == 1:
            candidates.append(rec["I"])
        for Q in candidates:
            checked += 1
            dims = {rec["ring"].nvars - len(P.generators)
                    for P in minimal_primes(Q)}
            if len(dims) != 1:
                failures += 1
    # torsion-graded fixed case: Z/2 on the line, (x^2-1) is G-primary
    ring = PolynomialRing(GF(5), ("x",))
    graded = GradedRing(ring, GradingGroup(0, (2,)), [((), (1,))])
    report = verify_theorem_suite(Ideal(ring, ["x^2-1"]), graded)
    checked += 1
    if report["status"] != "pass":
        failures += 1
    ok = failures == 0
    return ok, f"{checked} G-primary ideals, {failures} failures"


_CRITERIA = (
    (1, "star of the running example", _criterion_1),
    (2, "decomposition identity of the running example", _criterion_2),
    (3, "torus on the line", _criterion_3),
    (4, "torsion grading on the line", _criterion_4),
    (5, "star calculus property suite", _criterion_5),
    (6, "G-primary decomposition suite", _criterion_6),
    (7, "no embedded primes", _criterion_7),
    (8, "uniqueness across decompositions", _criterion_8),
    (9, "torsion-free specialization", _criterion_9),
    (10, "Fitting ideal suite", _criterion_10),
    (11, "oracle differential test", _criterion_11),
    (12, "equidimensionality", _criterion_12),
)


def run_all(seed=0):
    ctx = {"seed": seed}
    results = []
    for index, name, fn in _CRITERIA:
        start = time.perf_counter()
        if index == 5 and "five" not in ctx:
            ctx["five"] = build_suite5(seed)
        if index == 6 and "six" not in ctx:
            ctx["six"] = build_suite6(seed)
        try:
            passed, detail = fn(ctx)
        except Exception as exc:   # honest red, never silent
            passed, detail = False, f"exception {type(exc).__name__}: {exc}"
        results.append(CriterionResult(index, name, passed, detail,
                                       time.perf_counter() - start))
    return results
