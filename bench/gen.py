"""Seeded input generators, one per workload.

Every generator returns plain data (strings, integers, lists), never
grady objects, so two calls with the same seed can be compared as JSON
and the program under test only ever sees the generated text.  The
generators are the benchmark's own: they share no code with
`grady.selftest`, so edits to the acceptance suite never move the
benchmark.
"""

from __future__ import annotations

import json
import random

VARS = ("x", "y", "z", "w")
# Step of the golden-ratio sequences (start + i * GOLDEN) mod 1 that
# stand in for uniform draws where a few dozen inputs must cover a range
# evenly.
GOLDEN = (5 ** 0.5 - 1) / 2


def rng_for(workload, seed):
    """Independent stream per workload; string seeding is stable across
    Python versions and platforms."""
    return random.Random(f"grady-bench:{workload}:{seed}")


def exponent(rng, n, maxdeg, mindeg=1):
    """Random exponent tuple of total degree in [mindeg, maxdeg]."""
    d = rng.randint(mindeg, maxdeg)
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    parts, prev = [], 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(d - prev)
    return tuple(parts)


def monomial_text(exps, names=VARS):
    factors = [name if e == 1 else f"{name}^{e}"
               for name, e in zip(names, exps) if e]
    return "*".join(factors) if factors else "1"


def sum_text(terms):
    """Polynomial text from (nonzero coefficient, monomial text) pairs,
    e.g. [(3, "x^2"), (-1, "y"), (2, "1")] -> "3*x^2 - y + 2"."""
    if not terms:
        return "0"
    parts = []
    for c, body in terms:
        mag = abs(c)
        if body == "1":
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_text(rng, n, maxdeg, terms, field):
    """Sum of `terms` distinct nonconstant monomials with small nonzero
    coefficients; fewer terms only if the draws collide."""
    monos = []
    for _ in range(terms):
        m = exponent(rng, n, maxdeg)
        if m not in monos:
            monos.append(m)
    coeffs = (1, 2, 3, 4) if field != "Q" else (1, 2, 3, -1, -2)
    return sum_text([(rng.choice(coeffs), monomial_text(m)) for m in monos])


def grading_shapes(n, max_rank=2):
    """(free rank, torsion factors) of the gradings random_grading makes:
    Z or (max_rank 2) Z^2, or one Z/2 or Z/3; free and torsion factors
    together only on one variable.  Mixed groups on two or more variables
    are left out because single star instances there run for tens of
    seconds (see README)."""
    shapes = [(1, 0), (2, 0), (0, 1)] + ([(1, 1), (2, 1)] if n == 1 else [])
    return [(r, s) for r, s in shapes if r <= max_rank]


def random_grading(rng, n, max_rank=2, shape=None):
    """Nontrivial grading of one of the grading_shapes (drawn unless
    given), degrees of the free part in [-1, 1]."""
    r, s = shape or rng.choice(grading_shapes(n, max_rank))
    torsion = [rng.choice((2, 3)) for _ in range(s)]
    degrees = [[[rng.randint(-1, 1) for _ in range(r)],
                [rng.randrange(m) for m in torsion]] for _ in range(n)]
    return {"free_rank": r, "torsion": torsion, "degrees": degrees}


def fine_grading(n):
    return {"free_rank": n, "torsion": [],
            "degrees": [[[int(i == j) for j in range(n)], []]
                        for i in range(n)]}


def coarse_grading(rng, n):
    r = rng.randint(1, 2)
    return {"free_rank": r, "torsion": [],
            "degrees": [[[rng.randint(0, 3) for _ in range(r)], []]
                        for _ in range(n)]}


def sparse_ideal(rng, n, field, max_gens, maxdeg, mix=(0.0, 1.0),
                 count=None):
    """`count` (default 1..max_gens) generators; each is a monomial with
    probability mix[0], a trinomial of degree at most maxdeg - 1 with
    probability 1 - mix[1], and a binomial otherwise."""
    out = []
    for _ in range(count or rng.randint(1, max_gens)):
        u = rng.random()
        if u < mix[0]:
            out.append(poly_text(rng, n, maxdeg, 1, field))
        elif u < mix[1]:
            out.append(poly_text(rng, n, maxdeg, 2, field))
        else:
            out.append(poly_text(rng, n, maxdeg - 1, 3, field))
    return out


def lowest_degree(k, lo, hi, u):
    """The smallest of k degrees drawn uniformly from [lo, hi], at
    quantile u in [0, 1) of its distribution (inverse CDF)."""
    d = lo
    while 1 - ((hi - d) / (hi - lo + 1)) ** k <= u:
        d += 1
    return d


def monomial_ideal(rng, n, max_gens, maxdeg, mindeg=1, count=None):
    """`count` (default 2..max_gens) monomial generators."""
    return [monomial_text(exponent(rng, n, maxdeg, mindeg))
            for _ in range(count or rng.randint(2, max_gens))]


# ---------------------------------------------------------------------------
# star_calculus: the five star laws on one instance.

STAR_FIELDS = ("F5", "F32003", "Q")
STAR_MAXDEG = {1: 4, 2: 4, 3: 2}
# Trinomials only in one variable, and K is one monomial or binomial:
# with trinomials in two or three variables, or a two-generator K, single
# instances ran for 20 s to a minute (see README).
STAR_MIX = {1: (0.5, 0.9), 2: (0.5, 1.0), 3: (0.5, 1.0)}
STAR_K_MIX = (0.5, 1.0)


def star_calculus(seed, count):
    """Ideals of monomials, binomials and (one variable) trinomials in 1-3
    variables over F5, F32003 and Q under random free and torsion
    gradings, with a superideal summand, a second ideal for intersect and
    a monomial for colon.  Cells (field, variable count, grading shape,
    generator count of I) are visited round-robin, not drawn, so every
    pool has the same mix of costlier and cheaper cells."""
    rng = rng_for("star_calculus", seed)
    cells = [(f, n, shape, k) for f in STAR_FIELDS for n in (1, 2, 3)
             for shape in grading_shapes(n) for k in (1, 2, 3)]
    out = []
    for i in range(count):
        field, n, shape, k = cells[i % len(cells)]
        maxdeg = STAR_MAXDEG[n]
        out.append({
            "field": field, "vars": list(VARS[:n]),
            "grading": random_grading(rng, n, shape=shape),
            "I": sparse_ideal(rng, n, field, 3, maxdeg, STAR_MIX[n], k),
            "sup": sparse_ideal(rng, n, field, 1, maxdeg, STAR_MIX[n]),
            "K": sparse_ideal(rng, n, field, 1, maxdeg, STAR_K_MIX),
            "Jm": monomial_text(exponent(rng, n, 3)),
        })
    return out


# ---------------------------------------------------------------------------
# oracle_diff: oracle_compare at D = 8 over F5.

ORACLE_BOUND = 8
MUTATE_EVERY = 20
# One cycle of (kind, variables).  The oracle's cost grows steeply with
# the variable count (about 1, 20 and 100 ms for 1-2, 3 and 4
# variables), so the cycle fixes the mix and puts the median inside the
# 3-variable group and the 90th percentile inside the 4-variable group,
# not on a boundary between groups where it would jump between seeds.
ORACLE_CELLS = (("binomial", 1), ("monomial", 2), ("binomial", 2),
                ("monomial", 3), ("binomial", 3), ("monomial", 3),
                ("binomial", 3), ("monomial", 4), ("monomial", 4))
ORACLE_MAXDEG = {1: 5, 2: 4, 3: 3}
# Each variable count's monomial inputs cycle through 2, 3 and 4
# generators, each under the fine and a coarse grading, instead of
# drawing them: the generator count sets much of a 4-variable input's
# cost, and a drawn mix moved the 90th percentile by about 10% between
# seeds.
ORACLE_SHAPES = tuple((k, fine) for k in (2, 3, 4) for fine in (True, False))


def oracle_diff(seed, count):
    """Monomial ideals in 2-4 variables under fine or coarse gradings and
    binomial ideals in 1-3 variables under random gradings, over F5.
    Generators of 4-variable monomial ideals have degree 3-6, others
    1-6.  A monomial ideal's cost falls steeply with its lowest generator
    degree (about 130, 65, 20 and 8 ms for 3, 4, 5 and 6 in four
    variables), so that degree is not drawn: it is the quantile of a
    golden-ratio sequence in its distribution (the smallest of k uniform
    degrees), and only the other generators' degrees are drawn above it.
    Drawn, it moved the 4-variable group's median, where the 90th
    percentile lies, by a fifth between seeds."""
    rng = rng_for("oracle_diff", seed)
    start = rng.random()
    out = []
    shapes = {2: 0, 3: 0, 4: 0}
    for i in range(count):
        kind, n = ORACLE_CELLS[i % len(ORACLE_CELLS)]
        if kind == "monomial":
            k, fine = ORACLE_SHAPES[shapes[n] % len(ORACLE_SHAPES)]
            lo = 3 if n == 4 else 1
            low = lowest_degree(k, lo, 6, (start + shapes[n] * GOLDEN) % 1.0)
            shapes[n] += 1
            gens = [monomial_text(exponent(rng, n, d, low))
                    for d in [low] + [6] * (k - 1)]
            grading = fine_grading(n) if fine else coarse_grading(rng, n)
        else:
            gens = sparse_ideal(rng, n, "F5", 3, ORACLE_MAXDEG[n])
            # No Z^2 on three variables: the star of such an input, made
            # in set-up, took 0.1-3.3 s and made set-up time swing
            # fourfold between seeds.  star_calculus times those stars.
            grading = random_grading(rng, n, max_rank=1 if n == 3 else 2)
        out.append({"field": "F5", "vars": list(VARS[:n]),
                    "grading": grading, "kind": kind, "I": gens})
    return out


# ---------------------------------------------------------------------------
# decomp: classical and G-primary decomposition, univariate factoring.

DECOMP_MONOMIAL_OPS = ("classical_first", "classical_last", "gdecomp",
                       "g_ass", "g_min")
DECOMP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# (degree, multiplicity) of each irreducible factor of an F_p input.
# Trial division searches up to p^3 candidates for the squared cubic of
# ((3, 2),), and how long depends on where the cubic falls in the search
# order (0.06-0.45 s at p = 31).  The primes and shapes are taken in
# turn, not drawn: a drawn count of such inputs moved a run's total op
# time by a third between seeds.  The search tries cubics in order of
# their constant term first, so the constant terms of cubic factors
# follow a golden-ratio sequence from a seeded start instead of being
# drawn: a few dozen such inputs then spread evenly over the search,
# where drawn ones moved a pool's total op time by a tenth between
# seeds.
DECOMP_FP_SHAPES = (((1, 1), (1, 1)), ((1, 2), (2, 1)), ((2, 2), (1, 1)),
                    ((3, 1), (1, 2)), ((3, 2),), ((2, 1), (1, 1), (1, 2)),
                    ((3, 1), (2, 2)), ((1, 3), (3, 1)))
# Monomial inputs cycle through (variables, fine grading, generators).
DECOMP_MONOMIAL_CELLS = tuple((n, fine, k) for n in (2, 3, 4)
                              for fine in (True, False) for k in (2, 3, 4))


def _irreducible(rng, p, d, const=None):
    """Random monic irreducible of degree d <= 3 over F_p, coefficients
    constant first, with the given nonzero constant term if any: at
    degree 3 or less, one without a root."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if const is not None:
            f[0] = const
        if d == 1 or all(sum(c * x ** i for i, c in enumerate(f)) % p
                         for x in range(p)):
            return f


def _univariate_fp(rng, p, shape, position):
    """Product of distinct random monic irreducibles over F_p with the
    degrees and multiplicities of `shape`; a cubic factor's constant term
    sits at `position` (in [0, 1)) of the range 1..p-1."""
    factors = []
    for d, e in shape:
        const = 1 + int(position * (p - 1)) if d == 3 else None
        f = _irreducible(rng, p, d, const)
        while any(f == g for g, _ in factors):
            f = _irreducible(rng, p, d, const)
        factors.append((f, e))
    return f"F{p}", factors


def _univariate_q(rng):
    """Product of rational linear factors (a x - b) with small a, b,
    multiplicities 1-3, times at most one irreducible quadratic x^2 + c."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        a, b = rng.randint(1, 4), rng.randint(-6, 6)
        factors.append(([-b, a], rng.randint(1, 3)))
    if rng.random() < 0.3:
        factors.append(([rng.randint(1, 5), 0, 1], 1))
    return "Q", factors


def expand_univariate(factors, p):
    """Dense coefficients (constant first) of prod f_i^e_i, mod p if p."""
    out = [1]
    for coeffs, e in factors:
        for _ in range(e):
            prod = [0] * (len(out) + len(coeffs) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(coeffs):
                    prod[i + j] += a * b
            out = [c % p for c in prod] if p else prod
    return out


def univariate_text(coeffs):
    return sum_text([(c, monomial_text((i,)))
                     for i, c in reversed(list(enumerate(coeffs))) if c])


def decomp(seed, count):
    """Five monomial records (one per decomposition entry point, each
    cell of DECOMP_MONOMIAL_CELLS in turn) for every univariate record;
    univariate records alternate F_p (p <= 31, every prime with every
    shape in turn) and Q with rational roots."""
    rng = rng_for("decomp", seed)
    start = rng.random()
    out = []
    for i in range(count):
        slot = i % 6
        if slot < 5:
            n, fine, k = DECOMP_MONOMIAL_CELLS[i // 6
                                               % len(DECOMP_MONOMIAL_CELLS)]
            grading = fine_grading(n) if fine else coarse_grading(rng, n)
            out.append({"op": DECOMP_MONOMIAL_OPS[slot], "field": "F5",
                        "vars": list(VARS[:n]), "grading": grading,
                        "I": monomial_ideal(rng, n, 4, 6, count=k)})
        else:
            k, q = divmod(i // 6, 2)
            primes, shapes = len(DECOMP_PRIMES), len(DECOMP_FP_SHAPES)
            position = (start + k * GOLDEN) % 1.0
            field, factors = _univariate_q(rng) if q else _univariate_fp(
                rng, DECOMP_PRIMES[k % primes],
                DECOMP_FP_SHAPES[k // primes % shapes], position)
            p = int(field[1:]) if field != "Q" else 0
            coeffs = expand_univariate(factors, p)
            out.append({"op": "univariate", "field": field, "vars": ["x"],
                        "I": [univariate_text(coeffs)]})
    return out


# ---------------------------------------------------------------------------
# jobs: whole job documents through parse -> execute -> render.

JOB_OPS = ("groebner", "star", "is_g_ideal", "grad", "is_g_radical",
           "is_g_prime", "is_g_primary", "gdecomp", "decompose", "g_ass",
           "g_min", "ass", "min", "membership", "radical_membership",
           "intersect", "colon", "saturate", "eliminate", "fitting",
           "graded_check", "theorems", "oracle")

# Ops whose supported class is monomial or univariate ideals, so a
# multivariate binomial argument is an unsupported-class refusal.
_CLASS_BOUND = ("grad", "is_g_radical", "is_g_prime", "is_g_primary",
                "gdecomp", "decompose", "g_ass", "g_min", "ass", "min",
                "theorems")


def _homogeneous_matrix(rng):
    """2x2 matrix over Q[x,y], graded by Z with deg x = deg y = 1: entry
    (i, j) is a random form of degree row_i - col_j, possibly zero."""
    rows, cols = [rng.randint(1, 2) for _ in range(2)], [0, rng.randint(0, 1)]
    entries = []
    for i in range(2):
        for j in range(2):
            d = rows[i] - cols[j]
            terms = [(rng.randint(-2, 2), monomial_text((k, d - k)))
                     for k in range(d + 1)]
            entries.append(sum_text([t for t in terms if t[0]]))
    return {"rows": 2, "cols": 2, "entries": entries,
            "row_degrees": [[[d], []] for d in rows],
            "col_degrees": [[[d], []] for d in cols]}


def _well_formed_job(rng, op, fmt):
    """A job of the given op that must succeed (exit 0)."""
    options = {"format": fmt}
    if op in ("fitting", "graded_check"):
        doc = {"ring": {"field": "Q", "vars": ["x", "y"]},
               "grading": {"free_rank": 1, "torsion": [],
                           "degrees": [[[1], []], [[1], []]]},
               "matrices": {"M": _homogeneous_matrix(rng)}}
        args = ["M", str(rng.randint(0, 2))] if op == "fitting" else ["M"]
        doc["command"] = {"op": op, "args": args, "options": options}
        return doc
    n = 2 if op == "eliminate" else rng.choice((1, 2))
    field = rng.choice(("F5", "F7", "Q"))
    doc = {"ring": {"field": field, "vars": list(VARS[:n])}}
    if op in _CLASS_BOUND:
        doc["grading"] = fine_grading(n)
        doc["ideals"] = {"I": monomial_ideal(rng, n, 3, 4)}
    else:
        if op in ("star", "is_g_ideal", "oracle"):
            doc["grading"] = random_grading(rng, n)
        doc["ideals"] = {"I": sparse_ideal(rng, n, field, 2, 3)}
    args = ["I"]
    if op in ("membership", "radical_membership"):
        args.append(poly_text(rng, n, 3, 2, field))
    elif op in ("intersect", "colon"):
        doc["ideals"]["J"] = sparse_ideal(rng, n, field, 2, 2)
        args.append("J")
    elif op == "saturate":
        args.append(monomial_text(exponent(rng, n, 1)))
    elif op == "eliminate":
        args.append(VARS[n - 1])
    elif op == "groebner":
        options["order"] = rng.choice(("grevlex", "lex"))
    doc["command"] = {"op": op, "args": args, "options": options}
    return doc


def _unsupported_job(rng, fmt):
    """A binomial ideal in two variables handed to an op that only
    decomposes monomial or univariate ideals: exit 3."""
    op = rng.choice(("decompose", "ass", "min"))
    return {"ring": {"field": rng.choice(("F5", "Q")), "vars": ["x", "y"]},
            "ideals": {"I": ["x^2 - y", "x*y + 1"]},
            "command": {"op": op, "args": ["I"],
                        "options": {"format": fmt}}}


_MALFORMED = (
    lambda d: d["ring"].update(field="F6"),
    lambda d: d["ring"].update(vars=[]),
    lambda d: d["command"].update(op="no_such_op"),
    lambda d: d["command"].update(args=["missing"]),
    lambda d: d.update(colour="blue"),
    lambda d: d["ideals"].update(I=["x^^2"]),
    lambda d: d["command"]["options"].update(order="deglex"),
)


def _malformed_job(rng, fmt):
    """A well-formed groebner job broken in one place: exit 2."""
    doc = {"ring": {"field": "F5", "vars": ["x", "y"]},
           "ideals": {"I": sparse_ideal(rng, 2, "F5", 2, 3)},
           "command": {"op": "groebner", "args": ["I"],
                       "options": {"format": fmt}}}
    rng.choice(_MALFORMED)(doc)
    return doc


def jobs(seed, count):
    """Every op in JOB_OPS in turn, both formats, with one malformed and
    one unsupported-class document in every 12."""
    rng = rng_for("jobs", seed)
    out = []
    k = 0
    for i in range(count):
        fmt = ("json", "text")[(i // 2) % 2]
        if i % 12 == 5:
            doc, code = _malformed_job(rng, fmt), 2
        elif i % 12 == 11:
            doc, code = _unsupported_job(rng, fmt), 3
        else:
            doc = _well_formed_job(rng, JOB_OPS[k % len(JOB_OPS)], fmt)
            code = 0
            k += 1
        out.append({"doc": json.dumps(doc, sort_keys=True), "expect": code})
    return out


GENERATORS = {"star_calculus": star_calculus, "oracle_diff": oracle_diff,
              "decomp": decomp, "jobs": jobs}
