"""The four workloads: how each turns generated records into grady
objects (setup), what one timed operation calls, and how its output is
checked.

Every call into grady that a per-layer metric reads sits inside a
`t.span(...)`; with the `spans.OFF` tracer those spans cost one no-op
context each.  An op returns its canonical output (generator strings,
payload JSON or rendered text), which the runner checks and digests.
"""

from __future__ import annotations

import json

from grady import (GF, QQ, GradedRing, GradingGroup, Ideal, JobError,
                   PolynomialRing, ResultDocument, colon, execute_job,
                   g_associated_primes, g_minimal_primes,
                   g_primary_decomposition, ideal_sum, intersect,
                   monomial_primary_decomposition, oracle_compare,
                   parse_job, parse_polynomial, render_result, star,
                   truncated_star_basis, univariate_primary_decomposition)

import gen
from spans import OFF


def field_of(name):
    return QQ if name == "Q" else GF(int(name[1:]))


def ring_of(rec):
    return PolynomialRing(field_of(rec["field"]), tuple(rec["vars"]))


def graded_of(ring, grading):
    group = GradingGroup(grading["free_rank"], tuple(grading["torsion"]))
    return GradedRing(ring, group,
                      [(tuple(f), tuple(s)) for f, s in grading["degrees"]])


def polys(ring, texts):
    return [parse_polynomial(s, ring) for s in texts]


def gens_of(I):
    return [str(g) for g in I.canonical_generators()]


def basis(t, I):
    """Ideal.groebner under its own span.  Called right before an op that
    needs the grevlex basis, it fills the cache that op reads, so the
    work moves into this span instead of being repeated."""
    with t.span("groebner.basis"):
        n = len(I.groebner())
    t.count("groebner.basis_len", n)
    return I


def _job_doc(rec, op, args, options=None):
    """Job document for one generated record (used for cold CLI runs)."""
    doc = {"ring": {"field": rec["field"], "vars": rec["vars"]},
           "ideals": {"I": rec["I"]},
           "command": {"op": op, "args": args, "options": options or {}}}
    if "grading" in rec:
        doc["grading"] = rec["grading"]
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# star_calculus

class StarCalculus:
    """One op checks the five star laws on one instance: star(S) == S,
    S <= I, S <= star(I + sup), star(I & K) == S & star(K), and
    star(I : m) == S : m for a monomial m."""

    name = "star_calculus"
    pool_size = 2000

    def prepare(self, rec):
        ring = ring_of(rec)
        return {"ring": ring, "graded": graded_of(ring, rec["grading"]),
                "I": polys(ring, rec["I"]), "sup": polys(ring, rec["sup"]),
                "K": polys(ring, rec["K"]),
                "Jm": parse_polynomial(rec["Jm"], ring)}

    def _star(self, t, J, graded):
        basis(t, J)
        with t.span("grading.star"):
            return star(J, graded)

    def op(self, item, t):
        ring, graded = item["ring"], item["graded"]
        I = Ideal(ring, item["I"])
        K = Ideal(ring, item["K"])
        Jm = item["Jm"]
        S = self._star(t, I, graded)
        laws = [self._star(t, S, graded) == S, S <= I]
        laws.append(S <= self._star(
            t, ideal_sum(I, Ideal(ring, item["sup"])), graded))
        with t.span("groebner.intersect"):
            IK = intersect(I, K)
        star_K = self._star(t, K, graded)
        with t.span("groebner.intersect"):
            S_K = intersect(S, star_K)
        laws.append(self._star(t, IK, graded) == S_K)
        with t.span("groebner.colon"):
            IJ = colon(I, Jm)
        with t.span("groebner.colon"):
            SJ = colon(S, Jm)
        laws.append(self._star(t, IJ, graded) == SJ)
        return {"star": gens_of(S), "laws": laws}

    def check(self, item, out):
        return all(out["laws"])

    def cli_doc(self, rec):
        return _job_doc(rec, "star", ["I"])


# ---------------------------------------------------------------------------
# oracle_diff

class OracleDiff:
    """One op is oracle_compare at D = 8 against a star computed in
    setup; about one op in MUTATE_EVERY gets the star with its last
    generator dropped and must come back `fail` with a witness."""

    name = "oracle_diff"
    pool_size = 640
    bound = gen.ORACLE_BOUND

    def prepare_pool(self, records):
        """Stars for every record; records whose star needs generators
        above D - 2 are dropped (the verdict would be a vacuous `error`).
        The first eligible record at or after every MUTATE_EVERY-th slot
        gets the mutated star."""
        items, mutated = [], 0
        for rec in records:
            ring = ring_of(rec)
            graded = graded_of(ring, rec["grading"])
            I = Ideal(ring, polys(ring, rec["I"]))
            if I.is_unit:
                continue
            S = star(I, graded)
            gens = S.canonical_generators()
            if max((g.total_degree() for g in gens), default=0) \
                    > self.bound - 2:
                continue
            item = {"ring": ring, "graded": graded, "I": I, "star": S,
                    "kind": rec["kind"], "mutated": False}
            if mutated < (len(items) + 1) // gen.MUTATE_EVERY:
                corrupted = self._mutation(ring, S, gens)
                if corrupted is not None:
                    item["star"], item["mutated"] = corrupted, True
                    mutated += 1
            items.append(item)
        return items

    def _mutation(self, ring, S, gens):
        if len(gens) < 2:
            return None
        corrupted = Ideal(ring, gens[:-1])
        if corrupted == S or max(g.total_degree() for g in
                                 corrupted.canonical_generators()) \
                > self.bound - 2:
            return None
        return corrupted

    def op(self, item, t):
        I, graded = item["I"], item["graded"]
        if t.enabled:
            kind = "monomial" if I.is_monomial else "general"
            with t.span(f"oracle.basis_{kind}"):
                B = truncated_star_basis(I, graded, self.bound)
            t.count("oracle.space_dim", B.space.dimension)
            t.count("oracle.basis_dim", B.dimension)
        with t.span("oracle.compare"):
            verdict = oracle_compare(I, graded, self.bound,
                                     star_ideal=item["star"])
        return verdict.to_payload()

    def check(self, item, out):
        if item["mutated"]:
            return out["verdict"] == "fail" and out["witness"] is not None
        return out["verdict"] == "pass"

    def cli_doc(self, rec):
        return _job_doc(rec, "oracle", ["I"], {"degree_bound": self.bound})


# ---------------------------------------------------------------------------
# decomp

def _classical(split):
    return lambda I, graded: monomial_primary_decomposition(I, split=split)


# op name -> (span, call); the grading argument is unused by the
# classical entry points.
_DECOMP = {
    "classical_first": ("decomposition.monomial", _classical("first")),
    "classical_last": ("decomposition.monomial", _classical("last")),
    "univariate": ("decomposition.univariate",
                   lambda I, graded: univariate_primary_decomposition(I)),
    "gdecomp": ("gtheory.gdecomp", g_primary_decomposition),
    "g_ass": ("gtheory.gass", g_associated_primes),
    "g_min": ("gtheory.gmin", g_minimal_primes),
}


class Decomp:
    """One op is one decomposition entry point on a fresh ideal: monomial
    primary decomposition with either split order, G-primary
    decomposition, G-associated or G-minimal primes, or univariate
    primary decomposition."""

    name = "decomp"
    pool_size = 9000
    check_sample = 12

    def prepare(self, rec):
        ring = ring_of(rec)
        graded = graded_of(ring, rec["grading"]) if "grading" in rec else None
        return {"op": rec["op"], "ring": ring, "graded": graded,
                "I": polys(ring, rec["I"])}

    def op(self, item, t):
        span, call = _DECOMP[item["op"]]
        I = basis(t, Ideal(item["ring"], item["I"]))
        with t.span(span):
            result = call(I, item["graded"])
        if isinstance(result, list):
            return [gens_of(P) for P in result]
        t.count("decomposition.components", len(result.components))
        return [[gens_of(c.component),
                 gens_of(getattr(c, "radical", None) or c.g_radical),
                 c.status] for c in result.components]

    def check(self, item, out):
        return bool(out)

    def deep_check(self, item):
        """Decomposition.check() / GDecomposition.check(): the structural
        invariants, run on a fixed sample outside the timed region."""
        result = _DECOMP[item["op"]][1](Ideal(item["ring"], item["I"]),
                                        item["graded"])
        if not isinstance(result, list):
            result.check()

    def cli_doc(self, rec):
        op = "decompose" if rec["op"] == "univariate" else "gdecomp"
        return _job_doc(rec, op, ["I"])


# ---------------------------------------------------------------------------
# jobs

_FITTING = {"fitting": "fitting.fitting", "graded_check":
            "fitting.graded_check"}


class Jobs:
    """One op is parse_job -> execute_job -> render_result on a generated
    document, exactly what `grady run` does minus the interpreter start."""

    name = "jobs"
    pool_size = 4000

    def prepare(self, rec):
        command = json.loads(rec["doc"])["command"]
        return {"doc": rec["doc"], "expect": rec["expect"],
                "fmt": command["options"].get("format", "json"),
                "layer": _FITTING.get(command["op"])}

    def op(self, item, t):
        try:
            with t.span("jobs.parse"):
                job = parse_job(item["doc"])
        except JobError as exc:
            doc = ResultDocument("error", {"reason": "input-error",
                                           "detail": str(exc)}, 0.0, "error")
            with t.span("jobs.render"):
                text = doc.to_json()
            return {"exit": doc.exit_code, "out": text}
        with t.span("jobs.execute"):
            if item["layer"]:
                with t.span(item["layer"]):
                    doc = execute_job(job)
            else:
                doc = execute_job(job)
        with t.span("jobs.render"):
            text = render_result(doc, item["fmt"])
        return {"exit": doc.exit_code, "out": text}

    def check(self, item, out):
        return out["exit"] == item["expect"] and \
            "internal-error" not in out["out"]

    def cli_doc(self, rec):
        return rec["doc"] if rec["expect"] == 0 else None

    def cli_expect(self, doc):
        """What `grady run` must print for a document: the in-process
        rendering."""
        return self.op(self.prepare({"doc": doc, "expect": 0}), OFF)["out"]


WORKLOADS = {w.name: w for w in (StarCalculus(), OracleDiff(), Decomp(),
                                 Jobs())}
