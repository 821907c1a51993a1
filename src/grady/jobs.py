"""Job documents: a single JSON object describing a ring, a grading,
named ideals and matrices, and one command to run against them.

Schema:
  ring     {"field": "Q" | "F<p>", "vars": [names]}
  grading  {"free_rank": r, "torsion": [m1, ...],
            "degrees": [[[free...], [torsion...]] per variable]}
            (optional; trivial grading when absent)
  ideals   {"name": ["poly", ...]}                       (optional)
  matrices {"name": {"rows": r, "cols": c,
                     "entries": [r*c polys row-major],
                     "row_degrees": [...], "col_degrees": [...]}}
  command  {"op": name, "args": [...], "options": {...}}

Torsion degree entries are residues and may exceed the modulus (they
reduce); a degree list of the wrong length is a schema error.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass

from .decomposition import (UnsupportedClassError, associated_primes,
                            classical_decomposition, minimal_primes)
from .fitting import PresentationMatrix, fitting_ideal, graded_matrix_check
from .grading import GradedRing, GradingGroup, is_g_ideal, star
from .groebner import (GREVLEX, Ideal, colon, eliminate, ideal_membership,
                       intersect, radical_membership, saturate, saturate_ideal)
from .gtheory import (g_associated_primes, g_minimal_primes,
                      g_primary_decomposition, g_radical, is_g_primary,
                      is_g_prime, is_g_radical, verify_theorem_suite)
from .oracle import oracle_compare, oracle_compare_rationals
from .poly import (GF, LEX, QQ, PolyParseError, PolynomialRing,
                   ResourceLimitError, parse_polynomial)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class JobError(ValueError):
    """Schema violation, reported with the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _expect(data, path, kind, what):
    if not isinstance(data, kind):
        raise JobError(path, f"expected {what}")
    return data


def _only_keys(data, path, allowed):
    for key in data:
        if key not in allowed:
            raise JobError(f"{path}.{key}", "unknown field")


@dataclass
class Job:
    ring: PolynomialRing
    graded: GradedRing
    ideals: dict
    matrices: dict
    op: str
    args: list
    options: dict


def _parse_field(text, path):
    if text == "Q":
        return QQ
    m = re.fullmatch(r"F([0-9]+)", text or "")
    if not m:
        raise JobError(path, 'field must be "Q" or "F<p>"')
    try:
        return GF(int(m.group(1)))
    except ValueError as exc:
        raise JobError(path, str(exc))


def _parse_grading(data, ring, path):
    if data is None:
        group = GradingGroup(0, ())
        return GradedRing(ring, group, [((), ())] * ring.nvars)
    _expect(data, path, dict, "an object")
    _only_keys(data, path, {"free_rank", "torsion", "degrees"})
    free_rank = data.get("free_rank", 0)
    if not isinstance(free_rank, int) or free_rank < 0:
        raise JobError(f"{path}.free_rank", "expected a nonnegative integer")
    torsion = _expect(data.get("torsion", []), f"{path}.torsion", list,
                      "a list of moduli")
    try:
        group = GradingGroup(free_rank, torsion)
    except ValueError as exc:
        raise JobError(f"{path}.torsion", str(exc))
    degrees = _expect(data.get("degrees", []), f"{path}.degrees", list,
                      "a list with one degree per variable")
    if len(degrees) != ring.nvars:
        raise JobError(f"{path}.degrees",
                       f"expected {ring.nvars} entries, got {len(degrees)}")
    coerced = []
    for i, entry in enumerate(degrees):
        epath = f"{path}.degrees[{i}]"
        entry = _expect(entry, epath, list, "a [free, torsion] pair")
        if len(entry) != 2:
            raise JobError(epath, "expected a [free, torsion] pair")
        free, tors = entry
        _expect(free, f"{epath}[0]", list, "a list of integers")
        _expect(tors, f"{epath}[1]", list, "a list of residues")
        try:
            coerced.append(group.degree(free, tors))
        except (TypeError, ValueError) as exc:
            raise JobError(epath, str(exc))
    return GradedRing(ring, group, coerced)


def _parse_poly(text, ring, path):
    if not isinstance(text, str):
        raise JobError(path, "expected a polynomial string")
    try:
        return parse_polynomial(text, ring)
    except PolyParseError as exc:
        raise JobError(path, str(exc))


def parse_job(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError("$", f"invalid JSON: {exc}")
    _expect(data, "$", dict, "a JSON object")
    _only_keys(data, "$",
               {"ring", "grading", "ideals", "matrices", "command"})

    ring_spec = _expect(data.get("ring"), "ring", dict, "an object")
    _only_keys(ring_spec, "ring", {"field", "vars"})
    fld = _parse_field(ring_spec.get("field"), "ring.field")
    names = _expect(ring_spec.get("vars"), "ring.vars", list,
                    "a list of variable names")
    if not names:
        raise JobError("ring.vars", "need at least one variable")
    for i, v in enumerate(names):
        if not isinstance(v, str) or not _NAME.match(v):
            raise JobError(f"ring.vars[{i}]", "not a valid variable name")
    if len(set(names)) != len(names):
        raise JobError("ring.vars", "duplicate variable name")
    ring = PolynomialRing(fld, names)

    graded = _parse_grading(data.get("grading"), ring, "grading")

    ideals = {}
    for name, gens in _expect(data.get("ideals", {}), "ideals", dict,
                              "an object").items():
        gens = _expect(gens, f"ideals.{name}", list,
                       "a list of polynomial strings")
        polys = [_parse_poly(g, ring, f"ideals.{name}[{i}]")
                 for i, g in enumerate(gens)]
        ideals[name] = Ideal(ring, polys)

    matrices = {}
    for name, spec in _expect(data.get("matrices", {}), "matrices", dict,
                              "an object").items():
        mpath = f"matrices.{name}"
        spec = _expect(spec, mpath, dict, "an object")
        _only_keys(spec, mpath,
                   {"rows", "cols", "entries", "row_degrees", "col_degrees"})
        rows = spec.get("rows")
        cols = spec.get("cols")
        if not isinstance(rows, int) or rows < 1:
            raise JobError(f"{mpath}.rows", "expected a positive integer")
        if not isinstance(cols, int) or cols < 1:
            raise JobError(f"{mpath}.cols", "expected a positive integer")
        entries = _expect(spec.get("entries"), f"{mpath}.entries", list,
                          "a row-major list of polynomial strings")
        if len(entries) != rows * cols:
            raise JobError(f"{mpath}.entries",
                           f"expected {rows * cols} entries, got "
                           f"{len(entries)}")
        grid = []
        for i in range(rows):
            grid.append([_parse_poly(entries[i * cols + j], ring,
                                     f"{mpath}.entries[{i * cols + j}]")
                         for j in range(cols)])
        degs = {}
        for side, count in (("row_degrees", rows), ("col_degrees", cols)):
            raw = spec.get(side)
            if raw is None:
                degs[side] = None
                continue
            raw = _expect(raw, f"{mpath}.{side}", list, "a list of degrees")
            if len(raw) != count:
                raise JobError(f"{mpath}.{side}",
                               f"expected {count} degrees, got {len(raw)}")
            out = []
            for i, entry in enumerate(raw):
                try:
                    out.append(graded.group.degree(entry[0], entry[1]))
                except (TypeError, ValueError, IndexError) as exc:
                    raise JobError(f"{mpath}.{side}[{i}]", str(exc))
            degs[side] = out
        matrices[name] = PresentationMatrix(ring, grid, degs["row_degrees"],
                                            degs["col_degrees"])

    command = _expect(data.get("command"), "command", dict, "an object")
    _only_keys(command, "command", {"op", "args", "options"})
    op = command.get("op")
    if not isinstance(op, str) or op not in OPS:
        known = ", ".join(sorted(OPS))
        raise JobError("command.op", f"unknown operation; known: {known}")
    args = _expect(command.get("args", []), "command.args", list,
                   "a list of argument strings")
    options = _expect(command.get("options", {}), "command.options", dict,
                      "an object")
    _only_keys(options, "command.options", {"order", "degree_bound", "format"})
    bound = options.get("degree_bound")
    if bound is not None and (type(bound) is not int or bound < 0):
        raise JobError("command.options.degree_bound",
                       "expected a natural number")
    return Job(ring, graded, ideals, matrices, op, list(args), dict(options))


# ---------------------------------------------------------------------------
# Result documents and rendering.

@dataclass
class ResultDocument:
    status: str               # ok | unsupported | error
    payload: object
    timing_ms: float = 0.0
    kind: str = "generic"     # steers the text renderer

    @property
    def exit_code(self):
        if self.status == "ok":
            return 0
        if self.status == "unsupported":
            return 3
        if isinstance(self.payload, dict) and \
                self.payload.get("reason") == "input-error":
            return 2
        return 1

    def to_json(self):
        return json.dumps({"status": self.status, "payload": self.payload},
                          sort_keys=True)


def _gens_list(I):
    return [str(g) for g in I.canonical_generators()]


def _ideal_payload(I):
    return {"generators": _gens_list(I)}


def _prime_list_payload(primes):
    return {"primes": [_gens_list(P) for P in primes]}


def _decomposition_payload(dec):
    return {"minimal": True,
            "components": [{"component": _gens_list(c.component),
                            "radical": _gens_list(c.radical),
                            "status": c.status}
                           for c in dec.components]}


def _gdecomposition_payload(gdec):
    return {"minimal": True,
            "components": [{"component": _gens_list(c.component),
                            "g_radical": _gens_list(c.g_radical),
                            "status": c.status}
                           for c in gdec.components]}


def _ideal_arg(job, i):
    if i >= len(job.args):
        raise JobError(f"command.args[{i}]", "missing ideal argument")
    name = job.args[i]
    if name not in job.ideals:
        raise JobError(f"command.args[{i}]", f"no ideal named {name!r}")
    return job.ideals[name]


def _poly_or_ideal_arg(job, i):
    if i >= len(job.args):
        raise JobError(f"command.args[{i}]", "missing argument")
    token = job.args[i]
    if token in job.ideals:
        return job.ideals[token]
    return _parse_poly(token, job.ring, f"command.args[{i}]")


def _poly_arg(job, i):
    if i >= len(job.args):
        raise JobError(f"command.args[{i}]", "missing polynomial argument")
    return _parse_poly(job.args[i], job.ring, f"command.args[{i}]")


def _matrix_arg(job, i):
    if i >= len(job.args):
        raise JobError(f"command.args[{i}]", "missing matrix argument")
    name = job.args[i]
    if name not in job.matrices:
        raise JobError(f"command.args[{i}]", f"no matrix named {name!r}")
    return job.matrices[name]


def _int_arg(job, i):
    if i >= len(job.args):
        raise JobError(f"command.args[{i}]", "missing integer argument")
    try:
        return int(job.args[i])
    except (TypeError, ValueError):
        raise JobError(f"command.args[{i}]", "expected an integer")


def _order_option(job):
    name = job.options.get("order", "grevlex")
    if name == "grevlex":
        return GREVLEX
    if name == "lex":
        return LEX
    raise JobError("command.options.order", 'expected "grevlex" or "lex"')


def _op_groebner(job):
    order = _order_option(job)
    gb = _ideal_arg(job, 0).groebner(order)
    elems = sorted(gb, key=lambda g: g.leading_monomial(order), reverse=True)
    return {"generators": [str(g) for g in elems]}, "ideal"


def _op_star(job):
    return _ideal_payload(star(_ideal_arg(job, 0), job.graded)), "ideal"


def _op_is_g_ideal(job):
    return {"value": is_g_ideal(_ideal_arg(job, 0), job.graded)}, "bool"


def _op_grad(job):
    return _ideal_payload(g_radical(_ideal_arg(job, 0), job.graded)), "ideal"


def _op_is_g_radical(job):
    return {"value": is_g_radical(_ideal_arg(job, 0), job.graded)}, "bool"


def _op_is_g_prime(job):
    return {"value": is_g_prime(_ideal_arg(job, 0), job.graded)}, "bool"


def _op_is_g_primary(job):
    return {"value": is_g_primary(_ideal_arg(job, 0), job.graded)}, "bool"


def _op_gdecomp(job):
    gdec = g_primary_decomposition(_ideal_arg(job, 0), job.graded)
    return _gdecomposition_payload(gdec), "gdecomp"


def _op_decompose(job):
    dec = classical_decomposition(_ideal_arg(job, 0))
    return _decomposition_payload(dec), "decomp"


def _op_g_ass(job):
    primes = g_associated_primes(_ideal_arg(job, 0), job.graded)
    return _prime_list_payload(primes), "primes"


def _op_g_min(job):
    primes = g_minimal_primes(_ideal_arg(job, 0), job.graded)
    return _prime_list_payload(primes), "primes"


def _op_ass(job):
    return _prime_list_payload(associated_primes(_ideal_arg(job, 0))), \
        "primes"


def _op_min(job):
    return _prime_list_payload(minimal_primes(_ideal_arg(job, 0))), "primes"


def _op_membership(job):
    I = _ideal_arg(job, 0)
    f = _poly_arg(job, 1)
    return {"value": ideal_membership(f, I)}, "bool"


def _op_radical_membership(job):
    I = _ideal_arg(job, 0)
    f = _poly_arg(job, 1)
    return {"value": radical_membership(f, I)}, "bool"


def _op_intersect(job):
    return _ideal_payload(intersect(_ideal_arg(job, 0),
                                    _ideal_arg(job, 1))), "ideal"


def _op_colon(job):
    return _ideal_payload(colon(_ideal_arg(job, 0),
                                _poly_or_ideal_arg(job, 1))), "ideal"


def _op_saturate(job):
    I = _ideal_arg(job, 0)
    by = _poly_or_ideal_arg(job, 1)
    if isinstance(by, Ideal):
        S, n = saturate_ideal(I, by), None
    else:
        S, n = saturate(I, by)
    payload = _ideal_payload(S)
    payload["exponent"] = n
    return payload, "saturate"


def _op_eliminate(job):
    I = _ideal_arg(job, 0)
    if len(job.args) < 2:
        raise JobError("command.args", "eliminate needs variable names")
    for i, v in enumerate(job.args[1:], start=1):
        if v not in job.ring.variables:
            raise JobError(f"command.args[{i}]", f"unknown variable {v!r}")
    return _ideal_payload(eliminate(I, job.args[1:])), "ideal"


def _op_fitting(job):
    M = _matrix_arg(job, 0)
    j = _int_arg(job, 1)
    return _ideal_payload(fitting_ideal(M, j)), "ideal"


def _op_graded_check(job):
    return graded_matrix_check(_matrix_arg(job, 0), job.graded), "report"


def _op_theorems(job):
    return verify_theorem_suite(_ideal_arg(job, 0), job.graded), "report"


def _oracle_verdict(job, I):
    """Oracle comparison of I against its star, up to the job's
    degree_bound (default: two above the star's top generator degree)."""
    S = star(I, job.graded)
    bound = job.options.get("degree_bound")
    if bound is None:
        gens = S.canonical_generators()
        bound = max((g.total_degree() for g in gens), default=0) + 2
    compare = oracle_compare_rationals if job.ring.field.characteristic == 0 \
        else oracle_compare
    return compare(I, job.graded, bound, star_ideal=S)


def _op_oracle(job):
    return _oracle_verdict(job, _ideal_arg(job, 0)).to_payload(), "verdict"


OPS = {
    "groebner": _op_groebner,
    "star": _op_star,
    "is_g_ideal": _op_is_g_ideal,
    "grad": _op_grad,
    "is_g_radical": _op_is_g_radical,
    "is_g_prime": _op_is_g_prime,
    "is_g_primary": _op_is_g_primary,
    "gdecomp": _op_gdecomp,
    "decompose": _op_decompose,
    "g_ass": _op_g_ass,
    "g_min": _op_g_min,
    "ass": _op_ass,
    "min": _op_min,
    "membership": _op_membership,
    "radical_membership": _op_radical_membership,
    "intersect": _op_intersect,
    "colon": _op_colon,
    "saturate": _op_saturate,
    "eliminate": _op_eliminate,
    "fitting": _op_fitting,
    "graded_check": _op_graded_check,
    "theorems": _op_theorems,
    "oracle": _op_oracle,
}


def execute_job(job):
    start = time.perf_counter()
    try:
        payload, kind = OPS[job.op](job)
        status = "ok"
    except UnsupportedClassError as exc:
        payload = {"reason": "unsupported-class", "detail": str(exc)}
        status, kind = "unsupported", "error"
    except ResourceLimitError as exc:
        payload = {"reason": "budget", "detail": str(exc)}
        status, kind = "unsupported", "error"
    except (JobError, PolyParseError) as exc:
        payload = {"reason": "input-error", "detail": str(exc)}
        status, kind = "error", "error"
    except (ValueError, ArithmeticError) as exc:
        payload = {"reason": "input-error", "detail": str(exc)}
        status, kind = "error", "error"
    except Exception as exc:   # pragma: no cover - defensive
        payload = {"reason": "internal-error",
                   "detail": f"{type(exc).__name__}: {exc}"}
        status, kind = "error", "error"
    elapsed = (time.perf_counter() - start) * 1000.0
    return ResultDocument(status, payload, elapsed, kind)


def verify_document(job):
    """Theorem suite plus oracle comparison for every named ideal.

    The document status stays "ok" whenever the checks themselves ran;
    failed checks are visible in the payload and in the exit code the
    CLI derives from it.
    """
    start = time.perf_counter()
    payload = {"ideals": {}}
    failed = False
    for name in sorted(job.ideals):
        I = job.ideals[name]
        entry = {}
        try:
            report = verify_theorem_suite(I, job.graded)
        except (UnsupportedClassError, ResourceLimitError) as exc:
            report = {"status": "unsupported", "checks": [],
                      "detail": str(exc)}
        except (ValueError, ArithmeticError) as exc:
            report = {"status": "error", "checks": [], "detail": str(exc)}
        entry["theorems"] = report
        failed = failed or report["status"] == "fail"

        try:
            verdict = _oracle_verdict(job, I)
            entry["oracle"] = verdict.to_payload()
            failed = failed or verdict.status == "fail"
        except (ValueError, ArithmeticError, ResourceLimitError) as exc:
            entry["oracle"] = {"verdict": "error", "reason": str(exc),
                               "witness": None}
        payload["ideals"][name] = entry
    payload["failed"] = failed
    elapsed = (time.perf_counter() - start) * 1000.0
    return ResultDocument("ok", payload, elapsed, "verify")


def _text_ideal(gens):
    return "(" + ", ".join(gens) + ")" if gens else "(0)"


def render_result(doc, fmt="json"):
    if fmt == "json":
        return doc.to_json()
    if fmt != "text":
        raise ValueError('format must be "json" or "text"')
    p = doc.payload
    if doc.status != "ok":
        lines = [f"{doc.status}: {p.get('reason', '')}"]
        if p.get("detail"):
            lines.append(p["detail"])
        return "\n".join(lines)
    if doc.kind == "ideal":
        return _text_ideal(p["generators"])
    if doc.kind == "bool":
        return "true" if p["value"] else "false"
    if doc.kind == "saturate":
        return (_text_ideal(p["generators"])
                + f"\nexponent: {p['exponent']}")
    if doc.kind == "primes":
        return "\n".join(_text_ideal(q) for q in p["primes"])
    if doc.kind == "gdecomp":
        return "\n".join(
            _text_ideal(c["component"]) + " ⊣ "
            + _text_ideal(c["g_radical"]) for c in p["components"])
    if doc.kind == "decomp":
        return "\n".join(
            _text_ideal(c["component"]) + " ⊣ "
            + _text_ideal(c["radical"]) for c in p["components"])
    if doc.kind == "report":
        lines = [f"status: {p['status']}"]
        for c in p["checks"]:
            detail = f" ({c['detail']})" if c.get("detail") else ""
            lines.append(f"{c['name']}: {c['status']}{detail}")
        return "\n".join(lines)
    if doc.kind == "verdict":
        lines = [f"verdict: {p['verdict']} ({p['reason']})"]
        if p.get("witness"):
            lines.append(f"witness: {p['witness']}")
        return "\n".join(lines)
    if doc.kind == "verify":
        lines = [f"failed: {'yes' if p['failed'] else 'no'}"]
        for name, entry in sorted(p["ideals"].items()):
            status = entry["theorems"]["status"]
            detail = entry["theorems"].get("detail")
            suffix = f" ({detail})" if detail else ""
            lines.append(f"[{name}] theorems: {status}{suffix}")
            for c in entry["theorems"].get("checks", []):
                lines.append(f"  {c['name']}: {c['status']}")
            oracle = entry.get("oracle", {})
            lines.append(f"[{name}] oracle: {oracle.get('verdict', 'n/a')} "
                         f"({oracle.get('reason', '')})")
        return "\n".join(lines)
    return json.dumps(p, sort_keys=True)
