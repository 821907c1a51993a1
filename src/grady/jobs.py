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
from .groebner import (GREVLEX, GroebnerBasis, Ideal, colon, eliminate,
                       intersect, radical_membership, saturate, saturate_ideal)
from .gtheory import (g_associated_primes, g_minimal_primes,
                      g_primary_decomposition, g_radical, is_g_primary,
                      is_g_prime, is_g_radical, verify_theorem_suite)
from .oracle import oracle_compare
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
    m = isinstance(text, str) and re.fullmatch(r"F([0-9]+)", text)
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
    if type(free_rank) is not int or free_rank < 0:
        raise JobError(f"{path}.free_rank", "expected a nonnegative integer")
    torsion = _expect(data.get("torsion", []), f"{path}.torsion", list,
                      "a list of moduli")
    try:
        group = GradingGroup(free_rank, torsion)
    except (TypeError, ValueError) as exc:
        raise JobError(f"{path}.torsion", str(exc))
    degrees = _degrees(data.get("degrees", []), group, ring.nvars,
                       f"{path}.degrees")
    return GradedRing(ring, group, degrees)


def _degrees(data, group, count, path):
    """count degrees of group, each a [free, torsion] pair of lists."""
    _expect(data, path, list, "a list of degrees")
    if len(data) != count:
        raise JobError(path, f"expected {count} degrees, got {len(data)}")
    out = []
    for i, entry in enumerate(data):
        epath = f"{path}[{i}]"
        entry = _expect(entry, epath, list, "a [free, torsion] pair")
        if len(entry) != 2:
            raise JobError(epath, "expected a [free, torsion] pair")
        free, tors = entry
        _expect(free, f"{epath}[0]", list, "a list of integers")
        _expect(tors, f"{epath}[1]", list, "a list of residues")
        try:
            out.append(group.degree(free, tors))
        except (TypeError, ValueError) as exc:
            raise JobError(epath, str(exc))
    return out


def _parse_poly(text, ring, path):
    if not isinstance(text, str):
        raise JobError(path, "expected a polynomial string")
    try:
        return parse_polynomial(text, ring)
    except PolyParseError as exc:
        raise JobError(path, str(exc))


def _no_constant(name):
    raise JobError("$", f"invalid JSON: {name} is not a number")


def parse_job(text):
    try:
        data = json.loads(text, parse_constant=_no_constant)
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
        if type(rows) is not int or rows < 1:
            raise JobError(f"{mpath}.rows", "expected a positive integer")
        if type(cols) is not int or cols < 1:
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
        row_degrees, col_degrees = (
            None if spec.get(side) is None else
            _degrees(spec[side], graded.group, count, f"{mpath}.{side}")
            for side, count in (("row_degrees", rows), ("col_degrees", cols)))
        matrices[name] = PresentationMatrix(ring, grid, row_degrees,
                                            col_degrees)

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
    if options.get("format", "json") not in ("json", "text"):
        raise JobError("command.options.format", 'expected "json" or "text"')
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
    """Printed generators: a Groebner basis as it stands, an ideal by its
    canonical generators."""
    gb = I if isinstance(I, GroebnerBasis) else I.groebner(GREVLEX)
    return [str(g) for g in gb.by_lead_descending()]


# Result kind of a decomposition -> the key of its components' radicals.
_RADICAL_KEY = {"decomp": "radical", "gdecomp": "g_radical"}


def _decomposition_payload(dec, kind):
    return {"minimal": True,
            "components": [{"component": _gens_list(c.component),
                            _RADICAL_KEY[kind]: _gens_list(c.radical),
                            "status": c.status}
                           for c in dec.components]}


# Result kind -> payload builder for the value an op returns.
_PAYLOADS = {
    "ideal": lambda I: {"generators": _gens_list(I)},
    "bool": lambda value: {"value": value},
    "saturate": lambda result: {"generators": _gens_list(result[0]),
                                "exponent": result[1]},
    "primes": lambda primes: {"primes": [_gens_list(P) for P in primes]},
    "decomp": lambda dec: _decomposition_payload(dec, "decomp"),
    "gdecomp": lambda dec: _decomposition_payload(dec, "gdecomp"),
    "report": lambda report: report,
    "verdict": lambda verdict: verdict.to_payload(),
}


_EXPECTED = {"ideal": "expected an ideal name",
             "matrix": "expected a matrix name",
             "polynomial": "expected a polynomial string",
             "ideal-or-polynomial":
                 "expected an ideal name or a polynomial string"}


def _arg(job, i, kind):
    """Command argument i resolved as kind: "ideal" or "matrix" (a name
    in the document), "polynomial", "ideal-or-polynomial" (a name if it
    names an ideal, else a polynomial) or "integer"."""
    path = f"command.args[{i}]"
    if i >= len(job.args):
        what = "" if kind == "ideal-or-polynomial" else f"{kind} "
        raise JobError(path, f"missing {what}argument")
    token = job.args[i]
    if kind != "integer" and not isinstance(token, str):
        raise JobError(path, _EXPECTED[kind])
    if kind in ("ideal", "matrix"):
        named = job.ideals if kind == "ideal" else job.matrices
        if token not in named:
            raise JobError(path, f"no {kind} named {token!r}")
        return named[token]
    if kind == "integer":
        # a JSON integer or a string int() reads; a float or a bool is
        # refused, not truncated
        if type(token) is int:
            return token
        if isinstance(token, str):
            try:
                return int(token)
            except ValueError:
                pass
        raise JobError(path, "expected an integer")
    if kind == "ideal-or-polynomial" and token in job.ideals:
        return job.ideals[token]
    return _parse_poly(token, job.ring, path)


def _groebner(job):
    # The order option is read before the ideal is resolved, so a
    # document with both faults reports the order.
    name = job.options.get("order", "grevlex")
    if name not in ("grevlex", "lex"):
        raise JobError("command.options.order", 'expected "grevlex" or "lex"')
    order = GREVLEX if name == "grevlex" else LEX
    return _arg(job, 0, "ideal").groebner(order)


def _saturate(job, I, by):
    if isinstance(by, Ideal):
        return saturate_ideal(I, by), None
    return saturate(I, by)


def _eliminate(job, I):
    if len(job.args) < 2:
        raise JobError("command.args", "eliminate needs variable names")
    for i, v in enumerate(job.args[1:], start=1):
        if v not in job.ring.variables:
            raise JobError(f"command.args[{i}]", f"unknown variable {v!r}")
    return eliminate(I, job.args[1:])


def _oracle_verdict(job, I):
    """Oracle comparison of I against its star, up to the job's
    degree_bound (oracle_compare's default when absent)."""
    return oracle_compare(I, job.graded, job.options.get("degree_bound"))


def _graded(fn):
    """Op function for fn(argument, grading)."""
    return lambda job, x: fn(x, job.graded)


def _plain(fn):
    """Op function for fn(arguments...), which needs nothing else."""
    return lambda job, *args: fn(*args)


_IDEAL = ("ideal",)

# op -> (function of the job and its resolved arguments, argument kinds,
# result kind).
OPS = {
    "groebner": (_groebner, (), "ideal"),
    "star": (_graded(star), _IDEAL, "ideal"),
    "is_g_ideal": (_graded(is_g_ideal), _IDEAL, "bool"),
    "grad": (_graded(g_radical), _IDEAL, "ideal"),
    "is_g_radical": (_graded(is_g_radical), _IDEAL, "bool"),
    "is_g_prime": (_graded(is_g_prime), _IDEAL, "bool"),
    "is_g_primary": (_graded(is_g_primary), _IDEAL, "bool"),
    "gdecomp": (_graded(g_primary_decomposition), _IDEAL, "gdecomp"),
    "decompose": (_plain(classical_decomposition), _IDEAL, "decomp"),
    "g_ass": (_graded(g_associated_primes), _IDEAL, "primes"),
    "g_min": (_graded(g_minimal_primes), _IDEAL, "primes"),
    "ass": (_plain(associated_primes), _IDEAL, "primes"),
    "min": (_plain(minimal_primes), _IDEAL, "primes"),
    "membership": (lambda job, I, f: I.contains(f),
                   ("ideal", "polynomial"), "bool"),
    "radical_membership": (lambda job, I, f: radical_membership(f, I),
                           ("ideal", "polynomial"), "bool"),
    "intersect": (_plain(intersect), ("ideal", "ideal"), "ideal"),
    "colon": (_plain(colon), ("ideal", "ideal-or-polynomial"), "ideal"),
    "saturate": (_saturate, ("ideal", "ideal-or-polynomial"), "saturate"),
    "eliminate": (_eliminate, _IDEAL, "ideal"),
    "fitting": (_plain(fitting_ideal), ("matrix", "integer"), "ideal"),
    "graded_check": (_graded(graded_matrix_check), ("matrix",), "report"),
    "theorems": (_graded(verify_theorem_suite), _IDEAL, "report"),
    "oracle": (_oracle_verdict, _IDEAL, "verdict"),
}


def execute_job(job):
    start = time.perf_counter()
    try:
        fn, kinds, kind = OPS[job.op]
        args = [_arg(job, i, k) for i, k in enumerate(kinds)]
        payload = _PAYLOADS[kind](fn(job, *args))
        status = "ok"
    except UnsupportedClassError as exc:
        payload = {"reason": "unsupported-class", "detail": str(exc)}
        status, kind = "unsupported", "error"
    except ResourceLimitError as exc:
        payload = {"reason": "budget", "detail": str(exc)}
        status, kind = "unsupported", "error"
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
    if doc.kind in _RADICAL_KEY:
        key = _RADICAL_KEY[doc.kind]
        return "\n".join(
            _text_ideal(c["component"]) + " ⊣ "
            + _text_ideal(c[key]) for c in p["components"])
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
