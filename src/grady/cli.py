"""Command-line front end.

grady run <jobfile>      execute one job document ("-" reads stdin)
grady verify <jobfile>   theorem suite + truncation oracle per ideal
grady selftest           full acceptance suite, one line per criterion

Results go to stdout; timing and diagnostics go to stderr.  Exit codes:
0 ok, 1 internal failure or failed verification, 2 input error,
3 unsupported class.
"""

from __future__ import annotations

import argparse
import sys

from .jobs import (JobError, ResultDocument, execute_job, parse_job,
                   render_result, verify_document)


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_job(path):
    try:
        text = _read_source(path)
    except OSError as exc:
        print(f"cannot read job file: {exc}", file=sys.stderr)
        return None, 2
    try:
        job = parse_job(text)
    except JobError as exc:
        doc = ResultDocument("error",
                             {"reason": "input-error", "detail": str(exc)},
                             0.0, "error")
        print(doc.to_json())
        print(str(exc), file=sys.stderr)
        return None, 2
    return job, 0


def _emit(doc, fmt):
    print(render_result(doc, fmt))
    print(f"# elapsed_ms={doc.timing_ms:.1f}", file=sys.stderr)


def _cmd_run(args):
    job, code = _load_job(args.jobfile)
    if job is None:
        return code
    doc = execute_job(job)
    fmt = args.format or job.options.get("format", "json")
    _emit(doc, fmt)
    return doc.exit_code


def _cmd_verify(args):
    job, code = _load_job(args.jobfile)
    if job is None:
        return code
    doc = verify_document(job)
    fmt = args.format or job.options.get("format", "json")
    _emit(doc, fmt)
    return 1 if doc.payload.get("failed") else 0


def _cmd_selftest(args):
    from .selftest import run_all

    results = run_all(seed=args.seed)
    ok = True
    for r in results:
        ok = ok and r.passed
        line = f"criterion {r.index:2d} [{'pass' if r.passed else 'FAIL'}] " \
               f"{r.name}: {r.detail} ({r.seconds:.2f}s)"
        print(line)
    print("all criteria passed" if ok else "FAILURES present")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="grady",
        description="graded-ring ideal calculus: star, G-primary "
                    "decomposition, Fitting ideals, truncation oracle")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="execute a job document")
    p_run.add_argument("jobfile", help='path to a JSON job, or "-" for stdin')
    p_run.add_argument("--format", choices=("json", "text"), default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_verify = sub.add_parser(
        "verify", help="run the theorem suite and oracle on a job's ideals")
    p_verify.add_argument("jobfile")
    p_verify.add_argument("--format", choices=("json", "text"), default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
