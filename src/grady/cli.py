"""Command-line front end.

grady run <jobfile>      execute one job document ("-" reads stdin)
grady verify <jobfile>   theorem suite + truncation oracle per ideal
grady selftest           full acceptance suite, one line per criterion

Results go to stdout; timing and diagnostics go to stderr.  The exit
code is read off the result document (ResultDocument.exit_code): 0 ok,
1 internal failure or failed verification, 2 input error, 3 unsupported
class or over a budget.
"""

from __future__ import annotations

import argparse
import sys

from .jobs import (JobError, ResultDocument, execute_job, parse_job,
                   render_result, verify_document)


def _read_source(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeError) as exc:
        raise JobError("$", f"cannot read job file: {exc}")


def _cmd_job(args):
    """grady run and grady verify: one document in, one document out."""
    try:
        job = parse_job(_read_source(args.jobfile))
    except JobError as exc:
        doc = ResultDocument("error",
                             {"reason": "input-error", "detail": str(exc)},
                             0.0, "error")
        print(doc.to_json())
        print(str(exc), file=sys.stderr)
        return doc.exit_code
    # looked up per call, so verify_document can be replaced in tests
    doc = (execute_job if args.cmd == "run" else verify_document)(job)
    print(render_result(doc, args.format or job.options.get("format", "json")))
    print(f"# elapsed_ms={doc.timing_ms:.1f}", file=sys.stderr)
    return doc.exit_code


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

    for cmd, what in (("run", "execute a job document"),
                      ("verify", "run the theorem suite and oracle on a "
                                 "job's ideals")):
        p_job = sub.add_parser(cmd, help=what)
        p_job.add_argument("jobfile",
                           help='path to a JSON job, or "-" for stdin')
        p_job.add_argument("--format", choices=("json", "text"), default=None)
        p_job.set_defaults(fn=_cmd_job)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
