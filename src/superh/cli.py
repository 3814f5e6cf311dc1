"""Command line front end.

Subcommands: dims, check, integrate, decompose, branch, fischer.  Ranges are
written `a..b` (or a single integer).  Output formats: a human table (default),
`--format json` and `--format csv`; JSON reports round-trip bit-exactly through
`json.loads`.  Exit codes: 0 pass, 1 verification failure, 2 usage or parse
error.  `integrate`, `decompose` and `branch` answer for one cell and exit 2
when a range has several values.  `integrate` parses exponents and term
degrees up to MAX_DEGREE (64) and exits 2 when the polynomial uses a variable
outside (m|2n); an expression that starts with '-' goes after `--`, as in
`superh integrate -m 2 -n 1 -- "-x1^2"`.  A command that would build a
monomial basis larger than MAX_BASIS_DIM, or operator trees on more variables
m + 2n than that, exits 2 naming the limit; `check` tests its cells before any
work.  No check samples, so `check` has no seed.
When the reader of stdout closes it early (`superh dims ... | head -1`), the
rest of the output is dropped and the exit code is still the verdict's.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from .superalgebra import MAX_DEGREE, ParseError, parse
from .harmonic import decompose_Hk, dim_Hk, fischer
from .integration import pizzetti, supersphere_integral_phi
from .modules import branching, in_window, simple_dim
from .checks import Report, SUITES, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def parse_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError
            return list(range(lo_i, hi_i + 1))
        return [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; use N or A..B")


def _single_values(args, *names: str) -> list[int]:
    """The value of each named range; a range of several values is a usage error."""
    if any(len(getattr(args, name)) != 1 for name in names):
        flags = " ".join(f"-{name}" for name in names)
        raise ValueError(f"{args.cmd} answers for one cell: give {flags} single values")
    return [getattr(args, name)[0] for name in names]


def report_to_dict(report: Report) -> dict:
    return {
        "command": report.command,
        "parameters": {k: list(map(list, v)) if k == "cells" else v
                       for k, v in report.parameters.items()},
        "rows": report.rows,
        "status": report.status,
        "counterexample": report.counterexample,
    }


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, default=str)


def _row_keys(report: Report) -> list[str]:
    """Every key of every row, in order of first appearance."""
    return list(dict.fromkeys(key for row in report.rows for key in row))


def report_to_csv(report: Report) -> str:
    out = io.StringIO()
    keys = _row_keys(report)
    writer = csv.DictWriter(out, fieldnames=keys)
    writer.writeheader()
    for row in report.rows:
        writer.writerow({k: row.get(k, "") for k in keys})
    return out.getvalue()


def report_to_table(report: Report) -> str:
    lines = [f"{report.command}  [{report.status}]"]
    keys = _row_keys(report)
    if keys:
        widths = {k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in report.rows))
                  for k in keys}
        lines.append("  ".join(str(k).ljust(widths[k]) for k in keys))
        for row in report.rows:
            lines.append("  ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys))
    if report.counterexample:
        lines.append(f"counterexample: {report.counterexample}")
    return "\n".join(lines)


def emit(report: Report, fmt: str) -> None:
    """Print the report; a reader that closed stdout early drops the rest."""
    if fmt == "json":
        text = report_to_json(report) + "\n"
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        text = report_to_table(report) + "\n"
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the verdict stands; point stdout at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_dims(args) -> int:
    report = Report("dims", {"m": args.m, "n": args.n, "k": args.k})
    for m in args.m:
        for n in args.n:
            for k in args.k:
                row = {"m": m, "n": n, "k": k,
                       "dim_H": dim_Hk(m, n, k),
                       "dim_L": simple_dim(m, n, k),
                       "window": "yes" if in_window(m, n, k) else "no"}
                report.rows.append(row)
    emit(report, args.format)
    return report.exit_code


def cmd_check(args) -> int:
    cells = [(m, n) for m in args.m for n in args.n]
    k_max = max(args.k)
    report = run_suite(args.suite, cells, k_max)
    emit(report, args.format)
    return report.exit_code


def cmd_integrate(args) -> int:
    try:
        f = parse(args.expr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    m, n = _single_values(args, "m", "n")
    report = Report("integrate", {"expr": args.expr, "m": m, "n": n})
    a = pizzetti(f, m, n)
    b = supersphere_integral_phi(f, m, n)
    report.rows.append({"method": "pizzetti", "value": str(a),
                        "q": str(a.q), "h": a.h})
    report.rows.append({"method": "phi-sharp", "value": str(b),
                        "q": str(b.q), "h": b.h})
    if a != b:
        report.fail("the two integration routes disagree")
    emit(report, args.format)
    return report.exit_code


def cmd_decompose(args) -> int:
    m, n, k = _single_values(args, "m", "n", "k")
    report = Report("decompose", {"m": m, "n": n, "k": k})
    try:
        pieces = decompose_Hk(m, n, k)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for pc in pieces:
        report.rows.append({"l": pc.l, "p": pc.p, "q": pc.q, "dim": pc.dim})
    report.rows.append({"total": sum(pc.dim for pc in pieces),
                        "dim_H": dim_Hk(m, n, k)})
    emit(report, args.format)
    return report.exit_code


def cmd_branch(args) -> int:
    m, n, k = _single_values(args, "m", "n", "k")
    b = branching(m, n, k, explicit=args.explicit)
    report = Report("branch", {"m": m, "n": n, "k": k})
    if b.case == "not_completely_reducible":
        report.status = "degenerate"
        report.rows.append({"case": b.case})
    else:
        for l, d in b.branch:
            report.rows.append({"l": l, "dim": d})
        row = {"case": b.case, "total": sum(d for _, d in b.branch),
               "dim_L": simple_dim(m, n, k),
               "dim_identity": "pass" if b.dim_identity else "fail"}
        if b.explicit is not None:
            row["explicit"] = b.explicit
        report.rows.append(row)
        if not b.dim_identity or (b.explicit not in (None, "verified")):
            report.fail("branch verification failed")
    emit(report, args.format)
    return report.exit_code


def cmd_fischer(args) -> int:
    report = Report("fischer", {"m": args.m, "n": args.n, "k": args.k})
    for m in args.m:
        for n in args.n:
            for k in args.k:
                fd = fischer(m, n, k)
                report.rows.append({
                    "m": m, "n": n, "k": k,
                    "direct_sum": "yes" if fd.direct_sum else "no",
                    "blocks": " ".join(f"j={p.j}:dim={p.dim}" for p in fd.pieces),
                    "witness": fd.witness or "",
                })
    emit(report, args.format)
    return report.exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superh",
        description="Exact harmonic analysis on (m|2n) superspace")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p, need_k=True, k_default=None):
        p.add_argument("-m", type=parse_range, required=True,
                       help="bosonic dimension (N or A..B)")
        p.add_argument("-n", type=parse_range, required=True,
                       help="number of Grassmann pairs (N or A..B)")
        if need_k:
            kwargs = {"type": parse_range, "help": "degree (N or A..B)"}
            if k_default is None:
                kwargs["required"] = True
            else:
                kwargs["default"] = k_default
            p.add_argument("-k", **kwargs)
        p.add_argument("--format", choices=("human", "json", "csv"),
                       default="human")

    p = sub.add_parser("dims", help="dimension table of H_k and the simple module")
    add_common(p)

    p = sub.add_parser("check", help="run a named verification suite")
    p.add_argument("suite", choices=SUITES)
    add_common(p, k_default=[6])

    p = sub.add_parser("integrate", help="supersphere integral of a polynomial")
    p.add_argument("expr", help="polynomial, e.g. '2*x1^2 - xg1*xg2', with exponents "
                   f"and term degrees up to {MAX_DEGREE}; put an expression that "
                   "starts with '-' after '--'")
    add_common(p, need_k=False)

    p = sub.add_parser("decompose", help="joint eigenspace pieces of H_k")
    add_common(p)

    p = sub.add_parser("branch", help="branching of the simple module")
    add_common(p)
    p.add_argument("--explicit", action="store_true",
                   help="also verify the decomposition explicitly")

    p = sub.add_parser("fischer", help="radial decomposition of P_k")
    add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        # looked up per call, so a rebinding of cli.cmd_* is seen by a cached parser
        return globals()[f"cmd_{args.cmd}"](args)
    except (ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
