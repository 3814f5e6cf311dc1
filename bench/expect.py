"""Write the expected outputs that the benchmark's verdict gate compares against.

    PYTHONPATH=src python3 bench/expect.py [workload ...]

Run it only at a commit whose verdicts are known to be right (the acceptance
tests pass there); the outputs are committed under bench/expected/.  For the
session workload it records every query that any seed can generate, so the
gate holds for every seed.  Every operation must succeed: a suite report that
does not pass, or a query whose exit code is not 0, aborts the script.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import workloads
from superh import checks, cli

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def run_suite_op(suite: str, cell: tuple[int, int], k_max: int, seed: int) -> str:
    fn = getattr(checks, f"suite_{suite}")
    return cli.report_to_json(fn([cell], k_max, **workloads.suite_kwargs(suite, seed)))


def run_query(argv: list[str]) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return [code, buf.getvalue()]


def expected_outputs(workload: str) -> dict:
    out = {}
    if workload == "session":
        for argv in workloads.session_pool():
            result = run_query(argv)
            if result[0] != 0:
                raise SystemExit(f"query exits {result[0]}: {argv}")
            out[workloads.query_key(argv)] = result
        return out
    for key, suite, cell, k_max in workloads.suite_operations(workload):
        text = run_suite_op(suite, cell, k_max, 0)
        if json.loads(text)["status"] not in ("pass", "degenerate"):
            raise SystemExit(f"suite does not pass: {key}")
        out[key] = text
    return out


def main(argv: list[str]) -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        start = time.perf_counter()
        outputs = expected_outputs(workload)
        path = EXPECTED_DIR / f"{workload}.json"
        path.write_text(json.dumps(outputs, indent=0, sort_keys=True) + "\n")
        print(f"{path.name}: {len(outputs)} outputs in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
