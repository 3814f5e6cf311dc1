"""The superh benchmark: cold-process workloads behind a verdict gate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads (see workloads.py):

  operators  suite_sl2, suite_lb, suite_projections on m = 1..4, n = 0..2, k <= 4
  modules    suite_irreducibility, suite_windows (m = 2..4, n = 1..2, k <= 6) and
             suite_branching (m = 2..4, n = 0..2) with the explicit cells of
             acceptance criterion 10
  integrals  suite_integrals on m = 1..4, n = 0..2, k <= 6
  session    one process answering ~400 seeded `superh` CLI queries in a
             closed loop with one client

Each measurement comes from a fresh interpreter (bench/child.py), started one
at a time with SUPERH_THREADS removed, PYTHONHASHSEED fixed and bytecode
caching off, so every child starts with cold caches as a CLI call does.  Children run until the next one
would overrun --seconds (at least one); in the session child j runs stream j
of the seed (workloads.py); metrics are medians over children.  Set-up is also sampled
by extra children that only import the package.

Times are reported at the reference speed of speed.py: the machine's speed
changes by up to 2x from second to second, so each child samples it every
10 ms and scales each operation's wall time accordingly.  Wall times are
printed beside them.  verdict_s is the sum of a child's operation latencies,
query_p50_ms and query_p90_ms are percentiles over its operations (suite
cells or CLI queries), setup_s runs from the child's start until
`import superh.cli` returns, peak_rss_mb is the child's ru_maxrss.

Every operation's output (a suite report serialised with report_to_json, or a
query's exit code and stdout) is compared with bench/expected/<workload>.json.
If any differs, the run records no timing: it prints the failure count with
empty metrics and exits 1.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced children (tracer.py) and reports the per-layer metrics; every metric,
end-to-end ones included, is printed by name and unit above the final JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
CACHE_FUNCTIONS = ("harmonic_basis", "decompose_Hk", "osp_generator",
                   "laplace_beltrami", "monomial_basis")
END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "query_p50_ms": "ms",
                    "query_p90_ms": "ms", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SUPERH_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    # Every child compiles the package from source, as in a fresh checkout,
    # and nothing is written under src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(workload: str, seed: int, stream: int, trace: bool,
              expected: Path) -> tuple[dict, float]:
    """Start one child, wait for it, return its result and its wall time."""
    start = time.perf_counter()
    argv = [sys.executable, str(BENCH / "child.py"), repr(start), workload, str(seed),
            str(stream), "1" if trace else "0", str(expected)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload} child exceeded {CHILD_TIMEOUT_S} s") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{workload} child exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def run_children(workload: str, seed: int, seconds: float, trace: bool,
                 expected: Path) -> tuple[list[dict], list[dict], list[dict]]:
    """Untraced children (and, with trace, traced ones in alternation) for `seconds`.

    A child starts only if the last one of its kind would still fit in the
    time left; each kind runs at least once.  Stops at the first child whose
    verdicts differ from the expected ones.
    """
    run_child("setup", seed, 0, False, expected)  # warms the file cache; not measured
    setups = [run_child("setup", seed, 0, False, expected)[0] for _ in range(SETUP_PROBES)]
    runs: dict[bool, list[dict]] = {False: [], True: []}
    last = {False: 0.0, True: 0.0}
    kinds = (False, True) if trace else (False,)
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [k for k in kinds if not runs[k] or last[k] <= left]
        if not fits:
            break
        kind = min(fits, key=lambda k: len(runs[k]))
        result, last[kind] = run_child(workload, seed, len(runs[kind]), kind, expected)
        runs[kind].append(result)
        setups.append(result)
        if result["failed"]:
            break
    return runs[False], runs[True], setups


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(plain: list[dict], setups: list[dict], wall: bool = False) -> dict[str, float]:
    """Medians over children; with `wall`, of wall times instead of reference ones."""
    med = statistics.median
    lat = "latencies_wall_s" if wall else "latencies_s"
    out = {
        "setup_s": med(s["setup_wall_s" if wall else "setup_s"] for s in setups),
        "verdict_s": med(sum(c[lat]) for c in plain),
        "query_p50_ms": med(med(c[lat]) for c in plain) * 1e3,
        "query_p90_ms": med(p90(c[lat]) for c in plain) * 1e3,
    }
    if not wall:
        out["peak_rss_mb"] = med(c["peak_rss_mb"] for c in plain)
    return out


def cache_metrics(child: dict) -> dict[str, float]:
    stats = child["cache"]

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    out = {"cache.hit_ratio": ratio(sum(s[0] for s in stats.values()),
                                    sum(s[1] for s in stats.values())),
           "cache.entries": sum(s[2] for s in stats.values())}
    for name in CACHE_FUNCTIONS:
        out[f"cache.{name}.hit_ratio"] = ratio(*stats[name][:2])
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    med = statistics.median
    out = {name: med(c["layers"][name] for c in traced) for name in traced[0]["layers"]}
    caches = [cache_metrics(c) for c in plain]
    out.update({name: med(c[name] for c in caches) for name in caches[0]})
    out["trace.overhead_ratio"] = (med(sum(c["latencies_s"]) for c in traced)
                                   / med(sum(c["latencies_s"]) for c in plain))
    out["trace.accounted_ratio"] = med(
        sum(c["layers"][f"{layer}.self_s"] for layer in LAYERS) / c["verdict_wall_s"]
        for c in traced)
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_useful")):
        return "1"
    return "count"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "superh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, numpy_version: str | None) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "git_sha": git_sha(),
            "src_sha256": source_digest(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": bool(args.trace),
            "grid": workloads.describe(args.workload)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=BENCH / "expected",
                        help="directory of expected outputs (default: bench/expected)")
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "superh" / "__init__.py").is_file():
        print(f"error: no superh package under {SRC}", file=sys.stderr)
        return 2
    expected = args.expected / f"{args.workload}.json"
    try:
        plain, traced, setups = run_children(args.workload, args.seed, args.seconds,
                                             bool(args.trace), expected)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    children = plain + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print("provenance " + json.dumps(provenance(args, children[0]["numpy"])))
    print(f"children: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up samples; {attempted} operations")
    print(f"  {'failed_ratio':32s} {failed / attempted:12.6g} 1")
    if failed:
        first = next(c for c in children if c["failed"])
        print(f"verdict gate: {failed} of {attempted} outputs differ from {expected}; "
              f"first: {first['mismatches']}; no timing recorded", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    metrics = end_to_end(plain, setups)
    wall = end_to_end(plain, setups, wall=True)
    if traced:
        metrics.update(per_layer(plain, traced))
    for name, value in metrics.items():
        note = f"   (wall {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:32s} {value:12.6g} {unit_of(name)}{note}")
    if args.trace:
        metrics = {k: v for k, v in metrics.items() if k not in END_TO_END_UNITS}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
