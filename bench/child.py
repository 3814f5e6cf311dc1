"""One cold benchmark child: import superh, run one workload, check its verdicts.

    python3 bench/child.py SPAWN_TIME WORKLOAD SEED STREAM TRACE EXPECTED_JSON

`run.py` starts it with `src` on PYTHONPATH and SPAWN_TIME set to its
`time.perf_counter()` just before the start (CLOCK_MONOTONIC, shared by all
processes).  WORKLOAD `setup` only measures set-up.  The last line of stdout
is one JSON object with this child's measurements: every time both as wall
time (`*_wall_s`) and at the reference speed of speed.py.
"""

import sys
import time

from speed import SpeedProbe

SPAWN = float(sys.argv[1])
PROBE = SpeedProbe()
PROBE.start()
import superh.cli  # noqa: E402  (set-up ends when this import returns)
SETUP_END = time.perf_counter()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def operations(workload: str, seed: int, stream: int) -> list[tuple[str, object]]:
    """(expected-output key, thunk) for every operation, in run order.

    The thunks look up the package functions when called, so that a tracer
    installed after this list is built still sees every call.
    """
    from superh import checks
    report_to_json = superh.cli.report_to_json

    def suite_call(suite, cell, k_max):
        kwargs = workloads.suite_kwargs(suite, seed)
        return lambda: report_to_json(getattr(checks, f"suite_{suite}")([cell], k_max, **kwargs))

    def query_call(argv):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = superh.cli.main(list(argv))
            return [code, buf.getvalue()]
        return run

    if workload == "session":
        return [(workloads.query_key(argv), query_call(argv))
                for argv in workloads.session_queries(seed, stream)]
    return [(key, suite_call(suite, cell, k_max))
            for key, suite, cell, k_max in workloads.suite_operations(workload)]


def cache_stats() -> dict[str, list[int]]:
    """[hits, misses, entries] of every lru_cache in the package."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"superh.{layer}")
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                info = obj.cache_info()
                out[name] = [info.hits, info.misses, info.currsize]
    return out


def run(workload: str, seed: int, stream: int, trace: bool, expected_path: str) -> dict:
    with open(expected_path) as fh:
        expected = json.load(fh)
    ops = operations(workload, seed, stream)
    tracer = Tracer().install() if trace else None
    spans = []
    mismatches = []
    clock = time.perf_counter
    for key, thunk in ops:
        t0 = clock()
        try:
            output = thunk()
        except Exception as exc:  # a crash is a wrong verdict, not a lost run
            output = f"{type(exc).__name__}: {exc}"
        spans.append((t0, clock()))
        if expected.get(key) != output:
            mismatches.append(key)
    PROBE.stop()
    result = {
        **setup_result(),
        "verdict_wall_s": spans[-1][1] - spans[0][0],
        "latencies_s": [PROBE.reference_time(t0, t1) for t0, t1 in spans],
        "latencies_wall_s": [t1 - t0 for t0, t1 in spans],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(ops),
        "failed": len(mismatches),
        "mismatches": mismatches[:5],
        "cache": cache_stats(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.uninstall()
    return result


def setup_result() -> dict:
    return {"setup_s": PROBE.reference_time(SPAWN, SETUP_END),
            "setup_wall_s": SETUP_END - SPAWN}


def main(argv: list[str]) -> int:
    workload, seed, stream = argv[1], int(argv[2]), int(argv[3])
    trace, expected_path = argv[4] == "1", argv[5]
    if workload == "setup":
        PROBE.stop()
        result = setup_result()
    else:
        result = run(workload, seed, stream, trace, expected_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
