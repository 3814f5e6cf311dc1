"""The benchmark's committed expected outputs, replayed as tests.

Every suite operation of the operators, modules and integrals workloads, and
every query of the session pool, is run again through `bench/expect.py` and
compared byte for byte with `bench/expected/<workload>.json`.  A change that
alters any report of the benchmark's verdict gate fails here.  Nothing under
`bench/` is written: its modules are imported without bytecode caches.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def expect():
    sys.path.insert(0, str(BENCH))
    writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import expect
    finally:
        sys.dont_write_bytecode = writes_bytecode
        sys.path.remove(str(BENCH))
    return expect


@pytest.mark.parametrize("workload", ["operators", "modules", "integrals", "session"])
def test_expected_outputs_replay(expect, workload):
    expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
    workloads = expect.workloads
    if workload == "session":
        got = {workloads.query_key(argv): expect.run_query(argv)
               for argv in workloads.session_pool()}
    else:
        got = {key: expect.run_suite_op(suite, cell, k_max, 0)
               for key, suite, cell, k_max in workloads.suite_operations(workload)}
    assert got.keys() == expected.keys()
    for key, output in got.items():
        assert output == expected[key], key
