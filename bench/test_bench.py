"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

from superh import (checks, cli, diffops, harmonic, integration, linalg,  # noqa: E402
                    modules, superalgebra)


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_counts_a_call_in_every_layer(tracer, capsys):
    x = superalgebra.parse("x1^2 - xg1*xg2")
    diffops.nabla2(2, 1).apply(x)
    linalg.rank_of_vectors([{0: Fraction(1)}], 1)
    harmonic.dim_Hk(2, 1, 2)
    integration.pizzetti(x, 2, 1)
    modules.simple_dim(2, 1, 2)
    checks.suite_dims([(2, 1)], 1)
    cli.main(["dims", "-m", "2", "-n", "1", "-k", "1", "--format", "json"])
    capsys.readouterr()
    for key in ("superalgebra.parse", "superalgebra.SuperPolynomial.__mul__",
                "diffops.nabla2", "diffops.Add.apply", "linalg.rank_of_vectors",
                "harmonic.dim_Hk", "integration.pizzetti", "modules.simple_dim",
                "checks.suite_dims", "cli.main", "cli.cmd_dims"):
        assert tracer.calls[key] >= 1, key
    assert {key.split(".")[0] for key, n in tracer.calls.items() if n} == set(LAYERS)
    # suite_dims reaches harmonic_basis through the name checks imported.
    assert tracer.entries["harmonic.harmonic_basis"] >= 1


def test_tracer_rebinds_imported_names_and_keeps_cache_info(tracer):
    assert checks.harmonic_basis is harmonic.harmonic_basis
    assert checks.harmonic_basis.__wrapped__ is not None
    assert hasattr(checks.harmonic_basis, "cache_info")
    assert hasattr(modules.SuperPolynomial.__mul__, "__wrapped__")
    tracer.uninstall()
    assert not hasattr(checks.suite_dims, "__wrapped__")
    assert not hasattr(modules.SuperPolynomial.__mul__, "__wrapped__")


def test_layer_self_times_add_up_to_the_traced_call(tracer):
    start = time.perf_counter()
    checks.suite_integrals([(2, 1)], 3)
    elapsed = time.perf_counter() - start
    metrics = tracer.metrics()
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert 0.95 * elapsed <= total <= elapsed
    assert metrics["integration.pizzetti_calls"] > 0
    assert metrics["superalgebra.deriv_calls"] > 0


def test_session_queries_are_seeded_and_covered_by_the_expectations():
    first = workloads.session_queries(7)
    assert first == workloads.session_queries(7)
    assert first != workloads.session_queries(8)
    assert len(first) == workloads.SESSION_QUERIES
    kinds = Counter("irreducibility" if argv[0] == "check" else argv[0] for argv in first)
    total = sum(workloads.QUERY_WEIGHTS.values())
    for kind, weight in workloads.QUERY_WEIGHTS.items():
        assert abs(kinds[kind] - workloads.SESSION_QUERIES * weight / total) <= 1
    for argv in first:
        if argv[0] == "integrate":
            assert argv[-2] == "--"
    expected = json.loads((BENCH / "expected" / "session.json").read_text())
    assert set(expected) == {workloads.query_key(a) for a in workloads.session_pool()}


def test_suite_expectations_cover_every_operation():
    for workload in workloads.SUITE_WORKLOADS:
        expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
        keys = [op[0] for op in workloads.suite_operations(workload)]
        assert sorted(keys) == sorted(expected)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_tampered_expectation_makes_the_run_refuse(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(BENCH / "expected", expected)
    path = expected / "integrals.json"
    outputs = json.loads(path.read_text())
    key = sorted(outputs)[0]
    outputs[key] = outputs[key].replace('"pass"', '"fail"', 1)
    path.write_text(json.dumps(outputs))
    proc = run_bench(BENCH.parent, "--workload", "integrals", "--seed", "1",
                     "--seconds", "1", "--trace", "0", "--expected", str(expected))
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"] == {}
    assert "verdict gate" in proc.stderr


def test_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "integrals", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
