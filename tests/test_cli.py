import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from superh.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    main,
    parse_range,
)
from superh.checks import SUITES, Report, run_suite
from superh.modules import MAX_EXPLICIT_WORK
from superh.superalgebra import MAX_BASIS_DIM, SuperPolynomial, dim_Pk, monomial_basis


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("0..3") == [0, 1, 2, 3]
    with pytest.raises(Exception):
        parse_range("3..0")
    with pytest.raises(Exception):
        parse_range("x")


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "-m", "2", "-n", "1", "-k", "0..3")
    assert code == EXIT_PASS
    lines = [l for l in out.splitlines() if l.strip().startswith("2  1  2")]
    assert lines and "7" in lines[0] and "6" in lines[0] and "yes" in lines[0]


def test_dims_classical(capsys):
    code, out, _ = run(capsys, "dims", "-m", "3", "-n", "0", "-k", "2", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    (row,) = doc["rows"]
    assert row["dim_H"] == 5 and row["dim_L"] == 5 and row["window"] == "no"


def test_dims_degree_zero(capsys):
    code, out, _ = run(capsys, "dims", "-m", "2", "-n", "1", "-k", "0", "--format", "json")
    (row,) = json.loads(out)["rows"]
    assert row["dim_H"] == 1 and row["dim_L"] == 1


def test_json_roundtrip_bit_exact(capsys):
    code, out, _ = run(capsys, "check", "windows", "-m", "2", "-n", "1", "-k", "3",
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert json.dumps(doc, sort_keys=True, default=str) + "\n" == out
    assert doc["status"] == "pass"
    assert any(r["k"] == 2 for r in doc["rows"])


def test_check_sl2(capsys):
    code, out, _ = run(capsys, "check", "sl2", "-m", "2", "-n", "1", "-k", "4")
    assert code == EXIT_PASS and "pass" in out


def test_check_irreducibility(capsys):
    code, out, _ = run(capsys, "check", "irreducibility", "-m", "3", "-n", "1",
                       "-k", "4", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert all(r["irreducible"] for r in doc["rows"])


def test_integrate_examples(capsys):
    code, out, _ = run(capsys, "integrate", "1", "-m", "3", "-n", "1", "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert all(r["q"] == "2" and r["h"] == 0 for r in doc["rows"])

    code, out, _ = run(capsys, "integrate", "x1^2", "-m", "2", "-n", "0", "--format", "json")
    doc = json.loads(out)
    assert all(r["q"] == "1" and r["h"] == 2 for r in doc["rows"])  # pi

    code, out, _ = run(capsys, "integrate", "xg1", "-m", "2", "-n", "1", "--format", "json")
    doc = json.loads(out)
    assert all(r["q"] == "0" for r in doc["rows"])


def test_integrate_parse_error(capsys):
    code, out, err = run(capsys, "integrate", "x1 + $", "-m", "2", "-n", "1")
    assert code == EXIT_USAGE


def test_usage_error_exit_code(capsys):
    assert main(["dims", "-m", "2"]) == EXIT_USAGE
    assert main(["check", "nosuch", "-m", "2", "-n", "1"]) == EXIT_USAGE
    # a space that does not exist, and a range where one cell is answered
    assert main(["dims", "-m", "2", "-n", "-1", "-k", "2"]) == EXIT_USAGE
    assert main(["branch", "-m", "2", "-n", "-1", "-k", "2"]) == EXIT_USAGE
    assert main(["decompose", "-m", "2..4", "-n", "1", "-k", "2"]) == EXIT_USAGE
    # check suites refuse cells that do not exist
    assert main(["check", "lb", "-m", "2", "-n", "-1", "-k", "2"]) == EXIT_USAGE
    assert main(["check", "killing", "-m", "2", "-n", "-1"]) == EXIT_USAGE
    assert main(["check", "lb", "-m", "-1", "-n", "1", "-k", "2"]) == EXIT_USAGE
    assert main(["check", "windows", "-m", "2", "-n", "-1", "-k", "2"]) == EXIT_USAGE
    # and a degree range that is empty
    for suite in ("sl2", "lb", "fischer", "integrals", "irreducibility"):
        assert main(["check", suite, "-m", "2", "-n", "1", "-k", "-1"]) == EXIT_USAGE, suite


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "-m", "2", "-n", "1", "-k", "2",
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    dims = sorted(r["dim"] for r in doc["rows"] if "dim" in r)
    assert dims == [1, 2, 4]


def test_branch_commands(capsys):
    code, out, _ = run(capsys, "branch", "-m", "2", "-n", "1", "-k", "2",
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    comps = [(r["l"], r["dim"]) for r in doc["rows"] if "l" in r]
    assert comps == [(1, 3), (2, 3)]

    code, out, _ = run(capsys, "branch", "-m", "3", "-n", "1", "-k", "3",
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["status"] == "degenerate"
    assert doc["rows"][0]["case"] == "not_completely_reducible"


def test_fischer_command(capsys):
    code, out, _ = run(capsys, "fischer", "-m", "2", "-n", "1", "-k", "0..3",
                       "--format", "json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    flags = {r["k"]: r["direct_sum"] for r in doc["rows"]}
    assert flags == {0: "yes", 1: "yes", 2: "no", 3: "yes"}


def test_csv_output(capsys):
    code, out, _ = run(capsys, "dims", "-m", "2", "-n", "1", "-k", "0..2",
                       "--format", "csv")
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:3] == ["m", "n", "k"]
    assert len(lines) == 4


def test_failure_exit_code():
    report = Report("x", {})
    report.fail("boom")
    assert report.exit_code == EXIT_FAIL


def test_check_all_runs_every_suite():
    report = run_suite("all", [(2, 1)], 3)
    assert report.status == "pass"
    assert [row["suite"] for row in report.rows] == list(SUITES[:-1])


@pytest.mark.parametrize("expr", ["x0", "2/0", "x5^2", "xg3*xg4", "x1^99999999"])
def test_integrate_bad_input_is_a_usage_error(capsys, expr):
    code, out, _ = run(capsys, "integrate", "-m", "2", "-n", "1", "--", expr)
    assert code == EXIT_USAGE and out == ""


def test_integrate_leading_minus_after_double_dash(capsys):
    code, out, _ = run(capsys, "integrate", "-m", "2", "-n", "1", "--format", "json",
                       "--", "-x1^2")
    assert code == EXIT_PASS
    assert all(r["value"] == "-1 * pi^0" for r in json.loads(out)["rows"])


def test_the_integrate_command_runs_no_polynomial_product(monkeypatch, capsys):
    calls = []
    for name in ("__mul__", "__add__", "scaled"):
        def counted(self, other, _name=name, _op=getattr(SuperPolynomial, name)):
            calls.append(_name)
            return _op(self, other)
        monkeypatch.setattr(SuperPolynomial, name, counted)
    values = []
    for m, n, expr in [("2", "2", "xg2*xg1*x1^2"), ("3", "1", "1/2*x1^2 - x2*x3 + 2"),
                       ("1", "2", "-xg4*xg3*xg2*xg1 + 3*x1^2*xg2*xg1")]:
        code, out, _ = run(capsys, "integrate", "-m", m, "-n", n, "--format", "json",
                           "--", expr)
        assert code == EXIT_PASS
        values.append({r["value"] for r in json.loads(out)["rows"]})
    assert calls == []
    assert values[0] == {"-1 * pi^-1"}  # the sign of xg2*xg1 = -xg1*xg2
    # the spies do see a product
    SuperPolynomial.x(1) * SuperPolynomial.x(2)
    assert calls == ["__mul__"]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=16),
                 st.text(alphabet="xg0123456789/^*+- ", max_size=24)))
def test_integrate_any_text_exits_cleanly(text):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["integrate", "-m", "2", "-n", "1", "--", text])
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE)


def test_check_killing_without_bosonic_variables(capsys):
    for n in ("1", "0"):
        code, out, _ = run(capsys, "check", "killing", "-m", "0", "-n", n, "--format", "json")
        assert code == EXIT_PASS, (n, out)
        assert json.loads(out)["status"] == "pass"


def test_check_sl2_reports_the_checked_degree(capsys):
    # the sl2 relations are always checked up to degree 2
    for k, checked in (("0", 2), ("1", 2), ("3", 3)):
        code, out, _ = run(capsys, "check", "sl2", "-m", "2", "-n", "1", "-k", k,
                           "--format", "json")
        assert code == EXIT_PASS
        assert [r["k_max"] for r in json.loads(out)["rows"]] == [checked], k


def test_suites_name_the_cells_they_skip(capsys):
    for suite, m in (("irreducibility", "0"), ("irreducibility", "1"),
                     ("branching", "0"), ("branching", "0..1")):
        code, out, err = run(capsys, "check", suite, "-m", m, "-n", "1", "-k", "2")
        assert code == EXIT_USAGE and out == "", (suite, m)
        assert "(1|2)" in err or "(0|2)" in err, err
    code, out, _ = run(capsys, "check", "branching", "-m", "1..2", "-n", "1", "-k", "1",
                       "--format", "json")
    doc = json.loads(out)
    assert code == EXIT_PASS and doc["parameters"]["skipped"] == [[1, 1]]
    assert {r["m"] for r in doc["rows"]} == {2}
    # check all names the skipped cells in the rows of the suites that skipped them
    rows = {r["suite"]: r for r in run_suite("all", [(1, 1), (2, 1)], 2).rows}
    assert rows["irreducibility"] == {"suite": "irreducibility", "status": "pass",
                                      "skipped": [[1, 1]]}
    assert rows["branching"]["skipped"] == [[1, 1]]
    assert all("skipped" not in r for s, r in rows.items()
               if s not in ("irreducibility", "branching"))
    rows = {r["suite"]: r for r in run_suite("all", [(1, 0)], 2).rows}
    assert rows["irreducibility"]["status"] == "skipped"
    assert all("skipped" not in r for r in run_suite("all", [(2, 1)], 2).rows)
    # the suites that need a bosonic variable skip m = 0, and the rest run there
    report = run_suite("all", [(0, 1), (2, 1)], 2)
    assert report.status == "pass"
    skipped = {r["suite"] for r in report.rows if r.get("skipped") == [[0, 1]]}
    assert skipped == {"projections", "integrals", "windows", "irreducibility", "branching"}
    for suite in ("projections", "integrals", "windows"):
        code, out, err = run(capsys, "check", suite, "-m", "0", "-n", "1", "-k", "2")
        assert code == EXIT_USAGE and "needs m >= 1" in err and "(0|2)" in err, suite


@pytest.mark.parametrize("argv", [["decompose", "-m", "30", "-n", "30", "-k", "12"],
                                  ["check", "lb", "-m", "12", "-n", "6", "-k", "8"],
                                  ["check", "all", "-m", "2..12", "-n", "6", "-k", "8"]])
def test_a_basis_above_the_limit_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code == EXIT_USAGE and out == ""
    assert f"MAX_BASIS_DIM = {MAX_BASIS_DIM}" in err


@pytest.mark.parametrize("argv", [["decompose", "-m", "10000000", "-n", "0", "-k", "1"],
                                  ["integrate", "-m", "10000000", "-n", "0", "--", "x1"],
                                  ["check", "killing", "-m", "3001", "-n", "0", "-k", "0"]])
def test_a_variable_count_above_the_limit_is_refused_before_any_tree(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE and out == ""
    assert f"MAX_BASIS_DIM = {MAX_BASIS_DIM}" in err and "variables" in err


# (3|0) at k = 75 and (2|0) at k = 2999 have few subalgebra pairs (none at (2|0))
# but k + 1 blocks
@pytest.mark.parametrize("m, n, k", [(1000, 0, 1), (2, 400, 0), (3, 0, 75), (2, 0, 2999)])
def test_an_explicit_branching_above_its_work_limit_is_refused(capsys, m, n, k):
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", "-m", str(m), "-n", str(n), "-k", str(k),
                         "--explicit")
    assert time.perf_counter() - start < 5
    assert code == EXIT_USAGE and out == ""
    assert f"MAX_EXPLICIT_WORK = {MAX_EXPLICIT_WORK}" in err and "Traceback" not in err


def test_a_cell_with_more_variables_than_the_recursion_limit_answers(capsys):
    # the bosonic compositions once recursed per variable, past 1000 frames
    code, out, err = run(capsys, "decompose", "-m", "1000", "-n", "0", "-k", "0")
    assert code == EXIT_PASS and err == ""
    assert out.split()[-2:] == ["1", "1"]  # total and dim H_0


def _squares_product(m):
    return "*".join(f"x{i}^2" for i in range(1, m + 1))


def test_a_pizzetti_sum_of_a_wide_product_answers(capsys):
    # nabla^{2j} of x1^2*...*x32^2 would hold C(32, j) terms; the closed form
    # reads the one term
    start = time.perf_counter()
    code, out, _ = run(capsys, "integrate", "-m", "32", "-n", "0", "--format", "json",
                       "--", _squares_product(32))
    assert time.perf_counter() - start < 2
    assert code == EXIT_PASS
    report = json.loads(out)
    a, b = report["rows"]
    assert report["status"] == "pass" and (a["q"], a["h"]) == (b["q"], b["h"]) and a["q"] != "0"
    code, out, _ = run(capsys, "integrate", "-m", "12", "-n", "0", "--format", "json",
                       "--", _squares_product(12))
    assert code == EXIT_PASS
    assert json.loads(out)["status"] == "pass"


def test_integrate_is_bounded_in_the_grassmann_pairs(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "integrate", "-m", "3", "-n", "400", "--format", "json",
                       "--", "x1^2*xg1*xg2")
    assert time.perf_counter() - start < 1
    assert code == EXIT_PASS
    a, b = json.loads(out)["rows"]
    assert a["q"] == b["q"] != "0" and a["h"] == b["h"] == -798


def test_the_basis_limit_admits_the_largest_tested_cell():
    assert dim_Pk(4, 2, 8) == 1408 <= MAX_BASIS_DIM
    assert len(monomial_basis(4, 2, 8)) == 1408
    with pytest.raises(ValueError, match="MAX_BASIS_DIM"):
        monomial_basis(12, 6, 8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SUITES), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
def test_check_keeps_the_exit_code_contract(suite, m, n, k):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", suite, "-m", str(m), "-n", str(n), "-k", str(k),
                     "--format", "json"])
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE)
    if out.getvalue():
        doc = json.loads(out.getvalue())
        assert doc["status"] != "pass" or doc["rows"], (suite, m, n, k)


def test_closed_stdout_ends_quietly_with_the_verdict():
    import subprocess
    import sys
    from pathlib import Path

    import superh
    env = {"PYTHONPATH": str(Path(superh.__file__).resolve().parents[1]), "PATH": ""}
    # several hundred kB of table, far more than a pipe holds
    proc = subprocess.Popen([sys.executable, "-m", "superh.cli", "dims", "-m", "1..20",
                             "-n", "0..10", "-k", "0..30"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"dims")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PASS
    assert err == b""


def test_importing_the_cli_leaves_numpy_out():
    import subprocess
    import sys
    from pathlib import Path

    import superh
    env = {"PYTHONPATH": str(Path(superh.__file__).resolve().parents[1]), "PATH": ""}
    proc = subprocess.run([sys.executable, "-c",
                           "import superh.cli, sys; print('numpy' in sys.modules)"],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"
