"""Acceptance suite.

Eleven exact criteria (tolerance zero throughout, the whole pipeline is
rational arithmetic) over the grid m = 1..4, n = 0..2, degree <= 6; the module
criteria use m >= 2, n >= 1.  One visible pass/fail line is printed per
criterion.
"""

from superh.checks import (
    suite_branching,
    suite_dims,
    suite_fischer,
    suite_integrals,
    suite_irreducibility,
    suite_killing,
    suite_lb,
    suite_projections,
    suite_sl2,
    suite_windows,
)
from superh.harmonic import dim_Hk, fischer
from superh.modules import SpaceSpec, rep_space, simple_dim

from reference import suite_lemma_lf

FULL_GRID = [(m, n) for m in (1, 2, 3, 4) for n in (0, 1, 2)]
MODULE_GRID = [(m, n) for m in (2, 3, 4) for n in (1, 2)]
K_MAX = 6


def announce(capsys, number, label, passed, detail=""):
    with capsys.disabled():
        status = "pass" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"\nACCEPTANCE {number:>2} [{status}] {label}{suffix}")
    assert passed, f"criterion {number}: {label}: {detail}"


def test_criterion_01_sl2_relations(capsys):
    report = suite_sl2(FULL_GRID, K_MAX)
    announce(capsys, 1, "sl2 commutators hold exactly on every P_k, k <= 6",
             report.status == "pass", report.counterexample or "")


def test_criterion_02_laplace_beltrami(capsys):
    report = suite_lb(FULL_GRID, K_MAX)
    announce(capsys, 2,
             "both Laplace-Beltrami constructions agree; eigenvalue -k(M-2+k) on H_k",
             report.status == "pass", report.counterexample or "")


def test_criterion_03_dimension_formula(capsys):
    report = suite_dims(FULL_GRID, K_MAX)
    spot = dim_Hk(2, 1, 2) == 7 and all(
        dim_Hk(m, n, 1) == m + 2 * n for (m, n) in FULL_GRID)
    announce(capsys, 3, "closed-form dim H_k equals kernel rank; spot values",
             report.status == "pass" and spot, report.counterexample or "")


def test_criterion_04_fischer_decomposition(capsys):
    report = suite_fischer(FULL_GRID, K_MAX)
    # the truncated purely fermionic decomposition for n <= 2
    fermionic_ok = all(fischer(0, n, d).direct_sum
                       for n in (1, 2) for d in range(0, 2 * n + 1))
    announce(capsys, 4,
             "radial decomposition is direct exactly off the degenerate band; m=0 truncated",
             report.status == "pass" and fermionic_ok, report.counterexample or "")


def test_criterion_05_pieces_and_projections(capsys):
    report = suite_projections(FULL_GRID, K_MAX)
    fallback_cells = [r for r in report.rows if r["spectral_fallback"]]
    engaged = all(r["m"] <= 2 for r in fallback_cells) and any(
        r["m"] == 1 for r in fallback_cells)
    announce(capsys, 5,
             "piece decomposition of H_k with delta-acting projectors "
             "(spectral fallback engaged for m = 1)",
             report.status == "pass" and engaged, report.counterexample or "")


def test_criterion_06_radial_identity(capsys):
    report = suite_lemma_lf([(m, n) for m in (1, 2, 3, 4) for n in (1, 2)])
    announce(capsys, 6, "exact radial polynomial identity for all valid (k, p, q)",
             report.status == "pass", report.counterexample or "")


def test_criterion_07_integration(capsys):
    report = suite_integrals([(m, n) for (m, n) in FULL_GRID if m >= 1], K_MAX)
    announce(capsys, 7,
             "Pizzetti route equals the phi-sharp route on all monomials of degree <= 6; "
             "invariance suite passes",
             report.status == "pass", report.counterexample or "")


def test_criterion_08_irreducibility_grid(capsys):
    report = suite_irreducibility(MODULE_GRID, K_MAX)
    witnesses = [r for r in report.rows if not r["irreducible"]]
    witnessed = all(r.get("indecomposable") == "verified" for r in witnesses)
    announce(capsys, 8,
             "irreducibility verdicts match the degenerate-band condition; "
             "indecomposability witnessed on every reducible cell",
             report.status == "pass" and witnessed and len(witnesses) == 4,
             report.counterexample or f"{len(witnesses)} reducible cells")


def test_criterion_09_window_structure(capsys):
    report = suite_windows(MODULE_GRID, K_MAX)
    ok = report.status == "pass" and len(report.rows) == 4
    # closed-form simple dimension equals the quotient dimension everywhere
    for (m, n) in MODULE_GRID:
        for k in range(0, K_MAX + 1):
            if simple_dim(m, n, k) != rep_space(SpaceSpec("HkModSub", m, n, k)).dim:
                ok = False
    spot = simple_dim(2, 1, 2) == 6
    announce(capsys, 9,
             "degenerate band: invariant subspace identity, irreducible submodule "
             "and quotient, simple dimensions",
             ok and spot, report.counterexample or "")


def test_criterion_10_branching(capsys):
    explicit_cells = ([(2, 1, k) for k in range(0, 5)]
                      + [(4, 1, k) for k in range(0, 4)]
                      + [(4, 2, k) for k in range(0, 4)])
    report = suite_branching([(m, n) for m in (2, 3, 4) for n in (0, 1, 2)], K_MAX,
                             explicit_cells=explicit_cells)
    explicit_rows = [r for r in report.rows if "explicit" in r]
    explicit_ok = (len(explicit_rows) == len(explicit_cells)
                   and all(r["explicit"] == "verified" for r in explicit_rows
                           if r["case"] != "not_completely_reducible"))
    announce(capsys, 10,
             "branching dimension identities on the grid; explicit restricted-module "
             "verification on the named cells; complete-reducibility flag pattern",
             report.status == "pass" and explicit_ok, report.counterexample or "")


def test_criterion_11_killing_characterization(capsys):
    report = suite_killing(FULL_GRID)
    announce(capsys, 11,
             "all generators and translations are Killing fields; a quadratic field is not",
             report.status == "pass", report.counterexample or "")
