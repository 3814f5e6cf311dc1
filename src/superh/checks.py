"""Named verification suites over parameter grids.

Each suite runs exact checks (tolerance zero everywhere) and returns a Report
with one row per checked cell plus an overall status.  The CLI exposes these
under `superh check <suite>`; the acceptance tests drive the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .superalgebra import SuperPolynomial, monomial_basis
from .diffops import (
    _lincomb,
    check_sl2,
    generator_pairs,
    generator_vector_field,
    killing_check,
    laplace_beltrami,
    operator_matrices,
    partial_vector_field,
    variable_poly,
)
from .harmonic import (
    bosonic_eigenvalue,
    decompose_Hk,
    dim_Hk,
    fermionic_eigenvalue,
    fischer,
    harmonic_basis,
    projection_Q,
)
from .integration import ScaledRational, invariance_suite, pizzetti, supersphere_integral_phi
from .linalg import _primitive
from .modules import (
    SpaceSpec,
    branching,
    in_window,
    indecomposability_witness,
    is_irreducible,
    rep_space,
    window_interval,
    window_submodule_check,
)


@dataclass
class Report:
    command: str
    parameters: dict
    rows: list = field(default_factory=list)
    status: str = "pass"
    counterexample: str | None = None

    def fail(self, counterexample: str) -> None:
        self.status = "fail"
        if self.counterexample is None:
            self.counterexample = counterexample

    @property
    def exit_code(self) -> int:
        return 0 if self.status in ("pass", "degenerate") else 1


# degree cap of the invariance checks inside suite_integrals
INVARIANCE_K = 4


# -- individual suites ------------------------------------------------------------


def suite_sl2(cells: list[tuple[int, int]], k_max: int) -> Report:
    report = Report("check sl2", {"cells": cells, "k_max": k_max})
    checked = max(2, k_max)  # the sl2 relations need the degrees up to 2
    for (m, n) in cells:
        res = check_sl2(m, n, checked)
        report.rows.append({"m": m, "n": n, "k_max": checked,
                            "result": "pass" if res.passed else "fail"})
        if not res.passed:
            report.fail(f"sl2 relation failed at (m,n)=({m},{n}): {res.failures[0]}")
    return report


def suite_lb(cells: list[tuple[int, int]], k_max: int) -> Report:
    """Both Laplace-Beltrami constructions agree; eigenvalue -k(M-2+k) on H_k.

    The two forms are evaluated from their own trees as matrices on P_k and
    compared column by column; the eigenvalue is checked on every row of the
    harmonic basis, scaled to a primitive int vector, by a mat-vec with the
    form A matrix.
    """
    report = Report("check lb", {"cells": cells, "k_max": k_max})
    for (m, n) in cells:
        M = m - 2 * n
        form_a, form_b = laplace_beltrami(m, n)
        forms_ok = True
        eigen_ok = True
        mats = operator_matrices(m, n)
        for k in range(0, k_max + 1):
            mat_a = mats.matrix(form_a, k)
            for c, col in enumerate(mats.matrix(form_b, k)):
                if col != mat_a[c]:
                    forms_ok = False
                    f = SuperPolynomial.monomial(monomial_basis(m, n, k)[c])
                    report.fail(f"LB forms differ on {f} at ({m}|{2*n})")
                    break
            eig = -k * (M - 2 + k)
            rows = [_primitive(v) for v in harmonic_basis(m, n, k).rows]
            for row, image in zip(rows, mats.apply(form_a, rows, k)):
                if image != _lincomb((eig, row)):
                    eigen_ok = False
                    report.fail(f"LB eigenvalue failed on H_{k}({m}|{2*n})")
                    break
        report.rows.append({"m": m, "n": n, "forms": "pass" if forms_ok else "fail",
                            "eigenvalue": "pass" if eigen_ok else "fail"})
    return report


def suite_killing(cells: list[tuple[int, int]]) -> Report:
    report = Report("check killing", {"cells": cells})
    for (m, n) in cells:
        ok = True
        for (i, j) in generator_pairs(m, n):
            if not killing_check(generator_vector_field(i, j, m, n), m, n):
                ok = False
                report.fail(f"L_{i},{j} failed the Killing condition at ({m}|{2*n})")
        for j in range(1, m + 2 * n + 1):
            if not killing_check(partial_vector_field(j, m, n), m, n):
                ok = False
                report.fail(f"translation field {j} failed at ({m}|{2*n})")
        # negative control: no Killing field has a quadratic coefficient
        size = m + 2 * n
        if size and killing_check(
                {1: variable_poly(1, m, n) * variable_poly(size, m, n)}, m, n):
            ok = False
            report.fail(f"quadratic field passed the Killing condition at ({m}|{2*n})")
        report.rows.append({"m": m, "n": n, "result": "pass" if ok else "fail"})
    return report


def suite_dims(cells: list[tuple[int, int]], k_max: int) -> Report:
    """Closed-form dimension equals the brute-force kernel rank."""
    report = Report("check dims", {"cells": cells, "k_max": k_max})
    for (m, n) in cells:
        for k in range(0, k_max + 1):
            formula = dim_Hk(m, n, k)
            rank = harmonic_basis(m, n, k).dim
            row = {"m": m, "n": n, "k": k, "formula": formula, "kernel": rank}
            report.rows.append(row)
            if formula != rank:
                report.fail(f"dim mismatch at ({m},{n},{k}): {formula} != {rank}")
    return report


def fischer_flag_expected(m: int, n: int, k: int) -> bool:
    """The radial decomposition of P_k is direct iff no compatible degenerate
    degree k' <= k with k' = k (mod 2) lies in the band [2-M/2, 2-M]."""
    if m == 0:
        return True
    band = window_interval(m, n)
    if band is None:
        return True
    lo, hi = band
    return not any(lo <= kp <= hi for kp in range(k, 1, -2))


def suite_fischer(cells: list[tuple[int, int]], k_max: int) -> Report:
    report = Report("check fischer", {"cells": cells, "k_max": k_max})
    for (m, n) in cells:
        for k in range(0, k_max + 1):
            fd = fischer(m, n, k)
            expected = fischer_flag_expected(m, n, k)
            row = {"m": m, "n": n, "k": k, "direct_sum": fd.direct_sum,
                   "expected": expected,
                   "blocks": [(p.j, p.dim) for p in fd.pieces]}
            report.rows.append(row)
            if fd.direct_sum != expected:
                report.fail(f"fischer flag at ({m},{n},{k}): "
                            f"{fd.direct_sum} expected {expected}")
    return report


def suite_projections(cells: list[tuple[int, int]], k_max: int) -> Report:
    """Piece decomposition of H_k plus the delta action of the projectors.

    Every piece vector is checked to be a joint eigenvector of the two
    Laplace-Beltrami blocks (exact, on the pieces' primitive int vectors as
    they are kept).  Then, for every target and source piece of a degree,
    ``Q.scalar_on_piece`` of the target's projector Q must be the delta, 1 or
    0.  Q's factor chain is not applied to the vectors: on a vector v that
    passed the eigen check, the chain gives scalar_on_piece(p, q) v by
    linearity, so comparing it with delta v is the scalar check again.  The
    one fact the chain would add, which block each factor acts through, is
    read from ``Q.factors`` by scalar_on_piece as by ``Q.apply``.
    """
    report = Report("check projections", {"cells": cells, "k_max": k_max})
    for (m, n) in cells:
        mats = operator_matrices(m, n)
        lb_b, lb_f = mats.lb_bosonic, mats.lb_fermionic
        for k in range(0, k_max + 1):
            pieces = decompose_Hk(m, n, k)
            fallback_used = False
            ok = True
            for pc in pieces:
                lam_b = bosonic_eigenvalue(m, pc.p)
                lam_f = fermionic_eigenvalue(n, pc.q)
                rows = pc.vectors
                for v, wb, wf in zip(rows, mats.apply(lb_b, rows, k),
                                     mats.apply(lb_f, rows, k)):
                    if wb != _lincomb((lam_b, v)) or wf != _lincomb((lam_f, v)):
                        ok = False
                        report.fail(f"piece ({pc.l},{pc.p},{pc.q}) of H_{k}({m}|{2*n}) "
                                    "is not a joint eigenspace")
            for tgt in pieces:
                Q = projection_Q(tgt.l, tgt.q, k, m, n)
                fallback_used = fallback_used or Q.spectral_fallback
                for src in pieces:
                    want = 1 if (src.l, src.q) == (tgt.l, tgt.q) else 0
                    if Q.scalar_on_piece(src.p, src.q) != want:
                        ok = False
                        report.fail(f"projector scalar failed at ({m},{n},{k}) "
                                    f"target ({tgt.l},{tgt.q}) source ({src.l},{src.q})")
            report.rows.append({"m": m, "n": n, "k": k, "pieces": len(pieces),
                                "spectral_fallback": fallback_used,
                                "result": "pass" if ok else "fail"})
    return report


def suite_integrals(cells: list[tuple[int, int]], k_max: int,
                    seed: int = 20240) -> Report:
    """Pizzetti and phi# agree on every monomial, and T is osp-invariant.

    ``pizzetti`` reads the same closed-form entries as the rows that the
    invariance checks evaluate T by, so comparing it with the independent
    phi# route certifies those entries on every monomial of degree <= k_max.
    A factor common to both routes cancels in that comparison, so at n = 0
    T(1) is also compared with the sphere area A_m (``_sphere_area``), which
    neither route reads; a mismatch fails the routes.  `seed` has no effect
    (the invariance checks sample nothing); it is accepted for callers that
    pass it.
    """
    report = Report("check integrals", {"cells": cells, "k_max": k_max})
    for (m, n) in cells:
        inv = invariance_suite(m, n, min(k_max, INVARIANCE_K))
        equal_ok = True
        for k in range(0, k_max + 1):
            for mono in monomial_basis(m, n, k):
                f = SuperPolynomial.monomial(mono)
                if pizzetti(f, m, n) != supersphere_integral_phi(f, m, n):
                    equal_ok = False
                    report.fail(f"integral routes differ on {f} at ({m}|{2*n})")
        if n == 0 and pizzetti(SuperPolynomial.one(), m, 0) != _sphere_area(m):
            equal_ok = False
            report.fail(f"normalization: T(1) is not the area of the unit sphere at ({m}|0)")
        M = m - 2 * n
        report.rows.append({"m": m, "n": n, "routes": "pass" if equal_ok else "fail",
                            "invariance": "pass" if inv.passed else "fail",
                            "degenerate_superdimension": M <= 0 and M % 2 == 0})
        if not inv.passed:
            report.fail(f"invariance failed at ({m}|{2*n}): {inv.failures[0]}")
    return report


def _sphere_area(m: int) -> ScaledRational:
    """The area of the unit sphere in R^m, by A_1 = 2, A_2 = 2 pi and
    A_m = 2 pi A_(m-2) / (m - 2), in ints and powers of pi."""
    area = ScaledRational(Fraction(2), 2 - 2 * (m % 2))
    for d in range(4 - m % 2, m + 1, 2):
        area = area * ScaledRational(Fraction(2, d - 2), 2)
    return area


def suite_irreducibility(cells: list[tuple[int, int]], k_max: int) -> Report:
    report = Report("check irreducibility", {"cells": cells, "k_max": k_max})
    for (m, n) in cells:
        for k in range(0, k_max + 1):
            rep = rep_space(SpaceSpec("Hk", m, n, k))
            verdict = is_irreducible(rep)
            expected = not in_window(m, n, k)
            row = {"m": m, "n": n, "k": k, "irreducible": verdict,
                   "expected": expected}
            if not verdict:
                row["indecomposable"] = indecomposability_witness(rep)
            report.rows.append(row)
            if verdict != expected:
                report.fail(f"irreducibility verdict at ({m},{n},{k}): "
                            f"{verdict}, expected {expected}")
            elif not verdict and row["indecomposable"] != "verified":
                report.fail(f"indecomposability witness not found at ({m},{n},{k})")
    return report


def suite_windows(cells: list[tuple[int, int]], k_max: int) -> Report:
    report = Report("check windows", {"cells": cells})
    any_window = False
    for (m, n) in cells:
        band = window_interval(m, n)
        if band is None:
            continue
        for k in range(band[0], min(band[1], k_max) + 1):
            any_window = True
            res = window_submodule_check(m, n, k)
            report.rows.append({"m": m, "n": n, "k": k,
                                "submodule_dim": res.submodule_dim,
                                "quotient_dim": res.quotient_dim,
                                "result": "pass" if res.passed else "fail",
                                "details": res.details})
            if not res.passed:
                report.fail(f"degenerate band structure failed at ({m},{n},{k})")
    if not any_window:
        report.status = "degenerate" if report.status == "pass" else report.status
        report.counterexample = report.counterexample or "no degenerate cells in range"
    return report


def suite_branching(cells: list[tuple[int, int]], k_max: int,
                    explicit_cells: Iterable[tuple[int, int, int]] = ()) -> Report:
    report = Report("check branching", {"cells": cells, "k_max": k_max})
    explicit_set = set(explicit_cells)
    for (m, n) in cells:
        if m < 2:
            continue
        M = m - 2 * n
        for k in range(0, k_max + 1):
            b = branching(m, n, k, explicit=(m, n, k) in explicit_set)
            flag_expected = (M <= 1 and M % 2 != 0 and k >= 2 + (1 - M) // 2)
            row = {"m": m, "n": n, "k": k, "case": b.case,
                   "branch": b.branch, "dim_identity": b.dim_identity}
            if b.explicit is not None:
                row["explicit"] = b.explicit
            report.rows.append(row)
            if (b.case == "not_completely_reducible") != flag_expected:
                report.fail(f"complete-reducibility flag at ({m},{n},{k})")
            if b.case != "not_completely_reducible" and not b.dim_identity:
                report.fail(f"branch dimension identity failed at ({m},{n},{k})")
            if b.explicit is not None and b.explicit != "verified":
                report.fail(f"explicit branching not verified at ({m},{n},{k}): {b.explicit}")
    return report


# name -> runner(cells, k_max); `check all` runs them in this order
_RUNNERS = {
    "sl2": suite_sl2,
    "lb": suite_lb,
    "killing": lambda cells, k_max: suite_killing(cells),
    "projections": suite_projections,
    "fischer": suite_fischer,
    "integrals": suite_integrals,
    "irreducibility": suite_irreducibility,
    "windows": suite_windows,
    "branching": suite_branching,
}
SUITES = (*_RUNNERS, "all")
# the least m a suite runs on: the supersphere, the piece decomposition and the
# degenerate band need a bosonic variable, and branching splits one off
_MIN_M = {"projections": 1, "integrals": 1, "windows": 1, "irreducibility": 2,
          "branching": 2}


def _split_cells(name: str, cells: list[tuple[int, int]]):
    """(cells the suite runs on, cells it skips)."""
    lo = _MIN_M.get(name, 0)
    return [c for c in cells if c[0] >= lo], [c for c in cells if c[0] < lo]


def _top_degree(name: str, k_max: int) -> int:
    """The largest degree whose monomial basis the suite builds."""
    if name == "sl2":
        return max(2, k_max) + 2
    if name == "integrals":
        return max(k_max, min(k_max, INVARIANCE_K) + 2)
    return 0 if name == "killing" else k_max


def run_suite(name: str, cells: list[tuple[int, int]], k_max: int) -> Report:
    """Run a named suite, or every suite for "all".

    A suite skips the cells below its least m (_MIN_M).  A report names the
    cells it skipped (for "all", in that suite's row), and a single suite with
    no cell left raises ValueError.  So does, before any work, a cell whose
    basis at the suite's top degree is larger than MAX_BASIS_DIM.
    """
    bad = [c for c in cells if c[0] < 0 or c[1] < 0]
    if bad:
        raise ValueError(f"no space (m|2n) with a negative parameter: {bad[0]}")
    if k_max < 0:
        raise ValueError(f"no degree range up to k_max = {k_max}")
    if name not in _RUNNERS and name != "all":
        raise ValueError(f"unknown suite {name!r}")
    # the largest basis each cell needs comes first: monomial_basis refuses one
    # above MAX_BASIS_DIM before any other work, and caches it for the suite
    for nm in _RUNNERS if name == "all" else [name]:
        for (m, n) in _split_cells(nm, cells)[0]:
            monomial_basis(m, n, _top_degree(nm, k_max))
    if name == "all":
        merged = Report("check all", {"cells": cells, "k_max": k_max})
        for nm, runner in _RUNNERS.items():
            run, skipped = _split_cells(nm, cells)
            rep = runner(run, k_max)
            row = {"suite": nm, "status": rep.status if run else "skipped"}
            if skipped:
                row["skipped"] = [list(c) for c in skipped]
            merged.rows.append(row)
            if rep.status == "fail":
                merged.fail(f"{nm}: {rep.counterexample}")
        return merged
    run, skipped = _split_cells(name, cells)
    if not run and skipped:
        named = ", ".join(f"({m}|{2 * n})" for m, n in skipped)
        raise ValueError(f"check {name} needs m >= {_MIN_M[name]}; "
                         f"it would skip every cell: {named}")
    report = _RUNNERS[name](run, k_max)
    if skipped:
        report.parameters["skipped"] = [list(c) for c in skipped]
    return report
