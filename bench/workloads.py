"""The benchmark's workloads: which operations each one runs, and in what order.

An operation is one suite call on one (m|2n) cell, or one CLI query.  Each has
a key under which its expected output is committed in ``expected/<workload>.json``.
The suite workloads run fixed grids; the seed only feeds the invariance
sampling of suite_integrals.  The session's query stream is a pure function of
the seed and a stream number: a run's children take streams 0, 1, 2, ... of
its seed, so that a run's medians average over several orders of the same
traffic.  The program under test only ever sees the generated suite arguments
or argv lists.
"""

from __future__ import annotations

import random
from fractions import Fraction

FULL_GRID = [(m, n) for m in (1, 2, 3, 4) for n in (0, 1, 2)]
MODULE_GRID = [(m, n) for m in (2, 3, 4) for n in (1, 2)]
BRANCH_GRID = [(m, n) for m in (2, 3, 4) for n in (0, 1, 2)]
# The explicit branching cells of acceptance criterion 10.
EXPLICIT_CELLS = ([(2, 1, k) for k in range(0, 5)]
                  + [(4, 1, k) for k in range(0, 4)]
                  + [(4, 2, k) for k in range(0, 4)])

# Suite workloads: (suite name, grid, k_max).  `operators` runs at k_max = 4,
# not the acceptance degree 6, so that one cold child takes about 6 s and a
# run can take the median of several children.
SUITE_WORKLOADS = {
    "operators": [("sl2", FULL_GRID, 4), ("lb", FULL_GRID, 4),
                  ("projections", FULL_GRID, 4)],
    "modules": [("irreducibility", MODULE_GRID, 6), ("windows", MODULE_GRID, 6),
                ("branching", BRANCH_GRID, 6)],
    "integrals": [("integrals", FULL_GRID, 6)],
}
WORKLOADS = (*SUITE_WORKLOADS, "session")

# Session traffic: query kinds with their weights, and the number of queries.
QUERY_WEIGHTS = {"integrate": 4, "decompose": 2, "fischer": 2, "dims": 1,
                 "irreducibility": 1, "branch": 1}
SESSION_QUERIES = 400
SESSION_K = 6           # degree cap of decompose, fischer, irreducibility, dims
BRANCH_K = 4            # degree cap of branch --explicit
POLYS_PER_CELL = 16     # committed integrands per cell
POLY_TERMS = 4
POLY_DEGREE = 6
# Cells ordered by popularity, smallest superspaces first; rank r (from 0)
# gets a share of each query kind proportional to 1 / (r + 1).
RANKED_CELLS = sorted(FULL_GRID, key=lambda c: (c[0] + 2 * c[1], c[1]))


def suite_key(suite: str, cell: tuple[int, int]) -> str:
    return f"{suite} {cell[0]} {cell[1]}"


def suite_operations(workload: str) -> list[tuple[str, str, tuple[int, int], int]]:
    """(key, suite, cell, k_max) for every suite call, one cell per call.

    The order is fixed: each suite walks its grid in turn, as `superh check
    all` walks suites, so every child of every run does the same work.
    """
    return [(suite_key(suite, cell), suite, cell, k_max)
            for suite, grid, k_max in SUITE_WORKLOADS[workload] for cell in grid]


def suite_kwargs(suite: str, seed: int) -> dict:
    if suite == "branching":
        return {"explicit_cells": EXPLICIT_CELLS}
    if suite == "integrals":
        return {"seed": seed}
    return {}


def describe(workload: str) -> dict:
    """Grid, degree and operation count, recorded with every result."""
    if workload == "session":
        return {"cells": RANKED_CELLS, "k_max": SESSION_K, "branch_k_max": BRANCH_K,
                "queries": SESSION_QUERIES, "weights": QUERY_WEIGHTS}
    return {"suites": [{"suite": s, "cells": g, "k_max": k}
                       for s, g, k in SUITE_WORKLOADS[workload]],
            "operations": len(suite_operations(workload))}


# -- session traffic ---------------------------------------------------------------


def _random_term(rng: random.Random, m: int, n: int) -> str:
    degree = rng.randint(0, POLY_DEGREE)
    grassmann = rng.sample(range(1, 2 * n + 1), rng.randint(0, min(2 * n, degree)))
    exps = [0] * m
    for _ in range(degree - len(grassmann)):
        exps[rng.randrange(m)] += 1
    factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e]
    factors += [f"xg{j}" for j in sorted(grassmann)]
    coeff = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))
    if coeff != 1 or not factors:
        factors.insert(0, str(coeff))
    return "*".join(factors)


def integrands(m: int, n: int) -> list[str]:
    """The committed integrands of one cell: up to four terms of degree <= 6.

    A first term with a minus sign is common, which is why the session passes
    every expression after `--`.
    """
    rng = random.Random(f"integrands {m} {n}")
    out = []
    for _ in range(POLYS_PER_CELL):
        terms = [_random_term(rng, m, n) for _ in range(rng.randint(1, POLY_TERMS))]
        text = ""
        for t in terms:
            sign = rng.choice("+-")
            text += (f"-{t}" if sign == "-" else t) if not text else f" {sign} {t}"
        out.append(text)
    return out


def _cell_args(m: int, n: int) -> list[str]:
    return ["-m", str(m), "-n", str(n)]


def query(kind: str, m: int, n: int, choice: int) -> list[str]:
    """The argv of one query; `choice` picks the degree or the integrand."""
    fmt = ["--format", "json"]
    if kind == "integrate":
        return ["integrate", *_cell_args(m, n), *fmt, "--", integrands(m, n)[choice]]
    if kind == "decompose":
        return ["decompose", *_cell_args(m, n), "-k", str(choice), *fmt]
    if kind == "fischer":
        return ["fischer", *_cell_args(m, n), "-k", f"0..{choice}", *fmt]
    if kind == "dims":
        return ["dims", "-m", f"1..{m}", "-n", f"0..{n}", "-k", f"0..{SESSION_K}", *fmt]
    if kind == "irreducibility":
        return ["check", "irreducibility", *_cell_args(m, n), "-k", str(choice), *fmt]
    if kind == "branch":
        return ["branch", *_cell_args(m, n), "-k", str(choice), "--explicit", *fmt]
    raise ValueError(f"unknown query kind {kind!r}")


def _domain(kind: str) -> tuple[list[tuple[int, int]], int]:
    """Cells a kind may touch (in popularity order) and its number of choices."""
    cells = RANKED_CELLS
    if kind in ("irreducibility", "branch"):
        cells = [c for c in RANKED_CELLS if c[0] >= 2]
    choices = {"integrate": POLYS_PER_CELL, "dims": 1,
               "branch": BRANCH_K + 1}.get(kind, SESSION_K + 1)
    return cells, choices


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Split `total` in proportion to `weights` (largest remainder)."""
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(s) for s in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def session_queries(seed: int, stream: int = 0) -> list[list[str]]:
    """The seeded query stream of one session.

    The mix is stratified so that every seed does nearly the same work: the
    kinds come in proportion to their weights, each kind's queries are split
    over its cells in Zipf proportion (weight 1 / (rank + 1)), and the
    degrees of a cell's queries are spread evenly over their range.  The seed
    picks the integrands and shuffles the order, and so decides which query
    first touches a cell and pays for its cold caches.
    """
    rng = random.Random(f"{seed}/{stream}")
    queries = []
    counts = _apportion(SESSION_QUERIES, list(QUERY_WEIGHTS.values()))
    for kind, count in zip(QUERY_WEIGHTS, counts):
        cells, choices = _domain(kind)
        zipf = _apportion(count, [1 / (r + 1) for r in range(len(cells))])
        for (m, n), c in zip(cells, zipf):
            if kind == "integrate":
                order = rng.sample(range(choices), choices)
                picks = [order[j % choices] for j in range(c)]
            else:
                picks = [(2 * j + 1) * choices // (2 * c) for j in range(c)]
            queries += [query(kind, m, n, p) for p in picks]
    rng.shuffle(queries)
    return queries


def session_pool() -> list[list[str]]:
    """Every argv that `session_queries` can emit, for any seed."""
    return [query(kind, m, n, choice)
            for kind in QUERY_WEIGHTS
            for (m, n), choices in [(c, _domain(kind)[1]) for c in _domain(kind)[0]]
            for choice in range(choices)]


def query_key(argv: list[str]) -> str:
    return " ".join(argv)
