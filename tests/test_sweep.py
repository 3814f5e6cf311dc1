"""Every suite beyond the acceptance grid.

The grid has M = m - 2n from -3 to 4, and its degenerate bands are at most two
degrees wide.  These cells are the (m|2n) with m + 2n <= 10 outside it, less
(2|8), the slowest: M runs from -7 to 8, and they reach the wider bands of
(2|6) at k = 4..6 and of (4|6) at k = 3..4.
"""

from superh.checks import run_suite
from superh.superalgebra import MAX_BASIS_DIM, dim_Pk

OFF_GRID = [(1, 3), (1, 4), (2, 3), (3, 3), (4, 3), (5, 0), (5, 1), (5, 2),
            (6, 0), (6, 1), (6, 2), (7, 0), (7, 1), (8, 0), (8, 1)]


def test_every_suite_passes_beyond_the_grid():
    """check all on each cell, to the largest degree k <= 6 whose P_{k+2}
    fits MAX_BASIS_DIM (the sl2 check reads P_{k+2})."""
    for (m, n) in OFF_GRID:
        k = max(k for k in range(0, 7) if dim_Pk(m, n, k + 2) <= MAX_BASIS_DIM)
        report = run_suite("all", [(m, n)], k)
        assert report.status == "pass", (m, n, k, report.counterexample)
