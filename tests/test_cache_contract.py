"""The cache statistics that a traced benchmark run reads from the package.

`bench/run.py --trace 1` reports hit ratios from the `cache_info()` of five
cached functions, looked up by name in the module that defines them.  These
tests keep that contract inside the tier-1 suite.
"""

import importlib

import pytest

CACHED = [("harmonic", "harmonic_basis", (2, 1, 2)),
          ("harmonic", "decompose_Hk", (2, 1, 2)),
          ("diffops", "osp_generator", (1, 2, 2, 1)),
          ("diffops", "laplace_beltrami", (2, 1)),
          ("superalgebra", "monomial_basis", (2, 1, 2))]


@pytest.mark.parametrize("module, name, args", CACHED)
def test_harness_caches_report_hits_misses_and_entries(module, name, args):
    mod = importlib.import_module(f"superh.{module}")
    fn = getattr(mod, name)
    assert fn.__module__ == mod.__name__ and fn.__wrapped__ is not None
    first = fn(*args)
    before = fn.cache_info()
    assert fn(*args) is first
    after = fn.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert after.currsize >= 1
