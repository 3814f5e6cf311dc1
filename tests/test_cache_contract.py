"""The caches of the package: what the benchmark reads, and who owns what.

`bench/run.py --trace 1` reports hit ratios from the `cache_info()` of five
cached functions, looked up by name in the module that defines them.  These
tests keep that contract inside the tier-1 suite.  The other tests pin the
per-space owner, `diffops.operator_matrices(m, n)`: one object per (m|2n),
which holds the space's operator trees, which the callers read from it, and
whose leaf arrays, compiled words, kept matrices, flattened held trees and
primitive harmonic rows do not grow when a check runs again or when a tree built
per call enters it by any entry point; that clearing the owners clears the
trees built from them; that the integrals pass builds no leaf array above
its invariance degree; and a fixed list of the package's caches, so that a
new one is added on purpose.  `bench/tracer.py` reads the ring methods and
operator entry points by name; one test installs it, reads its metrics and
uninstalls it, and one runs the harness's layer test sequence under it and
asserts a counted call in every layer.
"""

import importlib
import importlib.util
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import superh
from superh import (checks, cli, diffops, harmonic, integration, linalg, modules,
                    superalgebra)
from superh.diffops import (Add, Compose, Differentiate, LinearOperator, MultiplyBy,
                            OperatorMatrices, Scale, euler, generator_pairs, laplace_beltrami,
                            laplace_beltrami_bosonic, nabla2, operator_matrices, osp_generator,
                            vec_to_poly)
from superh.harmonic import decompose_Hk, harmonic_basis, projection_Q
from superh.integration import PizzettiRows
from superh.modules import SpaceSpec, _piece_groups, branching_explicit_check, rep_space
from superh.superalgebra import parse

from reference import generator_commutator

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


# Every cache defined in a module of the package.  Per-space state belongs to
# the owner that operator_matrices returns; a new cache here is a decision.
PACKAGE_CACHES = {
    "cli": {"build_parser"},
    "diffops": {"osp_generator", "laplace_beltrami", "operator_matrices"},
    "harmonic": {"harmonic_basis", "decompose_Hk"},
    "integration": {"_pizzetti_weight", "berezin_density_coefficients"},
    "modules": {"hk_window_intersection"},
    "superalgebra": {"_exponent_pair", "monomial_basis"},
}


def test_the_package_caches_are_the_listed_ones():
    found = {}
    for info in pkgutil.iter_modules(superh.__path__):
        mod = importlib.import_module(f"superh.{info.name}")
        names = {name for name, obj in vars(mod).items()
                 if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
        if names:
            found[info.name] = names
    assert found == PACKAGE_CACHES


def _bindings():
    """Every name bound in a module of the package, and in each class it defines."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "superh" or modname.startswith("superh."):
            for name, obj in vars(mod).items():
                out[modname, name] = obj
                if isinstance(obj, type) and obj.__module__ == modname:
                    out.update({(modname, name, attr): member
                                for attr, member in vars(obj).items()})
    return out


def test_the_bench_tracer_reads_the_names_it_wraps():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = _bindings()
    tracer = tracer_module.Tracer().install()
    try:
        nabla2(2, 1).apply(parse("x1^2 - xg1*xg2"))
        checks.suite_dims([(2, 1)], 1)
        tracer.metrics()  # raises KeyError when a name it reads is gone
        for name in ("__mul__", "__rmul__", "__add__", "scaled", "dx", "dxg"):
            assert f"superalgebra.SuperPolynomial.{name}" in tracer.calls, name
        assert tracer.calls["diffops.Add.apply"] >= 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_the_bench_tracer_counts_a_call_in_every_layer(capsys):
    # The call sequence of the harness's own layer test, whose one polynomial
    # product was inside parse; here the product is made on purpose.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer().install()
    try:
        x = superalgebra.parse("x1^2 - xg1*xg2")
        assert x * x == superalgebra.parse("x1^4 - 2*x1^2*xg1*xg2")
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
        layers = {key.split(".")[0] for key, n in tracer.calls.items() if n}
        assert layers == set(tracer_module.LAYERS)
        # suite_dims reaches harmonic_basis through the name checks imported.
        assert tracer.entries["harmonic.harmonic_basis"] >= 1
    finally:
        tracer.uninstall()


@pytest.fixture
def constructed(monkeypatch):
    """(m, n) of every OperatorMatrices built from here on, owners dropped first."""
    made = []
    init = OperatorMatrices.__init__

    def spy(self, m, n):
        made.append((m, n))
        init(self, m, n)

    monkeypatch.setattr(OperatorMatrices, "__init__", spy)
    operator_matrices.cache_clear()
    return made


def _sizes(mats):
    return (len(mats._index), len(mats._leaves), len(mats._compiled), len(mats._roots),
            len(mats._flat), len(mats.primitive_rows))


def test_a_second_run_adds_nothing_to_the_owners(constructed):
    # (2|4) has M = -2, so k = 3, 4 lie in the degenerate band
    m, n, k = 2, 2, 4
    cell = [(m, n)]

    def run():
        for name in ("sl2", "lb", "projections", "integrals", "irreducibility", "windows"):
            assert checks.run_suite(name, cell, k).status == "pass", name
        assert branching_explicit_check(m, n, k) == "verified"

    run()
    owners = [operator_matrices(*space) for space in constructed]
    assert operator_matrices(m, n) in owners
    before = [_sizes(mats) for mats in owners]
    built = len(constructed)
    run()
    assert len(constructed) == built
    assert [_sizes(mats) for mats in owners] == before


def test_a_per_call_tree_leaves_the_owner_unchanged():
    m, n, k = 2, 2, 3
    mats = operator_matrices(m, n)
    mats.matrix(mats.lb_bosonic, k)  # the projector factors below read these
    mats.matrix(mats.lb_fermionic, k)
    rows = harmonic_basis(m, n, k).rows

    def per_call_trees():
        """Trees built anew on every call, as the checks and the builders build them."""
        return ([Compose((Scale(1 / denom), Add((lb, Scale(shift)))))
                 for pc in decompose_Hk(m, n, k)
                 for lb, shift, denom in projection_Q(pc.l, pc.q, k, m, n).factors]
                + [generator_commutator(1, 3, 2, 4, m, n),
                   MultiplyBy(vec_to_poly(rows[0], m, n, k)),
                   Compose((Scale(Fraction(1, 3)), euler(m, n))),
                   nabla2(m, n), laplace_beltrami_bosonic(m)])

    def run():
        for op in per_call_trees():
            mats.apply(op, rows, k)
            mats.matrix(op, k)

    run()  # builds the leaf arrays and index maps these trees read
    before = _sizes(mats)
    run()
    assert _sizes(mats) == before


def test_the_callers_read_the_trees_the_owner_holds(monkeypatch):
    m, n = 3, 2
    mats = operator_matrices(m, n)
    for k in range(0, 5):
        for pc in decompose_Hk(m, n, k):
            Q = projection_Q(pc.l, pc.q, k, m, n)
            factors = Q.factors
            assert len(factors) == len(Q.bosonic_factors) + len(Q.fermionic_factors)
            held = ([mats.lb_bosonic] * len(Q.bosonic_factors)
                    + [mats.lb_fermionic] * len(Q.fermionic_factors))
            for (tree, _, _), lb in zip(factors, held):
                assert tree is lb
                assert id(lb) in mats._flat

    seen = []  # (entry point, tree) of every call on the owner of (m|2n)
    for name in ("matrix", "apply"):
        def spy(self, op, *args, _name=name, _entry=getattr(OperatorMatrices, name)):
            if self is mats:
                seen.append((_name, op))
            return _entry(self, op, *args)
        monkeypatch.setattr(OperatorMatrices, name, spy)

    def trees(call):
        seen.clear()
        call()
        assert seen and all(isinstance(op, LinearOperator) for _, op in seen)
        return seen

    pieces_trees = {id(mats.nabla2), id(mats.mul_rb2), id(mats.mul_theta2)}
    for k in range(2, 5):  # uncached, so that the bodies run here
        assert all(op is mats.nabla2 for _, op in trees(
            lambda: harmonic_basis.__wrapped__(m, n, k)))
        assert all(id(op) in pieces_trees for _, op in trees(
            lambda: decompose_Hk.__wrapped__(m, n, k)))

    compiled = []  # (held, tree) of every tree whose compiled words any owner reads
    words_on = OperatorMatrices._words_on

    def words_spy(self, op, k):
        compiled.append((id(op) in self._flat, op))
        return words_on(self, op, k)

    monkeypatch.setattr(OperatorMatrices, "_words_on", words_spy)
    for cell in [(2, 1, 3), (4, 2, 3)]:  # (2|2) and (4|4)
        assert branching_explicit_check(*cell) == "verified"
    assert compiled and all(held for held, _ in compiled)
    compiled.clear()
    for k in range(0, 5):
        _piece_groups(rep_space(SpaceSpec("PkModR2", m, n, k)))
    assert any(op is mats.mul_theta2 for _, op in compiled)
    assert all(held for held, _ in compiled)


def test_the_integrals_pass_builds_nothing_above_the_invariance_degree(monkeypatch):
    degrees = []  # the degree of every leaf array built
    leaf_arrays = OperatorMatrices._leaf_arrays

    def leaf_spy(self, what, fermionic, k):
        degrees.append(k)
        return leaf_arrays(self, what, fermionic, k)

    monkeypatch.setattr(OperatorMatrices, "_leaf_arrays", leaf_spy)
    operator_matrices.cache_clear()
    harmonic_basis.cache_clear()  # so that the pass builds the kernels it reads
    assert checks.suite_integrals([(4, 2)], 6).status == "pass"
    assert degrees and max(degrees) <= checks.INVARIANCE_K

    applied = []  # every tree applied and every entry point of the owners called
    for cls in (MultiplyBy, Differentiate, Scale, Add, Compose):
        monkeypatch.setattr(cls, "apply", lambda self, f: applied.append(self))
    for name in ("matrix", "apply", "power", "_apply", "_compile"):
        monkeypatch.setattr(OperatorMatrices, name,
                            lambda self, *args, _name=name: applied.append(_name))
    degrees.clear()
    T = PizzettiRows(4, 2)
    assert all(type(x) is int for k in range(0, 9) for x in T.row(k).values())
    assert applied == [] and degrees == []


def test_check_all_builds_each_space_once(constructed):
    cells = [(m, n) for m in range(1, 4) for n in range(0, 3)]
    assert checks.run_suite("all", cells, 4).status == "pass"
    assert set(cells) <= set(constructed)
    assert len(constructed) == len(set(constructed))


def test_band_modules_share_their_generator_words(monkeypatch):
    built = []
    compile_words = OperatorMatrices._compile
    operator_matrices.cache_clear()  # and the generator trees built from the dropped owners
    generators = {id(osp_generator(i, j, 2, 2)) for (i, j) in generator_pairs(2, 2)}

    def spy(self, op, k):
        if id(op) in generators:
            built.append((self.m, self.n, id(op), k))
        return compile_words(self, op, k)

    monkeypatch.setattr(OperatorMatrices, "_compile", spy)

    def generator_matrices(kind):
        rep = rep_space(SpaceSpec(kind, 2, 2, 4))
        return [rep.generator_matrix(i, j) for (i, j) in rep.gen_pairs]

    generator_matrices("Hk")
    assert built and len(built) == len(set(built))
    first = list(built)
    # the quotient acts by the same generators on the same P_4
    generator_matrices("HkModSub")
    assert built == first


def test_clearing_the_owners_drops_the_trees_built_from_them():
    form_a, form_b = laplace_beltrami(2, 2)
    generator = osp_generator(1, 3, 2, 2)
    operator_matrices.cache_clear()
    mats = operator_matrices(2, 2)
    fresh = laplace_beltrami(2, 2)
    assert fresh[0] is not form_a and fresh[1] is not form_b
    assert all(mats._flat[id(form)][0] is form for form in fresh)
    assert osp_generator(1, 3, 2, 2) is not generator
    # the new owner keeps the matrix of the form it holds
    mats.matrix(fresh[0], 3)
    assert (id(fresh[0]), 3) in mats._roots
    for fn in (osp_generator, laplace_beltrami):
        assert fn.cache_info().currsize >= 1
