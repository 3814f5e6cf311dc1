from fractions import Fraction

import pytest

from superh.superalgebra import SuperPolynomial as SP, dim_Pk, monomial_basis, render
import time

from superh import diffops
from superh.diffops import (
    IDENTITY,
    Add,
    Compose,
    Differentiate,
    LinearOperator,
    Metric,
    MultiplyBy,
    OperatorMatrices,
    Scale,
    ZERO_OP,
    _lincomb,
    check_sl2,
    euler,
    euler_b,
    euler_f,
    generator_pairs,
    generator_vector_field,
    killing_check,
    laplace_beltrami,
    laplace_beltrami_bosonic,
    laplace_beltrami_fermionic,
    metric,
    nabla2,
    operator_matrices,
    osp_generator,
    partial_vector_field,
    plain_partial,
    r2,
    theta2,
    variable_poly,
    vec_to_poly,
)
from superh.checks import suite_killing
from superh.harmonic import decompose_Hk, harmonic_basis, projection_Q
from superh.linalg import Subspace

from reference import (entry, generator_commutator, inv_entry, nabla2_from_metric, nabla_upper,
                       nabla_upper_by_raising, poly_to_vec, product_leaf_arrays,
                       power_by_polynomials, r2_from_metric)

SMALL_GRID = [(1, 0), (2, 0), (1, 1), (2, 1), (3, 1), (0, 1), (0, 2), (2, 2)]


def test_metric_shape():
    met = metric(2, 1)
    assert entry(met, 1, 1) == 1 and entry(met, 2, 2) == 1
    assert entry(met, 3, 4) == Fraction(-1, 2) and entry(met, 4, 3) == Fraction(1, 2)
    assert inv_entry(met, 3, 4) == 2 and inv_entry(met, 4, 3) == -2


def test_metric_check_reads_only_the_nonzero_entries():
    start = time.perf_counter()
    met = metric(400, 0)  # built, and so checked, on every call
    assert time.perf_counter() - start < 2 and met.size == 400


def test_metric_rows_are_sparse():
    start = time.perf_counter()
    met = metric(1500, 0)
    assert time.perf_counter() - start < 0.5
    assert all(len(row) == 1 for row in met.g + met.g_inv)
    met = metric(2, 3)
    assert [len(row) for row in met.g] == [1] * 8 and entry(met, 3, 3) == 0


def test_laplace_beltrami_loops_over_the_nonzero_metric_entries(monkeypatch):
    # the generators stubbed, so only the loops over the metric are timed
    monkeypatch.setattr(diffops, "osp_generator", lambda i, j, m, n: diffops.IDENTITY)
    start = time.perf_counter()
    _, form_b = laplace_beltrami.__wrapped__(250, 0)
    assert time.perf_counter() - start < 2
    assert len(form_b.parts) == 250 ** 2


def test_metric_check_catches_one_wrong_inverse_entry():
    met = metric(2, 2)
    for (i, j, x) in [(2, 3, Fraction(3)), (0, 1, Fraction(1)), (5, 4, Fraction(2))]:
        g_inv = [dict(row) for row in met.g_inv]
        g_inv[i][j] = x
        with pytest.raises(AssertionError):
            diffops._check_metric(Metric(2, 2, met.g, tuple(g_inv)))


def test_r2_examples():
    assert r2(1, 0) == SP.x(1, 2)
    assert r2(0, 1) == -(SP.xg(1) * SP.xg(2))
    assert r2(2, 1) == SP.x(1, 2) + SP.x(2, 2) - SP.xg(1) * SP.xg(2)


def test_r2_agrees_with_metric_construction():
    for (m, n) in SMALL_GRID:
        assert r2(m, n) == r2_from_metric(m, n), (m, n)


def test_nabla2_examples():
    assert nabla2(1, 0).apply(SP.x(1, 2)) == SP.constant(2)
    # -4 d/dxg1 d/dxg2 applied to xg1*xg2: inner derivative first
    assert nabla2(0, 1).apply(SP.xg(1) * SP.xg(2)) == SP.constant(4)


def test_nabla2_agrees_with_metric_construction():
    for (m, n) in SMALL_GRID:
        lap_a, lap_b = nabla2(m, n), nabla2_from_metric(m, n)
        for k in range(0, 5):
            for mono in monomial_basis(m, n, k):
                f = SP.monomial(mono)
                assert lap_a.apply(f) == lap_b.apply(f), (m, n, render(f))


def test_nabla_upper_raising_agrees():
    for (m, n) in [(2, 1), (1, 2), (3, 2)]:
        met = metric(m, n)
        for j in range(1, m + 2 * n + 1):
            a, b = nabla_upper(met, j), nabla_upper_by_raising(met, j)
            for mono in monomial_basis(m, n, 2):
                f = SP.monomial(mono)
                assert a.apply(f) == b.apply(f)


def test_nabla2_of_r2_is_twice_superdimension():
    for (m, n) in SMALL_GRID:
        M = m - 2 * n
        assert nabla2(m, n).apply(r2(m, n)) == SP.constant(2 * M), (m, n)


def test_euler_operators():
    f = SP.x(1) * SP.xg(1)
    assert euler(2, 1).apply(f) == f.scaled(2)
    assert euler_b(2).apply(SP.xg(1) * SP.xg(2)).is_zero()
    assert euler_f(1).apply(f) == f
    # eigenvalue k on arbitrary degree-k monomials
    for k in range(0, 5):
        for mono in monomial_basis(2, 2, k):
            f = SP.monomial(mono)
            assert euler(2, 2).apply(f) == f.scaled(k)


def test_osp_generator_examples():
    assert osp_generator(1, 2, 2, 1).apply(SP.x(1)) == -SP.x(2)
    # the mixed generator reproduces 2 x_i d/dxg(2j) - xg(2j-1) d/dx_i
    for (m, n) in [(1, 1), (2, 1), (2, 2)]:
        L = osp_generator(1, m + 1, m, n)
        for k in range(0, 4):
            for mono in monomial_basis(m, n, k):
                f = SP.monomial(mono)
                explicit = SP.x(1).scaled(2) * f.dxg(2) - SP.xg(1) * f.dx(1)
                assert L.apply(f) == explicit, (m, n, render(f))


def test_generators_annihilate_r2():
    for (m, n) in [(2, 1), (3, 1), (2, 2)]:
        R2 = r2(m, n)
        for (i, j) in generator_pairs(m, n):
            assert osp_generator(i, j, m, n).apply(R2).is_zero(), (m, n, i, j)


def test_generator_index_errors():
    with pytest.raises(IndexError):
        osp_generator(0, 1, 2, 1)
    with pytest.raises(IndexError):
        osp_generator(1, 5, 2, 1)


def test_sl2_relations():
    # 2H = 2d + M is the zero map on P_1 of (2|4) and on P_0 of (4|4)
    for (m, n, k_max) in [(1, 0, 4), (2, 1, 6), (0, 2, 4), (2, 2, 3), (4, 2, 2)]:
        rep = check_sl2(m, n, k_max)
        assert rep.passed, (m, n, rep.failures[:2])


def test_sl2_requires_kmax():
    with pytest.raises(ValueError):
        check_sl2(2, 1, 1)


def _sl2_with_tampered(m, n, k_max, name, extra):
    """check_sl2 on a fresh owner whose held tree `name` has `extra` added."""
    operator_matrices.cache_clear()
    try:
        mats = operator_matrices(m, n)
        setattr(mats, name, mats._hold(Add((getattr(mats, name), extra))))
        return check_sl2(m, n, k_max)
    finally:
        operator_matrices.cache_clear()


def _x1_power_times_d1_power(j):
    """x1^j (d/dx1)^j, which vanishes below degree j and not on x1^j."""
    return Compose((MultiplyBy(SP.x(1, j)),) + (Differentiate(1),) * j)


def test_sl2_fails_on_a_wrong_euler_operator():
    for (m, n) in [(1, 0), (2, 1), (2, 2)]:
        rep = _sl2_with_tampered(m, n, 3, "euler", _x1_power_times_d1_power(2))
        assert not rep.passed
        assert rep.failures[0] == (2, "E=deg", "x1^2"), (m, n, rep.failures[:2])
        assert {name for _, name, _ in rep.failures} == {"E=deg"}


def test_sl2_reads_the_euler_operator_above_k_max():
    """E is checked on every P_d the relations touch, d <= k_max + 2."""
    for j in (3, 4):
        rep = _sl2_with_tampered(2, 1, 2, "euler", _x1_power_times_d1_power(j))
        assert rep.failures[0] == (j, "E=deg", f"x1^{j}"), (j, rep.failures[:2])


def test_sl2_fails_on_a_wrong_r2():
    """R^2 + x1^2 breaks [A,B] = H, also where 2d + M = 0 (P_1 of (2|4))."""
    for (m, n) in [(1, 0), (2, 1), (2, 2)]:
        rep = _sl2_with_tampered(m, n, 2, "mul_r2", MultiplyBy(SP.x(1, 2)))
        assert not rep.passed
        assert "[A,B]=H" in {name for _, name, _ in rep.failures}, (m, n, rep.failures[:2])
        assert "E=deg" not in {name for _, name, _ in rep.failures}
        if (m, n) == (2, 2):
            assert any(k == 1 for k, _, _ in rep.failures), rep.failures


def test_laplace_beltrami_forms_agree():
    for (m, n) in [(1, 1), (2, 1), (3, 1), (2, 2), (2, 0), (0, 2)]:
        form_a, form_b = laplace_beltrami(m, n)
        for k in range(0, 4):
            for mono in monomial_basis(m, n, k):
                f = SP.monomial(mono)
                assert form_a.apply(f) == form_b.apply(f), (m, n, render(f))


def test_laplace_beltrami_examples():
    form_a, _ = laplace_beltrami(2, 1)
    assert form_a.apply(SP.one()).is_zero()
    # M = 0 at (2|2): R^2 is harmonic there and E R^2 = 2 R^2, so LB R^2 = 0
    assert form_a.apply(r2(2, 1)).is_zero()


def test_generators_commute_with_sl2_realization():
    for (m, n) in [(2, 1), (1, 1)]:
        lap = nabla2(m, n)
        R2 = r2(m, n)
        E = euler(m, n)
        for (i, j) in generator_pairs(m, n):
            L = osp_generator(i, j, m, n)
            for k in range(0, 4):
                for mono in monomial_basis(m, n, k):
                    f = SP.monomial(mono)
                    assert lap.apply(L.apply(f)) == L.apply(lap.apply(f))
                    assert R2 * L.apply(f) == L.apply(R2 * f)
                    assert E.apply(L.apply(f)) == L.apply(E.apply(f))


def _flatten(cols, dim):
    vec = {}
    for c, col in enumerate(cols):
        for r, x in col.items():
            vec[c * dim + r] = x
    return vec


def test_generator_commutators_close():
    """Graded commutators stay in the span of the generators."""
    for (m, n) in [(2, 1), (1, 1), (3, 1)]:
        dim1 = len(monomial_basis(m, n, 1))
        pairs = generator_pairs(m, n)
        span = Subspace.from_vectors(
            [_flatten(operator_matrices(m, n).matrix(osp_generator(i, j, m, n), 1), dim1)
             for (i, j) in pairs], dim1 * dim1)
        # the commutator trees are built per call, so their matrices are not
        # left in the shared object
        mats = OperatorMatrices(m, n)
        for (i, j) in pairs:
            for (k, l) in pairs:
                comm = generator_commutator(i, j, k, l, m, n)
                vec = _flatten(mats.matrix(comm, 1), dim1)
                assert span.contains(vec), (m, n, (i, j), (k, l))


def test_killing_examples():
    m, n = 2, 1
    assert killing_check(partial_vector_field(1, m, n), m, n)
    assert killing_check(partial_vector_field(3, m, n), m, n)
    for (i, j) in generator_pairs(m, n):
        assert killing_check(generator_vector_field(i, j, m, n), m, n), (i, j)
    # Euler-type field x1 d/dx1 is not Killing
    assert not killing_check({1: SP.x(1)}, m, n)


def test_killing_rejects_the_quadratic_control():
    """X_1 X_{m+2n} d/dX_1, the negative control of suite_killing, is never Killing."""
    cells = [(m, n) for m in (1, 2, 3, 4) for n in (0, 1, 2)] + [(0, 1), (0, 2)]
    for (m, n) in cells:
        size = m + 2 * n
        control = {1: variable_poly(1, m, n) * variable_poly(size, m, n)}
        assert not killing_check(control, m, n), (m, n)
    assert suite_killing(cells + [(0, 0)]).status == "pass"


def test_unified_partial_indexing():
    f = SP.x(1) * SP.xg(1)
    assert plain_partial(1, 2, 1).apply(f) == SP.xg(1)
    assert plain_partial(3, 2, 1).apply(f) == SP.x(1)
    with pytest.raises(IndexError):
        plain_partial(5, 2, 1)


def test_killing_check_differentiates_only_the_held_variables(monkeypatch):
    """An L_ij field has two components, each one variable: O(1) pairs of
    indices can fail, not all (m+2n)^2 of them."""
    calls = []
    for name in ("dx", "dxg"):
        def counted(self, i, _d=getattr(SP, name)):
            calls.append(i)
            return _d(self, i)
        monkeypatch.setattr(SP, name, counted)
    assert killing_check(generator_vector_field(1, 2, 40, 0), 40, 0)
    assert 0 < len(calls) <= 4
    calls.clear()
    # x1 d/dx1 fails at the pair (1, 1), the only one tested
    assert not killing_check({1: SP.x(1)}, 40, 0) and len(calls) == 2


def test_killing_rejects_mixed_parity():
    with pytest.raises(ValueError):
        killing_check({1: SP.x(1) + SP.xg(1)}, 2, 1)
    with pytest.raises(ValueError):
        killing_check({1: SP.x(1), 3: SP.x(1)}, 2, 1)


def test_poly_vec_roundtrip():
    for mono in monomial_basis(2, 1, 3):
        f = SP.monomial(mono)
        v = poly_to_vec(f, 2, 1, 3)
        assert vec_to_poly(v, 2, 1, 3) == f
    with pytest.raises(ValueError):
        poly_to_vec(SP.x(1), 2, 1, 2)


# -- per-degree matrices against the tree evaluator -----------------------------

MATRIX_GRID = [(m, n) for m in range(0, 4) for n in range(0, 3)]


def _named_operators(m, n):
    """(name, operator, degree shift) of every named operator on (m|2n)."""
    size = m + 2 * n
    form_a, form_b = laplace_beltrami(m, n)
    ops = [("nabla2", nabla2(m, n), -2), ("nabla2_from_metric", nabla2_from_metric(m, n), -2),
           ("euler", euler(m, n), 0), ("euler_b", euler_b(m), 0), ("euler_f", euler_f(n), 0),
           ("lb_form_a", form_a, 0), ("lb_form_b", form_b, 0),
           ("lb_bosonic", laplace_beltrami_bosonic(m), 0),
           ("lb_fermionic", laplace_beltrami_fermionic(n), 0),
           ("r2", MultiplyBy(r2(m, n)), 2), ("rb2", MultiplyBy(r2(m, 0)), 2),
           ("theta2", MultiplyBy(theta2(n)), 2)]
    ops += [("x1", MultiplyBy(SP.x(1)), 1)] if m else []
    ops += [(f"L_{i}{j}", osp_generator(i, j, m, n), 0)
            for i in range(1, size + 1) for j in range(1, size + 1)]
    return ops


def _tree_column(op, mono, m, n, k_out):
    image = op.apply(SP.monomial(mono))
    return poly_to_vec(image, m, n, k_out) if image else {}


def test_matrices_equal_the_tree_on_every_monomial(monkeypatch):
    """matrix(op, k) reads the basis of P_k and apply(op, units, k) the unit
    vectors; both equal the tree on every monomial.  Each operator is held by
    a fresh owner, so that no kept matrix stands in for either path."""
    seen = set()  # the cases met on the basis
    eval_words = OperatorMatrices._eval_words

    def spy(self, compiled, vecs, k):
        factor, k_out, words = compiled
        if vecs is None:
            seen.update({("factor", factor), ("empty chain", any(not c for _, c in words)),
                         ("dim 0", not self.index(k)),
                         ("below 0", k_out is not None and k_out < 0)})
        return eval_words(self, compiled, vecs, k)

    monkeypatch.setattr(OperatorMatrices, "_eval_words", spy)
    for m in range(0, 5):
        for n in range(0, 3):
            for name, op, shift in _named_operators(m, n):
                mats = OperatorMatrices(m, n)
                mats._hold(op)
                for k in range(-1, 5):
                    basis = monomial_basis(m, n, k) if k >= 0 else ()
                    cols = mats.apply(op, [{c: 1} for c in range(len(basis))], k)
                    assert mats.matrix(op, k) == cols, (m, n, name, k)
                    assert len(cols) == len(basis), (m, n, name, k)
                    for mono, col in zip(basis, cols):
                        assert col == _tree_column(op, mono, m, n, k + shift), \
                            (m, n, name, k, render(SP.monomial(mono)))
    assert {("factor", Fraction(1, 2)), ("empty chain", True), ("dim 0", True),
            ("below 0", True)} <= seen


def test_primitive_matrices_match_dx_and_dxg():
    for (m, n) in MATRIX_GRID:
        leaves = ([(Differentiate(i), lambda f, i=i: f.dx(i)) for i in range(1, m + 1)]
                  + [(Differentiate(j, fermionic=True), lambda f, j=j: f.dxg(j))
                     for j in range(1, 2 * n + 1)])
        mats = OperatorMatrices(m, n)
        for k in range(0, 5):
            target = len(monomial_basis(m, n, k - 1)) if k else 0
            for op, deriv in leaves:
                cols = mats.matrix(op, k)
                for mono, col in zip(monomial_basis(m, n, k), cols):
                    image = deriv(SP.monomial(mono))
                    assert col == (poly_to_vec(image, m, n, k - 1) if image else {})
                    # columns live in the basis of P_{k-1}
                    assert all(0 <= r < target for r in col)


def test_product_leaves_match_the_monomial_products():
    """Multiplication leaves, read from the derivative leaves, equal the
    products monomial by monomial, for every monomial of degree <= 3."""
    for m in range(0, 5):
        for n in range(0, 3):
            mats = OperatorMatrices(m, n)
            for what in (mono for d in range(0, 4) for mono in monomial_basis(m, n, d)):
                for k in range(0, 5):
                    assert mats._leaf_arrays(what, None, k) == \
                        product_leaf_arrays(what, m, n, k), (m, n, what, k)


def _leaf_or_error(build):
    try:
        return build()
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize("m, n", [(0, 1), (1, 0), (2, 1), (3, 2)])
def test_a_product_by_an_outside_variable_is_refused_as_by_the_products(m, n):
    """x(m+1) and xg(2n+1) lie outside (m|2n), and so does x1 xg(2n+1) or
    xg1 xg(2n+1), whose products vanish on the monomials that hold xg1: the
    leaf raises the products' ValueError, or is their zero map."""
    inside = SP.x(1) if m else SP.xg(1)
    for poly, single in [(SP.x(m + 1), True), (SP.xg(2 * n + 1), True),
                         (inside * SP.xg(2 * n + 1), False)]:
        (what,) = poly.terms
        for k in range(0, 4):
            want = _leaf_or_error(lambda: product_leaf_arrays(what, m, n, k))
            got = _leaf_or_error(lambda: OperatorMatrices(m, n)._leaf_arrays(what, None, k))
            assert got == want, (m, n, what, k)
            # a single outside variable is refused wherever P_k has a monomial
            assert isinstance(got, str) or not single or not monomial_basis(m, n, k)
        with pytest.raises(ValueError, match="lies outside"):
            OperatorMatrices(m, n).matrix(MultiplyBy(poly), 1)


# (0|4), (1|2), (2|2), (3|4), (4|0) and (4|4)
R2_CELLS = [(0, 2), (1, 1), (2, 1), (3, 2), (4, 0), (4, 2)]


def test_power_equals_the_polynomial_route_on_harmonic_bases():
    vanished = 0
    for (m, n) in R2_CELLS:
        mats = operator_matrices(m, n)
        # (held multiplier, its polynomial); x1 is no variable of (0|2n)
        multipliers = [(mats.mul_r2, r2(m, n)), (mats.mul_theta2, theta2(n))]
        multipliers += [(mats.mul_x1, SP.x(1))] if m else []
        for op, f in multipliers:
            for k in range(0, 4):
                rows = harmonic_basis(m, n, k).rows
                for j in range(0, 4):
                    got = mats.power(op, rows, k, j)
                    assert got == power_by_polynomials(f, rows, m, n, k, j), (m, n, f, k, j)
                    if m == 0:
                        vanished += sum(not v for v in got)
    assert vanished  # theta^{2j} h = 0 by nilpotency at m = 0, e.g. theta^2 Hf_2 in (0|4)


def test_degree_changing_columns_use_the_target_basis():
    m, n = 2, 1
    mats = operator_matrices(m, n)
    for k in range(0, 4):
        for op, k_out in ((nabla2(m, n), k - 2), (mats.mul_r2, k + 2)):
            cols = mats.matrix(op, k)
            assert len(cols) == len(monomial_basis(m, n, k))
            for mono, col in zip(monomial_basis(m, n, k), cols):
                image = op.apply(SP.monomial(mono))
                got = vec_to_poly(col, m, n, k_out) if col else SP.zero()
                assert got == image


def test_integral_matrices_keep_int_entries():
    m, n, k = 2, 2, 3
    form_a, form_b = laplace_beltrami(m, n)
    for op in (nabla2(m, n), form_a, form_b, osp_generator(1, 3, m, n),
               osp_generator(3, 4, m, n)):
        for col in operator_matrices(m, n).matrix(op, k):
            assert all(type(x) is int for x in col.values())
    mats = OperatorMatrices(m, n)  # for the trees built here
    third = mats.matrix(Compose((Scale(Fraction(1, 3)), euler(m, n))), k)
    assert third[0] == {0: 1} and third[1] == {1: 1}
    # only a Scale by a true fraction leaves Fraction entries
    lap_third = mats.matrix(Compose((Scale(Fraction(1, 3)), nabla2(m, n))), 2)
    assert lap_third[0] == {0: Fraction(2, 3)} and type(lap_third[0][0]) is Fraction


def test_closed_form_generators_equal_the_tree_on_every_monomial():
    """generator_image against osp_generator(i, j).apply on the acceptance grid."""
    for m in range(1, 5):
        for n in range(0, 3):
            for k in range(0, 7):
                mats = OperatorMatrices(m, n)
                basis = monomial_basis(m, n, k)
                for (i, j) in generator_pairs(m, n):
                    op = osp_generator(i, j, m, n)
                    for c, mono in enumerate(basis):
                        got = mats.generator_image(i, j, {c: 1}, k)
                        assert got == _tree_column(op, mono, m, n, k), (m, n, k, i, j, c)
                        assert all(type(x) is int for x in got.values())
    # a vector whose images cancel: L_12 (x1^2 + x2^2) = 0 in (2|0)
    v = poly_to_vec(SP.x(1, 2) + SP.x(2, 2), 2, 0, 2)
    assert OperatorMatrices(2, 0).generator_image(1, 2, v, 2) == {}
    with pytest.raises(IndexError):
        OperatorMatrices(2, 1).generator_image(0, 1, {0: 1}, 1)


def test_generator_words_are_the_flattened_trees():
    for (m, n), count in [((2, 1), 14), ((4, 2), 60)]:
        pairs = generator_pairs(m, n)
        words = [diffops._flatten(osp_generator(i, j, m, n))[0] for (i, j) in pairs]
        assert sum(map(len, words)) == count
        mats = OperatorMatrices(m, n)
        for (i, j) in pairs:
            mats.generator_image(i, j, {0: 1}, 2)
        assert sum(len(words) for _, _, words in mats._compiled.values()) == count


def test_the_two_laplace_beltrami_forms_keep_distinct_words():
    # in (2|0) no product of either form has more words than its factors
    form_a, form_b = laplace_beltrami(2, 0)
    words_a, words_b = diffops._flatten(form_a)[0], diffops._flatten(form_b)[0]
    assert (len(words_a), len(words_b)) == (8, 4)
    assert not set(words_a) & set(words_b)
    # in (4|4) R^2 nabla^2 and E(M-2+E) would multiply out to 36 words each,
    # so form A runs by its structure; form B is a sum of products of two
    # generators, two words each
    form_a, form_b = laplace_beltrami(4, 2)
    assert diffops._flatten(form_a) is None
    assert all(diffops._flatten(f) for part in form_a.parts for f in part.parts)
    words_b = diffops._flatten(form_b)[0]
    assert len(words_b) == 116 and max(map(len, words_b)) == 4


def test_a_product_of_long_sums_is_not_multiplied_out():
    """Form A at m = 70 would be 2 m^2 words of three and four leaves; form B,
    m^2 products of two generators, stays within four words a product."""
    m, k = 70, 2
    form_a = laplace_beltrami_bosonic(m)
    assert diffops._flatten(form_a) is None
    form_b = laplace_beltrami(m, 0)[1]
    assert len(diffops._flatten(form_b)[0]) <= 4 * len(form_b.parts) == 4 * m * m
    mats = OperatorMatrices(m, 0)
    start = time.perf_counter()
    cols = mats.matrix(form_a, k)
    assert time.perf_counter() - start < 1.5
    # on P_2 of (m|0) form A acts by -2m on the harmonics and by 0 on R^2
    (c,) = poly_to_vec(SP.x(1) * SP.x(2), m, 0, k)
    assert cols[c] == {c: -2 * m}
    assert mats.apply(form_a, [poly_to_vec(r2(m, 0), m, 0, k)], k) == [{}]


def test_a_sum_run_part_by_part_ignores_its_zero_parts():
    m, n, k = 2, 1, 2
    r2e = Compose((MultiplyBy(r2(m, n)), euler(m, n)))  # 3 x 4 words: run by structure
    for op in (Add((r2e, ZERO_OP)), Add((Compose((nabla2(m, n), ZERO_OP)), r2e))):
        assert diffops._flatten(op) is None
        mats = OperatorMatrices(m, n)
        mats._hold(op)  # so that its matrix, with the target degree, is kept
        for col, mono in zip(mats.matrix(op, k), monomial_basis(m, n, k)):
            assert col == _tree_column(op, mono, m, n, k + 2)
        assert mats._roots[(id(op), k)][1] == k + 2


class _Unknown(LinearOperator):
    pass


@pytest.mark.parametrize("op, error", [
    (Add((nabla2(2, 1), IDENTITY)), ValueError),
    (Compose((euler(2, 1), Add((Differentiate(1), IDENTITY)))), ValueError),
    (MultiplyBy(SP.x(1) + SP.one()), ValueError),
    (_Unknown(), TypeError),
    (Add((euler(2, 1), _Unknown())), TypeError),
    # R^2 E does not flatten (3 x 4 words), so this sum runs part by part
    (Add((Compose((MultiplyBy(r2(2, 1)), euler(2, 1))), IDENTITY)), ValueError),
])
def test_matrix_and_apply_refuse_a_tree_without_a_matrix(op, error):
    mats = OperatorMatrices(2, 1)
    held = dict(mats._flat)  # the owner's own trees
    with pytest.raises(error):
        mats.matrix(op, 2)
    with pytest.raises(error):
        mats.apply(op, [{0: 1}], 2)
    assert not mats._roots and not mats._compiled and mats._flat == held


def _top_level_flattens(monkeypatch, trees):
    """Calls of diffops._flatten on each of the trees, counted by position."""
    counts = [0] * len(trees)
    flatten = diffops._flatten

    def spy(op):
        for pos, tree in enumerate(trees):
            counts[pos] += op is tree
        return flatten(op)

    monkeypatch.setattr(diffops, "_flatten", spy)
    return counts


def test_matrix_trees_and_mul_r2_are_flattened_once_per_space(monkeypatch):
    m, n = 4, 2
    forms = laplace_beltrami(m, n)  # built, and held by the shared owner, first
    flattened = []  # every tree flattened from here on, the owner's own ones too
    flatten = diffops._flatten
    monkeypatch.setattr(diffops, "_flatten", lambda op: flattened.append(op) or flatten(op))
    mats = OperatorMatrices(m, n)
    form_a, form_b = (mats._hold(form) for form in forms)
    for k in range(5):
        assert mats.matrix(form_a, k) == mats.matrix(form_b, k)
        units = [{c: 1} for c in range(len(monomial_basis(m, n, k)))]
        mats.apply(mats.mul_r2, units, k)  # never passed to matrix here
    counts = [sum(op is tree for op in flattened) for tree in (form_a, form_b, mats.mul_r2)]
    assert counts == [1, 1, 1]  # form A does not flatten, and that is kept too
    assert mats._flat[id(form_b)][0] is form_b


def test_generator_words_are_flattened_once_per_space(monkeypatch):
    m, n = 2, 1
    pairs = generator_pairs(m, n)
    trees = [osp_generator(i, j, m, n) for (i, j) in pairs]
    counts = _top_level_flattens(monkeypatch, trees)
    mats = OperatorMatrices(m, n)
    for k in range(5):
        for (i, j), tree in zip(pairs, trees):
            for c, mono in enumerate(monomial_basis(m, n, k)):
                got = mats.generator_image(i, j, {c: 1}, k)
                assert got == _tree_column(tree, mono, m, n, k)
    assert counts == [1] * len(trees)


def test_a_sum_with_a_kept_part_gives_the_columns_of_the_sum():
    m, n, k = 2, 1, 3
    mats = OperatorMatrices(m, n)
    L = osp_generator(1, 3, m, n)
    mats._hold(L.parts[0])  # held, so its matrix is kept
    mats.matrix(L.parts[0], k)  # a part of L_13 now has a kept matrix at degree k
    basis = monomial_basis(m, n, k)
    units = [{c: 1} for c in range(len(basis))]
    for unit, col, mono in zip(units, mats.apply(L, units, k), basis):
        assert col == _tree_column(L, mono, m, n, k)
        assert mats.generator_image(1, 3, unit, k) == col


def test_apply_on_vectors_matches_the_projector_tree():
    """Q as a chain of factor mat-vecs, with and without kept Laplace-Beltrami matrices."""
    for (m, n, k, keep) in [(2, 1, 3, False), (2, 1, 3, True), (3, 1, 2, True),
                            (1, 1, 3, False), (1, 1, 3, True)]:
        # the projector factors hold the shared owner's Laplace-Beltrami trees,
        # which a new OperatorMatrices does not hold
        mats = operator_matrices(m, n) if keep else OperatorMatrices(m, n)
        if keep:
            mats.matrix(mats.lb_bosonic, k)
            mats.matrix(mats.lb_fermionic, k)
        for pc in decompose_Hk(m, n, k):
            Q = projection_Q(pc.l, pc.q, k, m, n)
            for piece in decompose_Hk(m, n, k):
                rows = Subspace.from_vectors(piece.vectors, dim_Pk(m, n, k)).rows
                vecs = rows
                for lb, shift, denom in reversed(Q.factors):
                    vecs = [_lincomb((1 / denom, w), (shift / denom, v))
                            for v, w in zip(vecs, mats.apply(lb, vecs, k))]
                for row, got in zip(rows, vecs):
                    image = Q.apply(vec_to_poly(row, m, n, k))
                    assert got == (poly_to_vec(image, m, n, k) if image else {})
