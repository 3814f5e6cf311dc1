import random
import time
from fractions import Fraction

import pytest
import sympy

from superh.superalgebra import SuperPolynomial as SP, monomial_basis, parse
from superh import checks, diffops, integration
from superh.diffops import r2, theta2, osp_generator, generator_pairs
from superh.harmonic import harmonic_basis, is_harmonic
from superh.integration import (
    PizzettiRows,
    ScaledRational,
    _dot,
    _pair,
    _pairing,
    _sphere_berezin,
    berezin_density_coefficients,
    invariance_suite,
    invariant_density_solutions,
    orthogonality_failures,
    pizzetti,
    reciprocal_gamma,
    sphere_moment,
    supersphere_integral_phi,
)

import reference
from reference import (LaurentSuperFunction, berezin, harmonic_polys, phi_sharp,
                       phi_sharp_inverse, poly_to_vec, sqrt_one_minus_theta2_over_r2)


# -- independent oracle: sympy Gamma ------------------------------------------------


def sympy_value(s: ScaledRational):
    return sympy.Rational(s.q.numerator, s.q.denominator) * sympy.pi ** sympy.Rational(s.h, 2)


def test_reciprocal_gamma_against_sympy():
    for t in range(-7, 9):
        a = Fraction(t, 2)
        got = sympy_value(reciprocal_gamma(a))
        expected = sympy.simplify(1 / sympy.gamma(sympy.Rational(t, 2)))
        assert sympy.simplify(got - expected) == 0, a


def test_reciprocal_gamma_examples():
    assert reciprocal_gamma(Fraction(1, 2)) == ScaledRational(1, -1)
    assert reciprocal_gamma(Fraction(0)) == ScaledRational.zero()
    assert reciprocal_gamma(Fraction(-2)) == ScaledRational.zero()
    assert reciprocal_gamma(Fraction(5, 2)) == ScaledRational(Fraction(4, 3), -1)


def test_scaled_rational_normalises_input_and_shares_its_zero():
    assert ScaledRational.zero() is ScaledRational.zero()
    assert ScaledRational.zero() == ScaledRational(0, 5) and ScaledRational(0, 5).h == 0
    value = ScaledRational(2, 0)
    assert type(value.q) is Fraction and value == ScaledRational(Fraction(2), 0)
    q = Fraction(3, 4)
    assert ScaledRational(q, 1).q is q  # a Fraction is kept as given


def test_sphere_moment_against_sympy():
    # 2 prod Gamma((a_i+1)/2) / Gamma((|a|+m)/2) for even exponents
    for m in (1, 2, 3):
        for alpha in [(0,) * m, (2,) + (0,) * (m - 1), (2, 2) + (0,) * (m - 2) if m >= 2 else (4,)]:
            got = sympy_value(sphere_moment(alpha, m))
            num = sympy.Integer(2)
            for a in alpha:
                num *= sympy.gamma(sympy.Rational(a + 1, 2))
            expected = num / sympy.gamma(sympy.Rational(sum(alpha) + m, 2))
            assert sympy.simplify(got - expected) == 0, (m, alpha)


def test_sphere_moment_examples():
    assert sphere_moment((0, 0), 2) == ScaledRational(2, 2)      # 2 pi
    assert sphere_moment((1, 0), 2) == ScaledRational.zero()
    assert sphere_moment((2, 0), 2) == ScaledRational(1, 2)      # pi


def test_phi_route_costs_only_the_nonzero_exponents():
    # each term holds one nonzero exponent and m - 1 zero ones
    m = 200
    f = parse("+".join(f"x{i}^64" for i in range(1, m + 1)))
    start = time.perf_counter()
    value = supersphere_integral_phi(f, m, 0)
    assert time.perf_counter() - start < 0.2
    assert value == pizzetti(f, m, 0)


def test_scaled_rational_arithmetic():
    a = ScaledRational(Fraction(1, 2), 2)
    b = ScaledRational(3, 2)
    assert a + b == ScaledRational(Fraction(7, 2), 2)
    assert (a * b) == ScaledRational(Fraction(3, 2), 4)
    assert a + ScaledRational.zero() == a
    with pytest.raises(ArithmeticError):
        _ = a + ScaledRational(1, 1)
    assert str(ScaledRational(2, 0)) == "2 * pi^0"
    assert str(ScaledRational(1, -1)) == "1 * pi^(-1/2)"
    rt = reference.scaled_rational_from_json(reference.scaled_rational_to_json(a))
    assert rt == a


# -- Berezin -------------------------------------------------------------------------


def test_berezin_examples():
    top, pref = berezin(SP.one(), 1)
    assert top.is_zero() and pref == ScaledRational(1, -2)
    top, _ = berezin(SP.xg(1) * SP.xg(2), 1)
    assert top == SP.one()
    top, _ = berezin(theta2(1), 1)
    assert top == SP.constant(-1)
    # bosonic coefficients ride along
    top, _ = berezin(SP.x(1, 2) * SP.xg(1) * SP.xg(2), 1)
    assert top == SP.x(1, 2)


# -- Pizzetti -------------------------------------------------------------------------


def test_pizzetti_examples():
    assert pizzetti(SP.one(), 3, 1) == ScaledRational(2, 0)
    assert pizzetti(SP.one(), 2, 1) == ScaledRational.zero()
    # only the k=1 term of the Laplacian series survives on x1^2
    assert pizzetti(SP.x(1, 2), 3, 1) == ScaledRational(2, 0)
    assert pizzetti(SP.xg(1), 2, 1) == ScaledRational.zero()


def test_pizzetti_classical_reduces_to_sphere_moment():
    for m in (1, 2, 3):
        for k in range(0, 5):
            for mono in monomial_basis(m, 0, k):
                exps = [0] * m
                for idx, e in mono.bosonic:
                    exps[idx - 1] = e
                assert pizzetti(SP.monomial(mono), m, 0) == sphere_moment(exps, m)


def test_pizzetti_requires_bosonic_direction():
    with pytest.raises(ValueError):
        pizzetti(SP.one(), 0, 1)


def test_pizzetti_equals_the_walk_on_random_polynomials():
    # mixed degrees up to 8; the cells with M = m - 2n <= 0 are included
    rng = random.Random(2029)
    for m in range(1, 5):
        for n in range(0, 3):
            monos = [mono for k in range(0, 9) for mono in monomial_basis(m, n, k)]
            for _ in range(12):
                f = SP({mono: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
                        for mono in rng.sample(monos, min(10, len(monos)))})
                assert pizzetti(f, m, n) == reference.pizzetti_by_walk(f, m, n), (m, n, str(f))


def test_pizzetti_walk_builds_no_polynomial(monkeypatch):
    calls = []
    for name in ("dx", "dxg", "__mul__"):
        def counted(self, other, _method=getattr(SP, name), _name=name):
            calls.append(_name)
            return _method(self, other)
        monkeypatch.setattr(SP, name, counted)
    f = SP({mono: Fraction(3, 4) for mono in monomial_basis(2, 2, 4)})
    assert pizzetti(f, 2, 2) == supersphere_integral_phi(f, 2, 2)
    assert pizzetti(SP.x(1, 2), 3, 1) == ScaledRational(2, 0)
    assert calls == []
    # the patches do count the tree path
    diffops.nabla2(2, 2).apply(f)
    assert {"dx", "dxg"} <= set(calls)


def test_pizzetti_step_differentiates_only_the_variables_a_term_holds():
    m = 400
    f = parse("+".join(f"x{i}^64" for i in range(1, m + 1)))
    start = time.perf_counter()
    value = pizzetti(f, m, 0)
    assert time.perf_counter() - start < 1.5
    assert value == pizzetti(SP.x(1, 64), m, 0) * m


# -- the radial rescaling morphism ------------------------------------------------------


def test_phi_sharp_examples():
    m, n = 2, 1
    assert phi_sharp(SP.one(), m, n).parts == {0: SP.one()}
    assert phi_sharp(SP.xg(1), m, n).parts == {0: SP.xg(1)}
    L = phi_sharp(SP.x(1, 2), m, n)
    assert L.parts[0] == SP.x(1, 2)
    assert L.parts[1] == -(theta2(n) * SP.x(1, 2))


def test_phi_sharp_is_algebra_morphism():
    m, n = 2, 1
    polys = [SP.x(1), SP.x(1, 2) + SP.x(2) * SP.xg(1), r2(m, n),
             SP.xg(1) * SP.xg(2) - SP.x(2, 2)]
    for f in polys:
        for g in polys:
            lhs = phi_sharp(f * g, m, n)
            rhs = phi_sharp(f, m, n) * phi_sharp(g, m, n)
            diff = lhs + rhs.scaled(-1)
            assert diff.equals(LaurentSuperFunction({}), m)


def test_phi_sharp_coordinate_rule():
    m, n = 2, 1
    sq = sqrt_one_minus_theta2_over_r2(m, n)
    for k in range(0, 4):
        for mono in monomial_basis(m, n, k):
            f = SP.monomial(mono)
            lhs = phi_sharp(SP.x(1) * f, m, n)
            rhs = (sq * phi_sharp(f, m, n)) * SP.x(1)
            assert (lhs + rhs.scaled(-1)).equals(LaurentSuperFunction({}), m)


def test_phi_sharp_inverse_is_identity():
    for (m, n) in [(2, 1), (3, 2), (1, 1)]:
        for k in range(0, 4):
            for mono in monomial_basis(m, n, k):
                f = SP.monomial(mono)
                back = phi_sharp_inverse(phi_sharp(f, m, n), m, n)
                assert back.equals(LaurentSuperFunction.from_poly(f), m)


# -- the phi# route in closed form against its polynomial definition ------------------


def berezin_density(m, n):
    """(1 - theta^2)^(m/2 - 1) as a polynomial, truncated by nilpotency."""
    th = theta2(n)
    out, power, coeff = SP.one(), SP.one(), Fraction(1)
    e = Fraction(m, 2) - 1
    for i in range(1, n + 1):
        power = power * th
        coeff *= (e - (i - 1)) / i
        out = out + power.scaled(coeff * (-1) ** i)
    return out


def density_poly(coeffs, n):
    """sum_i coeffs[i] theta^{2i}."""
    return sum((theta2(n) ** i * c for i, c in enumerate(coeffs)), SP.zero())


def sphere_berezin_by_definition(image, density, m, n):
    """int_S int_B density * image, for image = phi#(f): the Berezin integral of
    every Laurent part (r = 1 on the sphere), then the sphere moments."""
    total = ScaledRational.zero()
    for numerator in (image * density).parts.values():
        top, prefactor = berezin(numerator, n)
        for mono, c in top.terms.items():
            assert not mono.fermionic
            exps = [0] * m
            for idx, e in mono.bosonic:
                exps[idx - 1] = e
            total = total + sphere_moment(exps, m) * prefactor * c
    return total


def test_berezin_density_truncates():
    # (1-theta^2)^(m/2-1) at n=1: 1 - (m/2-1) theta^2
    for m in (1, 2, 3, 4):
        expected = SP.one() - theta2(1).scaled(Fraction(m, 2) - 1)
        assert berezin_density(m, 1) == expected
        assert berezin_density_coefficients(m, 1) == (1, 1 - Fraction(m, 2))
        for n in range(0, 4):
            coeffs = berezin_density_coefficients(m, n)
            assert density_poly(coeffs, n) == berezin_density(m, n), (m, n)


def test_the_closed_form_density_equals_its_recurrence():
    for m in range(1, 31):
        for n in range(0, 8):
            assert (berezin_density_coefficients(m, n)
                    == tuple(reference.berezin_density_recurrence(m, n)))
    # for even m the factor 2r - m vanishes at r = m/2, and so does every later delta
    assert berezin_density_coefficients(4, 3) == (1, -1, 0, 0)
    assert berezin_density_coefficients(2, 2) == (1, 0, 0)
    assert berezin_density_coefficients(3, 2) == (1, Fraction(-1, 2), Fraction(-1, 8))


def test_closed_form_phi_route_matches_its_definition_on_every_monomial():
    for m in range(1, 5):
        for n in range(0, 4):
            densities = [(berezin_density_coefficients(m, n), berezin_density(m, n))]
            densities += [([int(t == i) for t in range(n + 1)], theta2(n) ** i)
                          for i in range(n + 1)]
            for k in range(0, 7):
                for mono in monomial_basis(m, n, k):
                    f = SP.monomial(mono, 3)
                    image = phi_sharp(f, m, n)
                    for coeffs, density in densities:
                        assert (_sphere_berezin(f, coeffs, m, n)
                                == sphere_berezin_by_definition(image, density, m, n)), \
                            (m, n, mono, coeffs)


def test_closed_form_phi_route_matches_its_definition_on_random_polynomials():
    rng = random.Random(20240)
    for (m, n) in [(1, 1), (2, 2), (3, 3), (4, 2), (2, 3), (3, 0)]:
        monos = [mono for k in range(0, 7) for mono in monomial_basis(m, n, k)]
        for _ in range(10):
            f = SP({mono: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                    for mono in rng.sample(monos, 6)})
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n + 1)]
            assert len({len(mono.fermionic) for mono in f.terms}) > 1 or n == 0
            assert (_sphere_berezin(f, coeffs, m, n) == sphere_berezin_by_definition(
                phi_sharp(f, m, n), density_poly(coeffs, n), m, n)), (m, n, str(f))


def test_phi_route_builds_no_polynomial_product(monkeypatch):
    calls = []

    def counted_phi(f, m, n, _phi=reference.phi_sharp):
        calls.append("phi_sharp")
        return _phi(f, m, n)

    def counted_mul(self, other, _mul=SP.__mul__):
        calls.append("__mul__")
        return _mul(self, other)

    polys = [(parse("x1^2*xg1*xg2 - 3*x2^4 + 1/2*xg1*xg2*xg3*xg4 + x1*xg1"), 2, 2),
             (parse("x1^2*x2^2*x3^2 + xg1*xg2"), 3, 1)]
    diffops.operator_matrices(2, 1)  # its construction builds R^2 by products
    monkeypatch.setattr(reference, "phi_sharp", counted_phi)
    monkeypatch.setattr(SP, "__mul__", counted_mul)
    for f, m, n in polys:
        supersphere_integral_phi(f, m, n)
    assert invariant_density_solutions(2, 1, k_max=4)
    assert calls == []
    # the patches do count the polynomial definition
    f, m, n = polys[0]
    sphere_berezin_by_definition(reference.phi_sharp(f, m, n), berezin_density(m, n), m, n)
    assert {"phi_sharp", "__mul__"} <= set(calls)


# -- the two integration routes agree ------------------------------------------------


def test_supersphere_examples():
    assert supersphere_integral_phi(SP.one(), 3, 1) == ScaledRational(2, 0)
    assert supersphere_integral_phi(SP.xg(1), 2, 1) == ScaledRational.zero()


def test_routes_agree_on_monomials():
    for (m, n) in [(1, 0), (1, 1), (2, 1), (3, 1), (2, 2)]:
        for k in range(0, 5):
            for mono in monomial_basis(m, n, k):
                f = SP.monomial(mono)
                assert pizzetti(f, m, n) == supersphere_integral_phi(f, m, n), (m, n, f)


def test_modulo_r2_property():
    for (m, n) in [(2, 1), (3, 1), (2, 2)]:
        R2 = r2(m, n)
        for k in range(0, 4):
            for mono in monomial_basis(m, n, k):
                f = SP.monomial(mono)
                assert pizzetti(R2 * f, m, n) == pizzetti(f, m, n)
                assert (supersphere_integral_phi(R2 * f, m, n)
                        == supersphere_integral_phi(f, m, n))


def test_invariance_suite():
    for (m, n) in [(3, 1), (2, 1), (1, 1)]:
        report = invariance_suite(m, n, 4)
        assert report.passed, (m, n, report.failures[:2])


def test_pizzetti_rows_match_the_tree_on_every_monomial():
    # m = 1 and the cells with M = m - 2n <= 0 are included
    for m in range(1, 5):
        for n in range(0, 3):
            T = PizzettiRows(m, n)
            for k in range(0, 7):
                row = T.row(k)
                assert all(type(x) is int for x in row.values()), (m, n, k)
                if k % 2:
                    assert row == {} and T.weight(k).is_zero()
                for c, mono in enumerate(monomial_basis(m, n, k)):
                    assert T.weight(k) * row.get(c, 0) == \
                        reference.pizzetti_by_walk(SP.monomial(mono), m, n), (m, n, k, mono)


def test_closed_form_rows_equal_the_chain_reference():
    for m in range(1, 5):
        for n in range(0, 3):
            T = PizzettiRows(m, n)
            for k in range(0, 9):
                assert T.row(k) == reference.pizzetti_row_by_chain(m, n, k), (m, n, k)


def test_pizzetti_rows_on_a_polynomial():
    m, n = 3, 1
    T = PizzettiRows(m, n)
    f = parse("3*x1^2*x2^2 - 1/2*x3^2*xg1*xg2 + x1*x2^3 + 5*xg1*xg2*x1^2")
    assert T.weight(4) * _dot(T.row(4), poly_to_vec(f, m, n, 4)) == pizzetti(f, m, n)
    R2 = r2(m, n)
    assert T.weight(4) * _dot(T.row(4), poly_to_vec(R2 * R2, m, n, 4)) == T.weight(0)
    with pytest.raises(ValueError):
        PizzettiRows(0, 1)
    with pytest.raises(ValueError):
        T.row(-2)


def _non_harmonic_cases():
    """T of (3|2) and (k, a_rows, l, b_rows) of the orthogonality check; x1^2 is
    not harmonic (nabla^2 x1^2 = 2)."""
    m, n = 3, 1
    h2 = list(harmonic_basis(m, n, 2).rows)
    x1sq = poly_to_vec(SP.x(1, 2), m, n, 2)
    return PizzettiRows(m, n), [
        (0, [{0: 1}], 2, h2),
        (0, [{0: 1}], 2, h2 + [x1sq]),
        (2, [x1sq], 4, [poly_to_vec(SP.x(2, 4), m, n, 4)]),
        (2, [x1sq], 1, [{0: 1}]),
        (2, [poly_to_vec(parse("x1^2 - x2^2"), m, n, 2)], 4,
         [poly_to_vec(parse("x1^4 + x2^4"), m, n, 4)]),
    ]


def test_orthogonality_check_reports_a_non_harmonic_vector():
    T, cases = _non_harmonic_cases()
    assert orthogonality_failures(T, *cases[0]) == []
    # x1^2 is not harmonic: nabla^2 x1^2 = 2, and T(1 * x1^2) != 0
    failures = orthogonality_failures(T, *cases[1])
    assert failures == [("T(H_k H_l) != 0", (0, 2), None, str(SP.x(1, 2)))]
    # a non-harmonic left factor is reported too
    failures = orthogonality_failures(T, *cases[2])
    assert failures == [("T(H_k H_l) != 0", (2, 4), None, str(SP.x(1, 2) * SP.x(2, 4)))]
    # T vanishes on odd degrees, so a pair with an odd degree sum is not checked
    assert orthogonality_failures(T, *cases[3]) == []
    # no factor is harmonic, but T of the product vanishes by the symmetry x1 <-> x2
    assert orthogonality_failures(T, *cases[4]) == []


def test_the_pairing_equals_the_column_reference_on_whole_bases():
    # (1|2), (2|2), (3|4), (4|0) and (4|4)
    for (m, n) in [(1, 1), (2, 1), (3, 2), (4, 0), (4, 2)]:
        T = PizzettiRows(m, n)
        for k in range(0, 5):
            for l in range(k + 1, 5):
                pairing = _pairing(T.row(k + l), m, n, k, l)
                for a in harmonic_basis(m, n, k).rows:
                    assert _pair(pairing, a) == reference.orthogonality_columns(T, k, a, l), \
                        (m, n, k, l, a)


def test_the_pairing_fails_where_the_column_reference_fails():
    T, cases = _non_harmonic_cases()
    for case in cases:
        assert orthogonality_failures(T, *case) == reference.orthogonality_failures(T, *case)
    # rows scaled and negated give the same verdicts, and the failures name the rows as given
    k, a_rows, l, b_rows = cases[2]
    scaled = [{c: Fraction(-3, 7) * x for c, x in a.items()} for a in a_rows]
    assert (orthogonality_failures(T, k, scaled, l, b_rows)
            == reference.orthogonality_failures(T, k, scaled, l, b_rows)
            == [("T(H_k H_l) != 0", (2, 4), None,
                 str(SP.x(1, 2).scaled(Fraction(-3, 7)) * SP.x(2, 4)))])


def test_transposed_generator_rows_equal_the_forward_reference():
    # every cell of m = 1..4, n = 0..2; the Pizzetti rows are invariant, so a
    # random int row over the whole of P_k is checked too
    rng = random.Random(1717)
    for (m, n) in [(m, n) for m in range(1, 5) for n in range(0, 3)]:
        mats = diffops.operator_matrices(m, n)
        T = PizzettiRows(m, n)
        for k in range(0, 5):
            dim = len(monomial_basis(m, n, k))
            dense = {c: rng.randint(-5, 5) for c in range(dim)}
            rows = [T.row(k), {c: x for c, x in dense.items() if x}]
            # the rows walked at once give what each gives alone
            together = dict(mats.generator_transposes(rows, k))
            for t, row in enumerate(rows):
                got = {ij: us[t] for ij, us in together.items()}
                assert got == reference.generator_row_products(row, m, n, k), (m, n, k)
                assert got == {ij: u for ij, (u,) in mats.generator_transposes([row], k)}
            assert (any(u for u, in dict(mats.generator_transposes([dense], k)).values())
                    or k == 0 or (m, n) == (1, 0))  # (1|0) has no generator


def test_the_pairing_on_a_tampered_row_equals_the_column_reference():
    # entries off the x^{2 alpha} theta^P support, where no class premise holds:
    # the pairing and the failure lists still equal the column reference
    rng = random.Random(3203)
    failing = 0
    for (m, n) in [(1, 1), (2, 1), (3, 2), (4, 0), (2, 2)]:
        for k in range(0, 4):
            for l in range(k + 2, 5, 2):
                T = PizzettiRows(m, n)
                row = T.row(k + l)
                off = [c for c in range(len(monomial_basis(m, n, k + l))) if c not in row]
                T._rows[k + l] = {**row, **{c: rng.choice([-3, -1, 2, 5])
                                            for c in rng.sample(off, min(4, len(off)))}}
                a_rows, b_rows = harmonic_basis(m, n, k).rows, harmonic_basis(m, n, l).rows
                pairing = _pairing(T.row(k + l), m, n, k, l)
                for a in a_rows:
                    assert _pair(pairing, a) == reference.orthogonality_columns(T, k, a, l)
                failures = orthogonality_failures(T, k, a_rows, l, b_rows)
                assert failures == reference.orthogonality_failures(T, k, a_rows, l, b_rows), \
                    (m, n, k, l)
                failing += bool(failures)
    assert failing


def test_a_doubled_gamma_fails_the_normalization(monkeypatch):
    # a factor common to both routes passes their comparison, not T(1) = A_m
    parts = integration._reciprocal_gamma_parts
    integration._pizzetti_weight.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(integration, "_reciprocal_gamma_parts",
                          lambda t: (2 * parts(t)[0], *parts(t)[1:]))
            x = SP.x(1, 2)  # twice 4/3 pi on both routes, so they agree
            assert (pizzetti(x, 3, 0) == supersphere_integral_phi(x, 3, 0)
                    == ScaledRational(Fraction(8, 3), 2))
            report = checks.suite_integrals([(3, 0)], 2)
            assert report.status == "fail"
            assert (report.counterexample
                    == "normalization: T(1) is not the area of the unit sphere at (3|0)")
            assert report.rows == [{"m": 3, "n": 0, "routes": "fail", "invariance": "pass",
                                    "degenerate_superdimension": False}]
            # a cell with Grassmann variables has no such check
            assert checks.suite_integrals([(3, 1)], 2).status == "pass"
    finally:
        integration._pizzetti_weight.cache_clear()  # of the doubled weights
    assert pizzetti(x, 3, 0) == ScaledRational(Fraction(4, 3), 2)
    assert checks.suite_integrals([(m, 0) for m in range(1, 9)], 2).status == "pass"


def test_check_a_fails_where_the_forward_reference_fails():
    for (m, n, k) in [(2, 1, 2), (3, 2, 4), (4, 0, 4), (1, 1, 2)]:
        row = dict(PizzettiRows(m, n).row(k))
        assert integration.generator_failures(m, n, row, k) == []
        changed = next(iter(row))
        extra = next(c for c in range(len(monomial_basis(m, n, k))) if c not in row)
        for tampered in ({**row, changed: row[changed] + 1}, {**row, extra: 3}):
            failures = integration.generator_failures(m, n, tampered, k)
            assert failures, (m, n, k)
            assert failures == reference.generator_failures(m, n, tampered, k), (m, n, k)


def test_check_b_fails_where_the_column_reference_fails():
    for (m, n, k) in [(2, 1, 2), (3, 2, 4), (4, 0, 4), (1, 1, 2), (1, 2, 3), (2, 2, 0)]:
        assert integration.radial_failures(PizzettiRows(m, n), k) == [], (m, n, k)
        tampered = []
        for d in (k, k + 2):  # one row entry changed, in T(f) and in T(R^2 f)
            T = PizzettiRows(m, n)
            row = T.row(d)
            if row:
                T._rows[d] = {**row, min(row): row[min(row)] + 1}
                tampered.append(T)
        for d in (k, k + 2):  # one weight changed; to zero and to another pi power too
            for w in (PizzettiRows(m, n).weight(d) * 3, ScaledRational.zero(),
                      ScaledRational(1, 1)):
                T = PizzettiRows(m, n)
                T.weight = lambda e, _d=d, _w=w, _weight=T.weight: _w if e == _d else _weight(e)
                tampered.append(T)
        failing = 0
        for T in tampered:
            failures = integration.radial_failures(T, k)
            assert failures == reference.radial_failures(T, k), (m, n, k)
            failing += bool(failures)
        assert failing or k % 2, (m, n, k)
    # an odd degree compares structural zeros, which no row change reaches
    T = PizzettiRows(2, 1)
    T._rows[3] = {0: 1}
    assert integration.radial_failures(T, 1) == reference.radial_failures(T, 1) == []


def test_check_b_reads_the_signs_of_a_multiplier_with_split_pairs():
    # each Grassmann term of R^2 is a whole pair, whose sign against any
    # cofactor is +1; a multiplier with split pairs makes the signs matter.  T
    # is tampered so that T(R^2 f) = T(f) holds exactly for that multiplier.
    m, n, k = 2, 2, 2
    diffops.operator_matrices.cache_clear()
    try:
        mats = diffops.operator_matrices(m, n)
        mats.mul_r2 = mats._hold(diffops.MultiplyBy(r2(m, n) + parse("3*xg1*xg3 - xg2*xg4")))
        T = PizzettiRows(m, n)
        T._rows[k] = {c: x for c, col in enumerate(mats.matrix(mats.mul_r2, k))
                      if (x := _dot(T.row(k + 2), col))}
        T.weight = lambda d: ScaledRational(1, 0)
        assert integration.radial_failures(T, k) == reference.radial_failures(T, k) == []
        c = mats.index(k)[parse("xg2*xg4").terms.popitem()[0]]
        T._rows[k][c] = -T._rows[k][c]
        assert (integration.radial_failures(T, k) == reference.radial_failures(T, k)
                == [("T(R^2 f) != T(f)", k, None, "xg2*xg4")])
    finally:
        diffops.operator_matrices.cache_clear()


def test_check_a_applies_no_generator_to_a_unit_column(monkeypatch):
    calls = []

    def counted(self, i, j, v, k, _image=diffops.OperatorMatrices.generator_image):
        calls.append((i, j, k))
        return _image(self, i, j, v, k)

    monkeypatch.setattr(diffops.OperatorMatrices, "generator_image", counted)
    for (m, n) in [(2, 1), (3, 2)]:
        assert invariance_suite(m, n, 4).passed, (m, n)
    assert calls == []
    # the patch does count the forward reference
    reference.generator_failures(2, 1, PizzettiRows(2, 1).row(2), 2)
    assert calls


def test_the_integrals_pass_binds_no_generator_word(monkeypatch):
    leaves, compiled = [], []  # the kind of each leaf table built, each tree bound
    owner = diffops.OperatorMatrices
    leaf_arrays, compile_words = owner._leaf_arrays, owner._compile
    monkeypatch.setattr(owner, "_leaf_arrays", lambda self, what, fermionic, k: (
        leaves.append(fermionic) or leaf_arrays(self, what, fermionic, k)))
    monkeypatch.setattr(owner, "_compile", lambda self, op, k: (
        compiled.append(op) or compile_words(self, op, k)))
    diffops.operator_matrices.cache_clear()
    harmonic_basis.cache_clear()  # so that the pass builds the kernels it reads
    cells = [(3, 2), (4, 1), (2, 0)]
    assert checks.suite_integrals(cells, 6).status == "pass"
    assert invariant_density_solutions(3, 2, k_max=4)
    generators = {id(osp_generator(i, j, m, n))
                  for (m, n) in cells for (i, j) in generator_pairs(m, n)}
    # only the derivative leaves of the kernels' nabla^2, no multiplier leaf
    assert leaves and None not in leaves
    assert not any(id(op) in generators for op in compiled)
    # the spies do see a generator applied forward
    diffops.operator_matrices(3, 2).generator_image(1, 2, {0: 1}, 1)
    assert None in leaves and id(compiled[-1]) in generators


def test_bulk_invariance_checks_apply_no_tree(monkeypatch):
    calls = []
    for cls in (diffops.MultiplyBy, diffops.Differentiate, diffops.Scale,
                diffops.Add, diffops.Compose):
        def counted(self, f, _apply=cls.apply):
            calls.append(type(self).__name__)
            return _apply(self, f)
        monkeypatch.setattr(cls, "apply", counted)
    for (m, n) in [(1, 0), (2, 1), (3, 2), (1, 2)]:
        assert invariance_suite(m, n, 4).passed, (m, n)
    assert invariant_density_solutions(2, 1, k_max=4)
    assert calls == []
    # the patch does count the tree path
    assert not is_harmonic(SP.x(1, 2), 2, 1)
    assert calls


def test_generator_composition_vanishes():
    m, n = 2, 1
    for (i, j) in generator_pairs(m, n):
        L = osp_generator(i, j, m, n)
        for mono in monomial_basis(m, n, 3):
            assert pizzetti(L.apply(SP.monomial(mono)), m, n).is_zero()


def test_harmonic_orthogonality_small():
    m, n = 2, 1
    for k in range(0, 4):
        for l in range(k + 1, 4):
            for a in harmonic_polys(m, n, k):
                for b in harmonic_polys(m, n, l):
                    assert pizzetti(a * b, m, n).is_zero()


# the cells of the uniqueness theorem that the tests solve, at k_max = 2n + 2
DENSITY_GRID = [(m, n) for m in range(1, 5) for n in range(1, 3)]


def test_invariant_densities_equal_the_forward_reference():
    for (m, n) in DENSITY_GRID:
        got = invariant_density_solutions(m, n, k_max=2 * n + 2)
        assert got == reference.invariant_density_solutions(m, n, 2 * n + 2), (m, n)
    assert (invariant_density_solutions(4, 2, k_max=6)
            == reference.invariant_density_solutions(4, 2, 6))


def test_invariant_densities_apply_no_generator_forward(monkeypatch):
    calls = []

    def counted_image(self, i, j, v, k, _image=diffops.OperatorMatrices.generator_image):
        calls.append("generator_image")
        return _image(self, i, j, v, k)

    def counted_poly(v, m, n, k, _poly=diffops.vec_to_poly):
        calls.append("vec_to_poly")
        return _poly(v, m, n, k)

    monkeypatch.setattr(diffops.OperatorMatrices, "generator_image", counted_image)
    monkeypatch.setattr(diffops, "vec_to_poly", counted_poly)
    monkeypatch.setattr(integration, "vec_to_poly", counted_poly)
    assert len(invariant_density_solutions(3, 2, k_max=6)) == 1
    assert calls == []
    # the patches do count the forward reference
    monkeypatch.setattr(reference, "vec_to_poly", counted_poly)
    reference.invariant_density_solutions(2, 1, 2)
    assert {"generator_image", "vec_to_poly"} <= set(calls)


def test_invariant_densities_refuse_a_negative_k_max():
    with pytest.raises(ValueError, match="k_max = -1"):
        invariant_density_solutions(2, 1, k_max=-1)
    # at k_max = 0 the generators kill the constants, so no equation binds
    assert len(invariant_density_solutions(2, 1, k_max=0)) == 2


def test_invariant_density_is_unique():
    """No second independent invariant functional exists in the density family.

    The constraint depth must grow with the number of Grassmann pairs: test
    polynomials of degree up to 2n+2 are needed to pin every coefficient.
    """
    for (m, n) in DENSITY_GRID:
        sols = invariant_density_solutions(m, n, k_max=2 * n + 2)
        assert len(sols) == 1, (m, n)
        sol = sols[0]
        e = Fraction(m, 2) - 1
        expected = []
        c = Fraction(1)
        for i in range(n + 1):
            expected.append(c * (-1) ** i)
            c *= (e - i) / (i + 1)
        scale = None
        for a, b in zip(sol, expected):
            if b:
                scale = a / b
                break
        assert scale and all(a == b * scale for a, b in zip(sol, expected)), (m, n)


@pytest.mark.parametrize("text, m, n", [("x3^2", 2, 0), ("x3^2", 2, 1),
                                        ("xg3*xg4", 2, 1), ("x1*xg1", 2, 0)])
def test_library_rejects_variables_outside_the_space(text, m, n):
    f = parse(text)
    for fn in (is_harmonic, pizzetti, supersphere_integral_phi):
        with pytest.raises(ValueError):
            fn(f, m, n)
