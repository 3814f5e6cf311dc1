import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superh.superalgebra import (
    ParseError,
    SuperMonomial,
    SuperPolynomial,
    _bosonic_compositions,
    _merge_fermionic,
    dim_Pk,
    monomial_basis,
    parse,
    render,
)

from reference import (
    bosonic_compositions_recursive,
    constant,
    homogeneous_component,
    homogeneous_components,
    normalize_word,
    parse_by_products,
)

SP = SuperPolynomial


def product_of_word(word):
    out = SP.one()
    for j in word:
        out = out * SP.xg(j)
    return out


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=6))
@settings(max_examples=80, deadline=None)
def test_grassmann_word_against_bubble_sort(word):
    sign, sorted_word = normalize_word(word)
    got = product_of_word(word)
    if sign == 0:
        assert got.is_zero()
    else:
        assert got == SP.monomial(SuperMonomial((), sorted_word), sign)


# -- multiplication -----------------------------------------------------------


def test_mask_merge_against_adjacent_swaps():
    """Every pair of Grassmann masks over 2n <= 8 generators, the smaller
    generator counts included as the masks that avoid the top indices."""
    masks = [tuple(j for j in range(1, 9) if bits >> (j - 1) & 1) for bits in range(256)]
    for a in masks:
        for b in masks:
            assert _merge_fermionic(a, b) == normalize_word(a + b), (a, b)


def test_nilpotent_generator():
    assert (SP.xg(1) * SP.xg(1)).is_zero()


def test_single_transposition_sign():
    assert SP.xg(2) * SP.xg(1) == -(SP.xg(1) * SP.xg(2))


def test_cross_terms_cancel():
    # expanded by hand: the cross terms cancel by anticommutation
    lhs = (SP.x(1) + SP.xg(1)) * (SP.x(1) - SP.xg(1))
    assert lhs == SP.x(1, 2)


def small_polys(max_vars=2, max_ferm=3):
    coeff = st.integers(min_value=-3, max_value=3)
    mono = st.tuples(
        st.lists(st.tuples(st.integers(1, max_vars), st.integers(1, 2)),
                 max_size=2),
        st.lists(st.integers(1, max_ferm), max_size=2, unique=True),
    )

    def build(terms):
        out = SP.zero()
        for (bos, ferm), c in terms:
            t = constant(c)
            for i, e in bos:
                t = t * SP.x(i, e)
            for j in sorted(ferm):
                t = t * SP.xg(j)
            out = out + t
        return out

    return st.lists(st.tuples(mono, coeff), max_size=4).map(build)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_graded_commutativity(f, g):
    # the sign rule applies to parity-homogeneous factors
    for pf in _parity_parts(f):
        for pg in _parity_parts(g):
            sign = -1 if (int(pf.parity()) * int(pg.parity())) % 2 else 1
            assert pf * pg == (pg * pf).scaled(sign)


def _parity_parts(f):
    even = {m: c for m, c in f.terms.items() if len(m.fermionic) % 2 == 0}
    odd = {m: c for m, c in f.terms.items() if len(m.fermionic) % 2 == 1}
    return [p for p in (SP(even), SP(odd)) if p]


@given(small_polys(), small_polys(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_graded_leibniz(f, g, j):
    # fermionic derivative: d(fg) = df g + (-1)^{|f|} f dg for homogeneous f
    for pf in _parity_parts(f):
        sign = -1 if int(pf.parity()) else 1
        lhs = (pf * g).dxg(j)
        rhs = pf.dxg(j) * g + (pf * g.dxg(j)).scaled(sign)
        assert lhs == rhs


@given(small_polys(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_bosonic_leibniz(f, i):
    g = SP.x(1) + SP.x(2, 2) + SP.xg(1) * SP.xg(2)
    assert (f * g).dx(i) == f.dx(i) * g + f * g.dx(i)


@given(small_polys())
@settings(max_examples=40, deadline=None)
def test_homogeneous_components_sum(f):
    total = SP.zero()
    for _, part in homogeneous_components(f).items():
        total = total + part
    assert total == f


def test_fermionic_derivatives_anticommute():
    for mono in monomial_basis(1, 2, 3):
        f = SP.monomial(mono)
        for i in range(1, 5):
            for j in range(1, 5):
                assert f.dxg(i).dxg(j) == -(f.dxg(j).dxg(i))


# -- derivatives --------------------------------------------------------------


def test_left_derivative_examples():
    f = SP.xg(1) * SP.xg(2)
    assert f.dxg(1) == SP.xg(2)
    assert f.dxg(2) == -SP.xg(1)
    assert SP.x(1, 2).dx(1) == SP.x(1).scaled(2)


# -- degree bases --------------------------------------------------------------


def test_monomial_basis_examples():
    assert [render(SP.monomial(b)) for b in monomial_basis(1, 0, 3)] == ["x1^3"]
    assert [render(SP.monomial(b)) for b in monomial_basis(0, 1, 2)] == ["xg1*xg2"]
    basis = monomial_basis(2, 1, 2)
    assert [render(SP.monomial(b)) for b in basis] == [
        "x1^2", "x1*x2", "x2^2", "x1*xg1", "x1*xg2", "x2*xg1", "x2*xg2", "xg1*xg2"]


def test_monomial_basis_count_formula():
    for m in range(0, 4):
        for n in range(0, 3):
            for k in range(0, 6):
                expected = dim_Pk(m, n, k)
                assert len(monomial_basis(m, n, k)) == expected, (m, n, k)
                # distinctness
                assert len(set(monomial_basis(m, n, k))) == expected


def test_compositions_follow_the_recursive_order():
    for parts in range(0, 7):
        for total in range(0, 7):
            expected = bosonic_compositions_recursive(total, parts)
            assert list(_bosonic_compositions(total, parts)) == expected, (total, parts)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(3000 + limit)  # the reference recurses once per slot
    try:
        for parts in (1000, 3000):
            for total in (0, 1):
                expected = bosonic_compositions_recursive(total, parts)
                assert list(_bosonic_compositions(total, parts)) == expected, (total, parts)
    finally:
        sys.setrecursionlimit(limit)


def test_homogeneous_component_examples():
    f = SP.one() + SP.x(1) + SP.xg(1) * SP.xg(2)
    assert homogeneous_component(f, 2) == SP.xg(1) * SP.xg(2)
    assert homogeneous_component(SP.x(1, 2), 1).is_zero()


def test_parity():
    assert int((SP.xg(1) * SP.xg(2)).parity()) == 0
    assert int(SP.xg(1).parity()) == 1
    with pytest.raises(ValueError):
        (SP.x(1) + SP.xg(1)).parity()


# -- rendering and parsing -------------------------------------------------------


def test_render_example():
    f = constant(2) * SP.x(1, 2) - SP.xg(1) * SP.xg(2)
    assert render(f) == "2*x1^2 - xg1*xg2"


def test_render_zero_and_constants():
    assert render(SP.zero()) == "0"
    assert render(constant(Fraction(-3, 2))) == "-3/2"


@given(small_polys())
@settings(max_examples=60, deadline=None)
def test_parse_render_roundtrip(f):
    assert parse(render(f)) == f


def parsed_or_error(parser, text):
    """The rendered parse of `text`, or the type and message of its error."""
    try:
        return render(parser(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


def test_parse_errors():
    # one input per ParseError, then the quirks of the grammar
    cases = [
        ("", "ParseError: empty expression"),
        ("x1 + $", "ParseError: unexpected character at ' $'"),
        ("x1^", "ParseError: expected an integer exponent after '^'"),
        ("x1 *", "ParseError: expected a factor"),
        ("x1 * * x2", "ParseError: expected a factor, got '*'"),
        ("2/0*x1", "ParseError: zero denominator in 2/0"),
        ("x1^65", "ParseError: exponent 65 exceeds the cap 64"),
        ("x0^65", "ParseError: exponent 65 exceeds the cap 64"),
        ("x1 + xg0", "ParseError: variable index 0 in xg0"),
        ("0*x0", "ParseError: variable index 0 in x0"),
        ("x1^64*x1", "ParseError: a term exceeds the degree cap 64"),
        ("1/2^2", "ParseError: expected a factor, got '^'"),
        ("2 3", "5"),
        ("x1^0", "1"),
        ("xg1^0", "1"),
        ("xg1^1*x2", "x2*xg1"),
        ("xg1^2", "0"),
        ("0*x1^64*x1", "0"),
        ("xg1*xg1*x1^64*x1", "0"),
        ("--x1", "x1"),
        ("-+-x1 - -x2", "x1 + x2"),
        ("-x1*x2 - 2*xg2*xg1", "-x1*x2 + 2*xg1*xg2"),
        ("xg2*xg1*x1^2", "-x1^2*xg1*xg2"),
        ("xg3*x1*xg1*xg2*x1", "x1^2*xg1*xg2*xg3"),
        ("x1*x1 + 0/3*x2", "x1^2"),
    ]
    assert [(text, parsed_or_error(parse, text)) for text, _ in cases] == cases


PARSE_FACTORS = ["x1", "x2", "x3", "x0", "xg1", "xg2", "xg3", "xg4", "xg0",
                 "0", "1", "2", "0/3", "1/0", "3/2"]
PARSE_EXPONENTS = ["0", "1", "2", "3", "63", "64", "65"]


def random_expression(rng: random.Random) -> str:
    """Up to three signed terms of up to five factors, some with a power,
    often out of order or repeated; now and then one token is inserted
    anywhere, so that every ParseError is reached."""
    tokens = []
    for _ in range(rng.randint(1, 3)):
        tokens += rng.choices("+-", k=rng.randint(0 if not tokens else 1, 2))
        for j in range(rng.randint(1, 5)):
            if j:
                tokens.append("*")
            if rng.random() < 0.25:
                tokens.append(rng.choice(PARSE_FACTORS))
            else:
                tokens.append(rng.choice(["x1", "x2", "xg1", "xg2", "xg3", "2"]))
            if rng.random() < 0.3:
                tokens += ["^", rng.choice(PARSE_EXPONENTS)]
    if rng.random() < 0.1:
        tokens.insert(rng.randint(0, len(tokens)),
                      rng.choice(PARSE_FACTORS + ["^", "*", "+", "-"]))
    return " ".join(tokens)


def parse_outcome(parser, text):
    """The terms with their coefficient types, or the error's type and message."""
    try:
        f = parser(text)
    except Exception as exc:
        return type(exc), str(exc)
    return {mono: (c, type(c)) for mono, c in f.terms.items()}


def committed_integrands() -> list[str]:
    """The benchmark's integrands, from bench/workloads.py read as a file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [t for cell in workloads.FULL_GRID for t in workloads.integrands(*cell)]


def test_parse_equals_the_product_reference():
    rng = random.Random("parse")
    texts = committed_integrands()
    assert len(texts) == 192
    texts += [random_expression(rng) for _ in range(6000)]
    mismatches = [t for t in texts
                  if parse_outcome(parse, t) != parse_outcome(parse_by_products, t)]
    assert mismatches == []
    # the random strings reach zero, a sign from reordering, and every error
    outcomes = {parsed_or_error(parse_by_products, t).split(" ")[:2][-1] for t in texts}
    assert {"0", "-xg1*xg2", "expected", "zero", "exponent", "variable", "a"} <= outcomes
