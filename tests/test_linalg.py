import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superh import linalg
from superh.diffops import generator_pairs, nabla2, operator_matrices
from superh.harmonic import decompose_Hk, harmonic_basis
from superh.modules import SpaceSpec, _divisor_r2p, hk_window_intersection, rep_space
from superh.linalg import (
    PRIME,
    Echelon,
    Subspace,
    _primitive,
    certified_full_rank,
    kernel_of_equations,
    rank_modp,
    rank_of_vectors,
)
from superh.superalgebra import dim_Pk

from reference import (
    fraction_intersection,
    fraction_kernel,
    fraction_rref,
    subspace_coordinates,
)


# -- independent oracle: dense Gaussian elimination rank -------------------------


def dense_rank(vectors, width):
    rows = [[Fraction(v.get(c, 0)) for c in range(width)] for v in vectors]
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pr[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        rank += 1
    return rank


def random_vectors(rng, count, width, density=0.5):
    out = []
    for _ in range(count):
        v = {}
        for c in range(width):
            if rng.random() < density:
                x = rng.randint(-4, 4)
                if x:
                    v[c] = Fraction(x)
        out.append(v)
    return out


def combination(coeffs, vectors, width):
    out = {}
    for c in range(width):
        x = sum(a * v.get(c, 0) for a, v in zip(coeffs, vectors))
        if x:
            out[c] = x
    return out


def test_rank_against_dense_oracle():
    rng = random.Random(7)
    for trial in range(25):
        width = rng.randint(1, 8)
        vecs = random_vectors(rng, rng.randint(0, 8), width)
        assert rank_of_vectors(vecs, width) == dense_rank(vecs, width)


def test_modp_rank_certificate_consistency():
    rng = random.Random(11)
    for trial in range(25):
        width = rng.randint(1, 8)
        vecs = random_vectors(rng, rng.randint(1, 8), width)
        exact = rank_of_vectors(vecs, width)
        assert rank_modp(vecs, width) <= exact
        assert certified_full_rank(vecs, width) == (exact == len(vecs))


def test_modp_certificate_refuses_denominators_divisible_by_p():
    # exact rank 1: the second row is p times the first
    vecs = [{0: Fraction(1, PRIME), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(PRIME)}]
    assert rank_of_vectors(vecs, 2) == 1
    assert certified_full_rank(vecs, 2) is False
    assert rank_modp(vecs, 2) is None


def test_a_deficient_modp_rank_is_never_trusted():
    # independent over Q, but the rows agree mod PRIME
    for one in (1, Fraction(1)):  # operator columns carry plain ints
        vecs = [{0: one, 1: one}, {0: one, 1: one + PRIME}]
        assert rank_modp(vecs, 2) == 1
        assert rank_of_vectors(vecs, 2) == 2
        assert certified_full_rank(vecs, 2) is True
        # a lowest entry that vanishes mod PRIME
        vecs = [{0: one * PRIME, 1: one}, {0: one}]
        assert rank_modp(vecs, 2) == 2
        assert rank_modp(vecs[:1] * 2, 2) == 1
        assert certified_full_rank(vecs[:1] * 2, 2) is False
        assert rank_modp([{0: one * PRIME}], 2) == 0
        assert certified_full_rank([{0: one * PRIME}], 2) is True


def test_modp_rank_equals_the_exact_rank_on_wide_sparse_rows():
    rng = random.Random(19)
    for trial in range(20):
        width = rng.randint(30, 50)
        vecs = random_vectors(rng, rng.randint(1, width + 5), width, density=0.08)
        if trial % 2:  # low rank: every row a combination of the first few
            basis = vecs[:rng.randint(1, 6)]
            vecs = [combination([rng.randint(-3, 3) for _ in basis], basis, width)
                    for _ in vecs]
        exact = rank_of_vectors(vecs, width)
        assert rank_modp(vecs, width) == exact, trial
        assert rank_modp([{c: int(x) for c, x in v.items()} for v in vecs], width) == exact
        assert certified_full_rank(vecs, width) == (exact == len(vecs))


def test_primitive_is_the_coprime_int_multiple_by_a_positive_scale():
    assert _primitive({0: Fraction(2, 3), 3: Fraction(-4, 9)}) == {0: 3, 3: -2}
    assert _primitive({1: 6, 2: -10}) == {1: 3, 2: -5}
    assert _primitive({2: Fraction(-1, 2)}) == {2: -1}
    assert _primitive({}) == {}
    rng = random.Random(4)
    for _ in range(50):
        v = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for c in range(rng.randint(1, 5))}
        v = {c: x for c, x in v.items() if x}
        p = _primitive(v)
        assert all(type(x) is int for x in p.values())
        assert math.gcd(*p.values()) == (1 if v else 0)
        if v:
            c = next(iter(v))
            scale = Fraction(p[c]) / v[c]
            assert scale > 0 and p == {i: scale * x for i, x in v.items()}


def test_echelon_is_reduced():
    rng = random.Random(3)
    for trial in range(10):
        width = 10
        sub = Subspace.from_vectors(random_vectors(rng, 6, width), width)
        pivots = set(sub.pivots)
        for p, row in zip(sub.pivots, sub.rows):
            assert row[p] == 1
            for c in row:
                assert c == p or c not in pivots


def test_canonical_form_is_order_independent():
    rng = random.Random(5)
    vecs = random_vectors(rng, 6, 9)
    a = Subspace.from_vectors(vecs, 9)
    b = Subspace.from_vectors(list(reversed(vecs)), 9)
    assert a == b


def test_membership_and_coordinates():
    rows = [{0: Fraction(1), 2: Fraction(2)}, {1: Fraction(1), 2: Fraction(-1)}]
    sub = Subspace.from_vectors(rows, 3)
    v = {0: Fraction(2), 1: Fraction(3), 2: Fraction(1)}
    coords = subspace_coordinates(sub, v)
    assert coords is not None
    assert sub.linear_combination(dict(enumerate(coords))) == v
    assert subspace_coordinates(sub, {2: Fraction(1)}) is None


def test_explicit_zero_entries_are_dropped_by_the_reduction():
    # Subspace and Echelon read one reduction, which drops zero entries
    assert Subspace.from_vectors([{0: 1}], 2).contains({0: 1, 1: 0})
    ech = Echelon(2)
    ech.add({0: 1})
    assert ech.reduce({0: 1, 1: 0}) == {}
    # column 0 of P_2 in (2|2) is the pivot of the divisor R^2 P_0
    rep = rep_space(SpaceSpec("PkModR2", 2, 1, 2))
    assert rep.divisor.pivots == (0,)
    assert rep.coords({0: 0, 1: 1}) == rep.coords({1: 1}) == {0: 1}


def test_kernel_of_equations():
    # x + y + z = 0, y - z = 0  ->  kernel spanned by (-2, 1, 1)
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)},
            {1: Fraction(1), 2: Fraction(-1)}]
    ker = kernel_of_equations(rows, 3)
    assert ker.dim == 1
    (vec,) = ker.basis_vectors()
    assert vec[1] == vec[2]
    assert vec[0] == -2 * vec[1]


def test_kernel_orthogonal_to_equations():
    rng = random.Random(13)
    for trial in range(10):
        width = rng.randint(2, 8)
        eqs = random_vectors(rng, rng.randint(1, 6), width)
        ker = kernel_of_equations(eqs, width)
        assert ker.dim == width - rank_of_vectors(eqs, width)
        for v in ker.basis_vectors():
            for e in eqs:
                dot = sum(e.get(c, Fraction(0)) * x for c, x in v.items())
                assert dot == 0


def test_intersection_zassenhaus():
    rng = random.Random(17)
    for trial in range(15):
        width = rng.randint(2, 7)
        a = Subspace.from_vectors(random_vectors(rng, rng.randint(1, 5), width), width)
        b = Subspace.from_vectors(random_vectors(rng, rng.randint(1, 5), width), width)
        inter = a.intersect(b)
        # dimension formula and containment in both
        assert inter.dim == a.dim + b.dim - a.sum_with(b).dim
        for v in inter.basis_vectors():
            assert a.contains(v) and b.contains(v)


def test_sum_with():
    a = Subspace.from_vectors([{0: Fraction(1)}], 3)
    b = Subspace.from_vectors([{1: Fraction(1)}], 3)
    assert a.sum_with(b).dim == 2


# -- references: the kernel and the intersection by a second elimination -----------


def two_pass_kernel(rows, width):
    """Eliminate the equations by lowest pivots, then echelonize the kernel
    vectors e_f - sum_p r_p[f] e_p in a second pass."""
    ech = Echelon(width)
    for r in rows:
        ech.add(r)
    kernel = Echelon(width)
    for free in range(width):
        if free not in ech.rows:
            v = {free: Fraction(1)}
            for p, row in ech.rows.items():
                if row.get(free):
                    v[p] = -row[free]
            kernel.add(v)
    return Subspace(width, kernel.sorted_rows())


def two_pass_intersection(a, b):
    """Zassenhaus intersection whose right halves are echelonized again."""
    w = a.width
    ech = Echelon(2 * w)
    for r in a.rows:
        ech.add({**r, **{i + w: x for i, x in r.items()}})
    for r in b.rows:
        ech.add(r)
    return Subspace.from_vectors(
        [{i - w: x for i, x in row.items()} for p, row in ech.rows.items() if p >= w], w)


def rank_deficient_system(rng, width):
    eqs = random_vectors(rng, rng.randint(0, width + 2), width)
    if eqs and rng.random() < 0.5:  # every equation a combination of the first few
        basis = eqs[:rng.randint(1, len(eqs))]
        eqs = [combination([rng.randint(-3, 3) for _ in basis], basis, width) for _ in eqs]
    return eqs


def test_kernel_equals_the_two_pass_reference_on_random_systems():
    rng = random.Random(29)
    assert kernel_of_equations([], 4) == two_pass_kernel([], 4)
    assert kernel_of_equations([], 4).dim == 4
    for eqs in ([], [{0: Fraction(2)}], [{0: Fraction(0)}]):
        assert kernel_of_equations(eqs, 1) == two_pass_kernel(eqs, 1), eqs
    for trial in range(200):
        width = rng.randint(1, 9)
        eqs = rank_deficient_system(rng, width)
        assert kernel_of_equations(eqs, width) == two_pass_kernel(eqs, width), trial


def test_the_harmonic_kernels_equal_the_two_pass_reference():
    for m in range(1, 5):
        for n in range(0, 3):
            mats = operator_matrices(m, n)
            for k in range(2, 7):
                rows = [{} for _ in range(dim_Pk(m, n, k - 2))]
                for c, col in enumerate(mats.matrix(nabla2(m, n), k)):
                    for t, x in col.items():
                        rows[t][c] = x
                assert harmonic_basis(m, n, k) == two_pass_kernel(rows, dim_Pk(m, n, k)), (m, n, k)


def test_the_kernel_takes_one_echelon_add_per_equation(monkeypatch):
    calls = []

    def counted(self, v, _add=Echelon.add):
        calls.append(len(v))
        return _add(self, v)
    monkeypatch.setattr(linalg.Echelon, "add", counted)
    rng = random.Random(31)
    eqs = rank_deficient_system(rng, 8) + random_vectors(rng, 3, 8)
    kernel_of_equations(eqs, 8)
    assert len(calls) == len(eqs)


def test_intersection_equals_the_two_pass_reference():
    rng = random.Random(37)
    for trial in range(400):
        width = rng.randint(1, 8)
        a = Subspace.from_vectors(rank_deficient_system(rng, width), width)
        b = Subspace.from_vectors(rank_deficient_system(rng, width), width)
        assert a.intersect(b) == two_pass_intersection(a, b), trial
    # H_k intersect R^2 P_{k-2} on band cells
    for (m, n, k) in [(2, 1, 2), (2, 2, 3), (2, 2, 4), (4, 2, 2), (2, 3, 4)]:
        expected = two_pass_intersection(harmonic_basis(m, n, k), _divisor_r2p(m, n, k))
        assert hk_window_intersection(m, n, k) == expected, (m, n, k)
        assert expected.dim > 0, (m, n, k)


def test_explicit_zero_entries_are_dropped():
    zero_first = {0: Fraction(0), 1: Fraction(1)}
    assert Subspace.from_vectors([zero_first], 3) == Subspace.from_vectors([{1: Fraction(1)}], 3)
    assert kernel_of_equations([zero_first], 3) == kernel_of_equations([{1: Fraction(1)}], 3)
    assert rank_of_vectors([{0: Fraction(0)}], 3) == 0
    assert certified_full_rank([{0: Fraction(0)}], 3) is False


def test_columns_outside_the_width_are_refused():
    for call in (lambda: kernel_of_equations([{5: Fraction(1)}], 3),
                 lambda: kernel_of_equations([{-1: Fraction(1)}], 3),
                 lambda: certified_full_rank([{7: 1}, {8: 1}], 2),
                 lambda: certified_full_rank([{0: 1}, {-1: 1}], 2),
                 lambda: certified_full_rank([{0: 1}, {1: 1}, {3: 1}], 2),
                 lambda: Subspace.from_vectors([{5: Fraction(1)}], 3),
                 lambda: rank_of_vectors([{7: 1}, {8: 1}], 2),
                 lambda: rank_modp([{7: Fraction(1)}, {8: Fraction(1)}], 2)):
        with pytest.raises(ValueError):
            call()


# -- the narrowing rule: an entry is an int when it is whole ------------------------


def whole_fractions(vectors):
    """The entries of the vectors that break the rule: a Fraction with
    denominator 1, or a value that is neither an int nor a Fraction."""
    return [x for v in vectors for x in v.values()
            if type(x) is not int and (type(x) is not Fraction or x.denominator == 1)]


@pytest.mark.parametrize("m, n", [(2, 1), (3, 2), (4, 2)])
def test_no_stored_entry_is_a_whole_fraction(m, n):
    mats = operator_matrices(m, n)
    for k in range(0, 5):
        rows = harmonic_basis(m, n, k).rows
        assert not whole_fractions(rows), ("harmonic_basis", k)
        for piece in decompose_Hk(m, n, k):
            basis = Subspace.from_vectors(piece.vectors, dim_Pk(m, n, k))
            assert not whole_fractions(basis.rows), ("piece", piece.l, piece.p, piece.q, k)
        ech = Echelon(len(mats.index(k)))
        for (i, j) in generator_pairs(m, n):
            images = [mats.generator_image(i, j, v, k) for v in rows]
            assert not whole_fractions(images), ("generator_image", i, j, k)
            for w in images:
                ech.add(w)
        assert not whole_fractions(ech.rows.values()), ("Echelon", k)
        for kind in ("Hk", "PkModR2") + (("HkModSub",) if k >= 2 else ()):
            rep = rep_space(SpaceSpec(kind, m, n, k))
            for (i, j) in rep.gen_pairs:
                assert not whole_fractions(rep.generator_matrix(i, j)), (kind, i, j, k)


# entries that keep the rule: whole rationals as ints, the others as Fractions
entries = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(
    lambda x: x.numerator if x.denominator == 1 else x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eliminations_equal_the_all_fraction_reference(data):
    width = data.draw(st.integers(1, 6))
    vectors = st.lists(st.dictionaries(st.integers(0, width - 1), entries), max_size=6)
    a, b, equations = data.draw(vectors), data.draw(vectors), data.draw(vectors)
    span_a, span_b = Subspace.from_vectors(a, width), Subspace.from_vectors(b, width)
    assert span_a == Subspace(width, fraction_rref(a, width))
    meet = span_a.intersect(span_b)
    assert meet == Subspace(width, fraction_intersection(a, b, width))
    kernel = kernel_of_equations(equations, width)
    assert kernel == Subspace(width, fraction_kernel(equations, width))
    for sub in (span_a, meet, kernel):
        assert not whole_fractions(sub.rows)
