import random
from fractions import Fraction

from superh.linalg import (
    PRIME,
    Subspace,
    certified_full_rank,
    kernel_of_equations,
    rank_modp,
    rank_of_vectors,
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
    coords = sub.coordinates(v)
    assert coords is not None
    assert sub.linear_combination(dict(enumerate(coords))) == v
    assert sub.coordinates({2: Fraction(1)}) is None


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
