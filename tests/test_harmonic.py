from fractions import Fraction

import pytest

from superh.superalgebra import SuperPolynomial as SP, monomial_basis, dim_Pk
from superh.diffops import (
    _lincomb,
    laplace_beltrami_bosonic,
    laplace_beltrami_fermionic,
    nabla2,
    operator_matrices,
    r2,
    theta2,
    vec_to_poly,
)
from superh import harmonic
from superh.harmonic import (
    ProjectionOperator,
    _fischer_dependency_witness,
    decompose_Hk,
    dim_Hk,
    dim_H_fermionic,
    fischer,
    harmonic_basis,
    is_harmonic,
    piece_labels,
    projection_Q,
)
from superh.checks import LITERAL_VECTORS, _projector_images, fischer_flag_expected
from superh.linalg import Subspace, _primitive, rank_of_vectors

from reference import (f_poly, fraction_rref, pieces_by_polynomials, poly_to_vec,
                       scalar_on_piece_by_fractions, subspace_coordinates, subspace_polys,
                       verify_lemma_Lf)


# -- independent oracle: kernel rank by dense elimination --------------------------


def brute_kernel_dim(m, n, k):
    lap = nabla2(m, n)
    src = monomial_basis(m, n, k)
    if k < 2:
        return len(src)
    tgt = {mono: t for t, mono in enumerate(monomial_basis(m, n, k - 2))}
    rows = [[Fraction(0)] * len(src) for _ in tgt]
    for c, mono in enumerate(src):
        image = lap.apply(SP.monomial(mono))
        for tm, coeff in image.terms.items():
            rows[tgt[tm]][c] = coeff
    rank = 0
    for col in range(len(src)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / pr[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        rank += 1
    return len(src) - rank


def test_dim_formula_against_dense_kernel_oracle():
    for m in (1, 2, 3):
        for n in (0, 1):
            for k in range(0, 5):
                assert dim_Hk(m, n, k) == brute_kernel_dim(m, n, k), (m, n, k)
                assert harmonic_basis(m, n, k).dim == dim_Hk(m, n, k), (m, n, k)


def test_dim_examples():
    assert harmonic_basis(2, 1, 0).dim == 1
    assert harmonic_basis(2, 1, 1).dim == 4  # all of P_1
    assert harmonic_basis(2, 1, 2).dim == 7
    assert dim_Hk(2, 1, 2) == 7
    assert dim_Hk(3, 0, 2) == 5
    for (m, n) in [(1, 0), (2, 1), (4, 2)]:
        assert dim_Hk(m, n, 1) == m + 2 * n


def test_dim_requires_bosonic_direction():
    with pytest.raises(ValueError):
        dim_Hk(0, 2, 1)


def test_dim_rejects_negative_n():
    with pytest.raises(ValueError):
        dim_Hk(2, -1, 2)


def test_kernel_vectors_are_harmonic():
    for (m, n, k) in [(2, 1, 3), (3, 1, 2), (1, 2, 3), (2, 2, 4)]:
        lap = nabla2(m, n)
        for h in subspace_polys(harmonic_basis(m, n, k), m, n, k):
            assert lap.apply(h).is_zero()


def test_bosonic_fermionic_harmonics():
    assert harmonic_basis(2, 0, 1).dim == 2
    assert harmonic_basis(0, 1, 2).dim == 0  # xg1*xg2 is not in the kernel
    assert harmonic_basis(0, 2, 2).dim == 5
    for n in (1, 2):
        for q in range(0, 2 * n + 1):
            assert harmonic_basis(0, n, q).dim == dim_H_fermionic(n, q)


# -- radial decomposition -----------------------------------------------------------


def test_fischer_examples():
    fd = fischer(3, 1, 2)
    assert fd.direct_sum and [(p.j, p.dim) for p in fd.pieces] == [(0, 12), (1, 1)]
    fd = fischer(2, 1, 2)
    assert not fd.direct_sum and fd.witness is not None
    # classical one-variable case: only the top block survives
    fd = fischer(1, 0, 5)
    assert fd.direct_sum and [(p.j, p.dim) for p in fd.pieces] == [(2, 1)]


def test_fischer_flag_pattern_small_grid():
    for (m, n) in [(1, 0), (2, 1), (3, 1), (2, 2), (1, 1)]:
        for k in range(0, 6):
            fd = fischer(m, n, k)
            assert fd.direct_sum == fischer_flag_expected(m, n, k), (m, n, k)
            total = sum(p.dim for p in fd.pieces)
            if fd.direct_sum:
                assert total == dim_Pk(m, n, k)


def test_fischer_purely_fermionic():
    for n in (1, 2):
        for d in range(0, 2 * n + 1):
            fd = fischer(0, n, d)
            assert fd.direct_sum, (n, d)
            assert sum(p.dim for p in fd.pieces) == dim_Pk(0, n, d)
            # blocks that multiply to zero are dropped, not kept empty
            assert all(p.dim for p in fd.pieces), (n, d)
    # theta^2 Hf_2 = 0 in (0|4), so P_4 is the one block theta^4 Hf_0
    assert [(p.j, p.dim) for p in fischer(0, 2, 4).pieces] == [(2, 1)]


@pytest.mark.parametrize("m, n", [(2, 1), (2, 2), (4, 2), (2, 3)])
def test_fischer_block_dims_are_exact_ranks_on_the_non_direct_cells(m, n):
    """(2|2), (2|4), (4|4) and (2|6) at k <= 6: each block's dim is the rank of
    its vectors by dense Fraction elimination, and the vectors span
    R^{2j} H_{k-2j} as the canonical harmonic rows do."""
    mats = operator_matrices(m, n)
    direct = []
    for k in range(0, 7):
        fd = fischer(m, n, k)
        direct.append(fd.direct_sum)
        width = dim_Pk(m, n, k)
        for piece in fd.pieces:
            deg = k - 2 * piece.j
            assert piece.dim == len(fraction_rref(piece.vectors, width)), (m, n, k, piece.j)
            assert (Subspace.from_vectors(piece.vectors, width) == Subspace.from_vectors(
                mats.power(mats.mul_r2, harmonic_basis(m, n, deg).rows, deg, piece.j), width))
    assert not all(direct)


def test_pieces_and_direct_fischer_blocks_build_no_echelon(monkeypatch):
    """decompose_Hk keeps each piece's int vectors, certified together, and a
    direct fischer counts the vectors of its blocks: neither builds a Subspace
    from vectors."""
    calls = []
    from_vectors = Subspace.from_vectors
    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(
        lambda vectors, width: calls.append(width) or from_vectors(vectors, width)))
    pieces = decompose_Hk.__wrapped__(4, 2, 6)
    fd = fischer(3, 1, 4)
    assert fd.direct_sum and calls == []
    assert rank_of_vectors(pieces[0].vectors, dim_Pk(4, 2, 6)) == pieces[0].dim


def test_fischer_witness_certifies_harmonicity(monkeypatch):
    # (2|6) has M = -4, so at k' = 4 the witness is R^2 h for h of degree 2
    m, n, k = 2, 3, 4
    assert _fischer_dependency_witness(m, n, k) is not None
    basis = harmonic.harmonic_basis
    not_harmonic = Subspace.from_vectors([poly_to_vec(SP.x(1, 2), m, n, 2)], dim_Pk(m, n, 2))
    monkeypatch.setattr(harmonic, "harmonic_basis",
                        lambda *cell: not_harmonic if cell == (m, n, 2) else basis(*cell))
    # R^2 x1^2 is not harmonic, so it witnesses nothing
    assert _fischer_dependency_witness(m, n, k) is None


# -- the radial polynomials ----------------------------------------------------------


def test_f_poly_examples():
    assert f_poly(0, 3, 1, 3, 2) == SP.one()
    # closed form of the first radial polynomial
    for (m, n, p, q) in [(2, 1, 0, 0), (3, 2, 1, 0), (2, 2, 0, 1)]:
        expected = r2(m, 0).scaled(n - q) + theta2(n).scaled(Fraction(m, 2) + p)
        assert f_poly(1, p, q, m, n) == expected
    assert f_poly(1, 0, 0, 2, 1) == r2(2, 1)


def test_f_poly_makes_products_harmonic():
    for (m, n) in [(2, 1), (3, 2), (2, 2)]:
        for q in range(0, n + 1):
            hf = subspace_polys(harmonic_basis(0, n, q), 0, n, q)
            for k in range(0, n - q + 1):
                for p in range(0, 3):
                    hb = subspace_polys(harmonic_basis(m, 0, p), m, 0, p)
                    f = f_poly(k, p, q, m, n)
                    for b in hb[:2]:
                        for g in hf[:2]:
                            assert is_harmonic(f * b * g, m, n), (m, n, k, p, q)


def test_f_poly_parameter_validation():
    with pytest.raises(ValueError):
        f_poly(2, 0, 0, 2, 1)  # k > n - q
    with pytest.raises(ValueError):
        f_poly(0, 0, 3, 2, 2)  # q > n


def test_lemma_lf_identity():
    assert verify_lemma_Lf(0, 1, 0, 2, 1)  # both sides vanish
    assert verify_lemma_Lf(1, 0, 0, 2, 2)
    assert verify_lemma_Lf(1, 1, 0, 3, 2)
    for (m, n) in [(2, 1), (2, 2), (3, 2), (4, 2)]:
        for q in range(0, n + 1):
            for k in range(0, n - q + 1):
                for p in range(0, 3):
                    assert verify_lemma_Lf(k, p, q, m, n), (m, n, k, p, q)


def test_lemma_lf_scalar_value():
    # at (2|4): L_{1,m+1} f_{1,0,0} = M x1 xg1 with M = -2
    from superh.diffops import osp_generator
    m, n = 2, 2
    lhs = osp_generator(1, m + 1, m, n).apply(f_poly(1, 0, 0, m, n))
    assert lhs == (SP.x(1) * SP.xg(1)).scaled(m - 2 * n)


# -- piece decomposition ---------------------------------------------------------------


def test_decompose_examples():
    pieces = decompose_Hk(3, 1, 1)
    assert sorted((p.l, p.p, p.q, p.dim) for p in pieces) == [(0, 0, 1, 2), (0, 1, 0, 3)]
    pieces = decompose_Hk(2, 1, 0)
    assert len(pieces) == 1 and pieces[0].dim == 1
    pieces = decompose_Hk(2, 1, 2)
    assert sorted((p.l, p.p, p.q, p.dim) for p in pieces) == [
        (0, 1, 1, 4), (0, 2, 0, 2), (1, 0, 0, 1)]


def test_decompose_matches_dimension():
    for (m, n) in [(2, 1), (3, 1), (1, 1), (2, 2), (1, 2)]:
        for k in range(0, 5):
            pieces = decompose_Hk(m, n, k)
            assert sum(p.dim for p in pieces) == dim_Hk(m, n, k), (m, n, k)
            assert piece_labels(m, n, k) == [(p.l, p.p, p.q, p.dim) for p in pieces]


def test_pieces_equal_the_polynomial_route():
    """The pieces from int products through the held multiplications have the
    labels and echelon bases of the polynomial products f_poly * b * g."""
    for m in range(1, 5):
        for n in range(0, 3):
            for k in range(0, 7):
                got = [(pc.l, pc.p, pc.q, Subspace.from_vectors(pc.vectors, dim_Pk(m, n, k)))
                       for pc in decompose_Hk.__wrapped__(m, n, k)]
                assert got == pieces_by_polynomials(m, n, k), (m, n, k)


def test_pieces_refuse_a_vanishing_or_dependent_product(monkeypatch):
    """No piece is echelonized on its own: a product that vanishes is refused
    by name, and a dependent one by the rank certificate over all pieces."""
    product_rows = harmonic._product_rows

    def vanishing(m, n, p, q):
        rows = product_rows(m, n, p, q)
        return [{}] + rows[1:] if (p, q) == (1, 1) else rows

    def repeated(m, n, p, q):
        rows = product_rows(m, n, p, q)
        return rows[:1] * len(rows) if (p, q) == (1, 1) else rows

    monkeypatch.setattr(harmonic, "_product_rows", vanishing)
    with pytest.raises(RuntimeError, match=r"piece \(0,1,1\) of H_2\(3\|2\) has deficient rank"):
        decompose_Hk.__wrapped__(3, 1, 2)
    monkeypatch.setattr(harmonic, "_product_rows", repeated)
    with pytest.raises(RuntimeError, match="does not reassemble the kernel"):
        decompose_Hk.__wrapped__(3, 1, 2)


def test_pieces_are_joint_eigenspaces():
    for (m, n, k) in [(2, 1, 2), (3, 1, 3), (1, 2, 3)]:
        lb_b = laplace_beltrami_bosonic(m)
        lb_f = laplace_beltrami_fermionic(n)
        for pc in decompose_Hk(m, n, k):
            lam_b = Fraction(-pc.p * (m - 2 + pc.p))
            lam_f = Fraction(-pc.q * (-2 * n - 2 + pc.q))
            for row in Subspace.from_vectors(pc.vectors, dim_Pk(m, n, k)).rows:
                v = vec_to_poly(dict(row), m, n, k)
                assert lb_b.apply(v) == v.scaled(lam_b)
                assert lb_f.apply(v) == v.scaled(lam_f)


# -- projectors ------------------------------------------------------------------------


def test_projection_identity_on_degree_zero():
    Q = projection_Q(0, 0, 0, 3, 1)
    assert not Q.spectral_fallback
    assert Q.apply(SP.one()) == SP.one()


def test_projection_delta_action():
    for (m, n, k) in [(3, 1, 2), (2, 1, 2), (2, 2, 3)]:
        pieces = decompose_Hk(m, n, k)
        for tgt in pieces:
            Q = projection_Q(tgt.l, tgt.q, k, m, n)
            for src in pieces:
                keep = (src.l, src.q) == (tgt.l, tgt.q)
                for row in Subspace.from_vectors(src.vectors, dim_Pk(m, n, k)).rows[:2]:
                    v = vec_to_poly(dict(row), m, n, k)
                    img = Q.apply(v)
                    assert img == (v if keep else SP.zero()), (m, n, k)


def test_projection_spec_example():
    # target (r=1, s=0) of H_2(3|2): kills (0,2,0) and (0,1,1), keeps (1,0,0)
    Q = projection_Q(1, 0, 2, 3, 1)
    for pc in decompose_Hk(3, 1, 2):
        v = vec_to_poly(dict(Subspace.from_vectors(pc.vectors, dim_Pk(3, 1, 2)).rows[0]), 3, 1, 2)
        img = Q.apply(v)
        if (pc.l, pc.q) == (1, 0):
            assert img == v
        else:
            assert img.is_zero()


def test_projection_fallback_on_one_bosonic_variable():
    Q = projection_Q(1, 0, 2, 1, 1)
    assert Q.spectral_fallback
    for pc in decompose_Hk(1, 1, 2):
        v = vec_to_poly(dict(Subspace.from_vectors(pc.vectors, dim_Pk(1, 1, 2)).rows[0]), 1, 1, 2)
        img = Q.apply(v)
        assert img == (v if (pc.l, pc.q) == (1, 0) else SP.zero())


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)])
def test_the_int_projector_chain_is_the_projector_times_its_scale(m, n):
    """_projector_images gives D Q v on the literal int vectors of every piece,
    Q v being Q.apply on the polynomial; (1|1) takes the spectral fallback and
    (2|2) has the degenerate band."""
    mats = operator_matrices(m, n)
    fallback = False
    for k in range(0, 5):
        pieces = decompose_Hk(m, n, k)
        vecs = [_primitive(v) for pc in pieces
                for v in Subspace.from_vectors(pc.vectors, dim_Pk(m, n, k)).rows[:LITERAL_VECTORS]]
        for tgt in pieces:
            Q = projection_Q(tgt.l, tgt.q, k, m, n)
            fallback = fallback or Q.spectral_fallback
            images, scale = _projector_images(mats, Q, vecs, k)
            assert scale
            for v, got in zip(vecs, images, strict=True):
                image = Q.apply(vec_to_poly(v, m, n, k))
                assert got == _lincomb((scale, poly_to_vec(image, m, n, k))), (m, n, k)
    assert fallback == (m == 1)


def test_scalar_on_piece_equals_the_fraction_product():
    """Every (target, source) piece pair of m = 1..4, n = 0..2, k <= 6, the
    spectral fallback (m = 1) among them."""
    fallback = set()
    for m in range(1, 5):
        for n in range(0, 3):
            for k in range(0, 7):
                labels = piece_labels(m, n, k)
                for l, _, s, _ in labels:
                    Q = projection_Q(l, s, k, m, n)
                    if Q.spectral_fallback:
                        fallback.add(m)
                    for src_l, p, q, _ in labels:
                        got = Q.scalar_on_piece(p, q)
                        assert type(got) is Fraction
                        assert got == scalar_on_piece_by_fractions(Q, p, q), (m, n, k, l, s, p, q)
                        assert got == (1 if (src_l, q) == (l, s) else 0)
    assert fallback == {1}


def test_scalar_on_piece_on_factors_that_are_not_whole():
    """Shifts and denominators that are not whole, of either sign, in both lists."""
    third, minus_five_halves = Fraction(1, 3), Fraction(-5, 2)
    bosonic = [(third, minus_five_halves), (minus_five_halves, Fraction(7)), (Fraction(4), third)]
    fermionic = [(Fraction(-2, 9), Fraction(3, 4)), (Fraction(6), minus_five_halves)]
    Q = ProjectionOperator(0, 0, 2, 3, 1, bosonic, fermionic, False)
    for p in range(0, 4):
        for q in range(0, 2):
            got = Q.scalar_on_piece(p, q)
            assert got == scalar_on_piece_by_fractions(Q, p, q), (p, q)
            assert got.denominator > 1, (p, q)


def test_projection_idempotent_and_orthogonal_as_matrices():
    m, n, k = 2, 1, 2
    hb = harmonic_basis(m, n, k)
    pieces = decompose_Hk(m, n, k)
    mats = {}
    for pc in pieces:
        Q = projection_Q(pc.l, pc.q, k, m, n)
        cols = []
        for row in hb.rows:
            img = Q.apply(vec_to_poly(dict(row), m, n, k))
            cols.append(poly_to_vec(img, m, n, k) if img else {})
        mats[(pc.l, pc.q)] = cols

    def matmul(a_cols, b_cols):
        # columns of A o B where columns are vectors in P_k coordinates
        out = []
        for bcol in b_cols:
            coords = subspace_coordinates(hb, bcol)
            acc = {}
            for idx, c in enumerate(coords):
                if c:
                    for r, x in a_cols[idx].items():
                        acc[r] = acc.get(r, Fraction(0)) + c * x
            out.append({r: x for r, x in acc.items() if x})
        return out

    for a in pieces:
        for b in pieces:
            prod = matmul(mats[(a.l, a.q)], mats[(b.l, b.q)])
            expect = mats[(a.l, a.q)] if (a.l, a.q) == (b.l, b.q) else [{} for _ in prod]
            assert prod == expect


def test_projection_invalid_piece():
    with pytest.raises(ValueError):
        projection_Q(2, 0, 2, 3, 1)  # r exceeds the radial bound
