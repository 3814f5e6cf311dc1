import itertools
import math
import random
from fractions import Fraction

import pytest

from superh import diffops
from superh.superalgebra import SuperPolynomial as SP, dim_Pk
from superh.diffops import (
    generator_pairs,
    laplace_beltrami,
    nabla2,
    operator_matrices,
    operator_sum,
    osp_generator,
    r2,
    theta2,
)
from superh.harmonic import (
    decompose_Hk,
    dim_Hk,
    fischer,
    harmonic_basis,
    piece_labels,
    projection_Q,
)
from superh import modules
from superh.linalg import PRIME, Echelon, Subspace
from superh.modules import (
    RepSpace,
    SpaceSpec,
    _branching_blocks,
    _certify_strong_connectivity,
    _nonzero_pieces,
    _piece_groups,
    _piece_inverse,
    _readoff,
    branching,
    branching_case,
    branching_explicit_check,
    decompose_simple,
    in_window,
    indecomposability_witness,
    is_irreducible,
    rep_space,
    simple_dim,
    submodule_closure,
    window_interval,
    window_submodule_check,
)

from reference import (block_intertwiner_holds, branching_blocks_by_polynomials,
                       closure_by_fixed_point, coords_of_poly, lift, piece_products, poly_to_vec,
                       readoff_in_pivot_order, subspace_polys)


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec("Qk", 2, 1, 2)
    with pytest.raises(ValueError):
        SpaceSpec("Hk", 0, 1, 2)


def test_rep_space_dimensions():
    assert rep_space(SpaceSpec("Hk", 3, 1, 2)).dim == 12
    assert rep_space(SpaceSpec("Pk", 2, 1, 2)).dim == 8
    assert rep_space(SpaceSpec("PkModR2", 2, 1, 2)).dim == 7
    assert rep_space(SpaceSpec("HkModSub", 2, 1, 2)).dim == 6


def test_generator_matrices_represent_action():
    for kind in ("Pk", "Hk", "PkModR2", "HkModSub"):
        rep = rep_space(SpaceSpec(kind, 2, 1, 2))
        combo = {c: Fraction(c + 1, 2) for c in range(rep.dim)}
        for (i, j) in rep.gen_pairs:
            mat = rep.generator_matrix(i, j)
            op = osp_generator(i, j, 2, 1)
            for c in range(rep.dim):
                basis_poly = lift(rep, {c: Fraction(1)})
                assert coords_of_poly(rep, op.apply(basis_poly)) == mat[c], (kind, i, j, c)
            # a vector that is not a basis vector goes through the mat-vec
            expected = coords_of_poly(rep, op.apply(lift(rep, combo)))
            assert rep.apply_generator(i, j, combo) == expected, (kind, i, j)


def test_readoff_equals_the_reading_in_pivot_order():
    rng = random.Random(9)
    for (m, n, k) in [(2, 1, 3), (3, 1, 2), (2, 2, 4), (3, 2, 3)]:
        rep = rep_space(SpaceSpec("Hk", m, n, k))
        for _ in range(25):
            support = rng.sample(range(rep.dim), min(rep.dim, rng.randint(1, 4)))
            coords = {i: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in support}
            v = rep.sub.linear_combination(coords)
            got = _readoff(rep._sub_pos, v)
            assert got == readoff_in_pivot_order(rep.sub, v), (m, n, k)
            assert got == {i: x for i, x in coords.items() if x}


def test_images_that_leave_the_subspace_are_refused():
    # span{x1} in (2|2) is not invariant: L_12 maps x1 to a multiple of x2
    m, n, k = 2, 1, 1
    sub = Subspace.from_vectors([poly_to_vec(SP.x(1), m, n, k)], dim_Pk(m, n, k))
    rep = RepSpace(SpaceSpec("Hk", m, n, k), sub, None)
    with pytest.raises(RuntimeError):
        rep.apply_generator(1, 2, {0: Fraction(1)})
    with pytest.raises(RuntimeError):
        rep.generator_matrix(1, 2)


def test_every_module_tree_application_comes_from_image(monkeypatch):
    """Module work applies no operator tree at all: every generator action is a
    closed-form RepSpace.image, and the branching blocks use per-degree matrices."""
    applied = []
    for cls in (diffops.MultiplyBy, diffops.Differentiate, diffops.Scale,
                diffops.Add, diffops.Compose):
        def counted(self, f, _apply=cls.apply):
            applied.append(type(self).__name__)
            return _apply(self, f)
        monkeypatch.setattr(cls, "apply", counted)
    images = []

    def counted_image(self, i, j, v, _image=RepSpace.image):
        images.append((i, j))
        return _image(self, i, j, v)
    monkeypatch.setattr(RepSpace, "image", counted_image)
    # the certificate, band closures, a quotient by a divisor and P_k itself
    for spec, expected in [(SpaceSpec("Hk", 3, 2, 4), True), (SpaceSpec("Hk", 2, 1, 2), False),
                           (SpaceSpec("HkModSub", 2, 2, 3), True),
                           (SpaceSpec("PkModR2", 2, 1, 2), False),
                           (SpaceSpec("Pk", 2, 1, 2), False)]:
        assert is_irreducible(rep_space(spec)) == expected, spec
    assert window_submodule_check(2, 2, 3).passed
    assert branching_explicit_check(2, 2, 3) == "verified"
    assert images and applied == []
    # the patch does count a tree application
    osp_generator(1, 2, 2, 1).apply(SP.x(1))
    assert applied


def test_generator_matrices_commute_with_casimir():
    for spec in [SpaceSpec("Hk", 2, 1, 2), SpaceSpec("Hk", 3, 1, 2),
                 SpaceSpec("PkModR2", 2, 1, 2), SpaceSpec("HkModSub", 2, 1, 2)]:
        rep = rep_space(spec)
        form_a, _ = laplace_beltrami(rep.m, rep.n)
        cas = [coords_of_poly(rep, form_a.apply(lift(rep, e))) for e in rep.basis_coords()]
        for (i, j) in rep.gen_pairs:
            gen = rep.generator_matrix(i, j)
            for c in range(rep.dim):
                # (cas . gen)(e_c) vs (gen . cas)(e_c)
                a = _apply_cols(cas, gen[c])
                b = _apply_cols(gen, cas[c])
                assert a == b, (spec, i, j, c)


def _apply_cols(cols, vec):
    out = {}
    for c, x in vec.items():
        if x:
            for r, y in cols[c].items():
                s = out.get(r, Fraction(0)) + x * y
                if s:
                    out[r] = s
                elif r in out:
                    del out[r]
    return out


def test_matrix_level_graded_commutators_close():
    rep = rep_space(SpaceSpec("Hk", 2, 1, 2))
    m, d = rep.m, rep.dim
    flat = []
    for (i, j) in rep.gen_pairs:
        flat.append(_flatten_cols(rep.generator_matrix(i, j), d))
    span = Subspace.from_vectors(flat, d * d)
    for (i, j) in rep.gen_pairs:
        for (k, l) in rep.gen_pairs:
            A = rep.generator_matrix(i, j)
            B = rep.generator_matrix(k, l)
            sign = ((1 if i > m else 0) + (1 if j > m else 0)) * \
                   ((1 if k > m else 0) + (1 if l > m else 0))
            ab = [_apply_cols(A, B[c]) for c in range(d)]
            ba = [_apply_cols(B, A[c]) for c in range(d)]
            s = Fraction(-1 if sign % 2 else 1)
            comm = [{r: ab[c].get(r, Fraction(0)) - s * ba[c].get(r, Fraction(0))
                     for r in set(ab[c]) | set(ba[c])} for c in range(d)]
            comm = [{r: x for r, x in col.items() if x} for col in comm]
            assert span.contains(_flatten_cols(comm, d))


def _flatten_cols(cols, d):
    out = {}
    for c, col in enumerate(cols):
        for r, x in col.items():
            out[c * d + r] = x
    return out


# -- closures ---------------------------------------------------------------------


def test_closure_of_invariant_vector():
    rep = rep_space(SpaceSpec("Hk", 2, 1, 2))
    seed = coords_of_poly(rep, r2(2, 1))
    closure = submodule_closure(rep, [seed])
    assert closure.dim == 1


def test_closure_of_a_seed_with_an_explicit_zero_entry():
    rep = rep_space(SpaceSpec("Hk", 2, 1, 2))
    closure = submodule_closure(rep, [{0: Fraction(0), 1: Fraction(1)}])
    assert closure == submodule_closure(rep, [{1: Fraction(1)}])


def test_closure_of_full_basis_is_everything():
    rep = rep_space(SpaceSpec("Hk", 2, 1, 2))
    assert submodule_closure(rep, rep.basis_coords()).dim == rep.dim


def test_closure_from_any_seed_in_irreducible_module():
    rep = rep_space(SpaceSpec("Hk", 3, 1, 2))
    for v in rep.basis_coords():
        assert submodule_closure(rep, [v]).dim == rep.dim


@pytest.mark.parametrize("kind, m, n, k", [("Hk", 2, 2, 4), ("Pk", 2, 1, 2),
                                           ("PkModR2", 4, 2, 2), ("HkModSub", 2, 2, 3)])
def test_closures_equal_the_fixed_point_over_the_whole_span(kind, m, n, k):
    """From every basis vector, in band cells where proper submodules exist."""
    rep = rep_space(SpaceSpec(kind, m, n, k))
    for v in rep.basis_coords():
        assert submodule_closure(rep, [v]) == closure_by_fixed_point(rep, [v]), (kind, v)


def test_a_closure_applies_no_generator_once_its_span_is_full(monkeypatch):
    events = []

    def add(self, v, _add=Echelon.add):
        grew = _add(self, v)
        if self.dim == self.width:
            events.append("full")
        return grew

    def apply_generator(self, i, j, coords, _apply=RepSpace.apply_generator):
        events.append("apply")
        return _apply(self, i, j, coords)

    monkeypatch.setattr(Echelon, "add", add)
    monkeypatch.setattr(RepSpace, "apply_generator", apply_generator)
    for spec in [SpaceSpec("Hk", 3, 1, 2), SpaceSpec("Hk", 3, 2, 3), SpaceSpec("Pk", 2, 1, 1)]:
        rep = rep_space(spec)
        for v in rep.basis_coords():
            events.clear()
            assert submodule_closure(rep, [v]).dim == rep.dim, spec
            assert "apply" in events and "apply" not in events[events.index("full"):], spec


# -- irreducibility ------------------------------------------------------------------


def test_irreducibility_spec_examples():
    for k in range(0, 5):
        assert is_irreducible(rep_space(SpaceSpec("Hk", 3, 1, k))), k
    assert not is_irreducible(rep_space(SpaceSpec("Hk", 2, 1, 2)))
    assert is_irreducible(rep_space(SpaceSpec("Hk", 2, 1, 3)))


def test_irreducibility_grid_small():
    for (m, n) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for k in range(0, 5):
            expected = not in_window(m, n, k)
            assert is_irreducible(rep_space(SpaceSpec("Hk", m, n, k))) == expected


def test_certificate_verdicts_hold_under_closures():
    # exhaustive closures are the oracle: whenever the reachability certificate
    # says irreducible, every piece group generates the whole module
    for m in range(2, 5):
        for n in range(1, 3):
            for k in range(0, 5):
                rep = rep_space(SpaceSpec("Hk", m, n, k))
                groups, tries = _piece_groups(rep)
                verdict = _certify_strong_connectivity(rep, groups, tries)
                assert verdict in (True, None), (m, n, k)
                if verdict:
                    assert not in_window(m, n, k), (m, n, k)
                    for label, vecs in groups:
                        assert submodule_closure(rep, vecs).dim == rep.dim, (m, n, k, label)


def test_certificate_leaves_the_band_to_closures():
    for (m, n, k) in [(2, 1, 2), (2, 2, 3), (2, 2, 4), (4, 2, 2)]:
        rep = rep_space(SpaceSpec("Hk", m, n, k))
        assert _certify_strong_connectivity(rep, *_piece_groups(rep)) is None, (m, n, k)
        assert not is_irreducible(rep)


def test_certificate_fires_on_a_large_module():
    rep = rep_space(SpaceSpec("Hk", 3, 2, 4))
    assert rep.dim == 80
    assert _certify_strong_connectivity(rep, *_piece_groups(rep)) is True


def test_certificate_refuses_groups_that_are_not_a_basis():
    rep = rep_space(SpaceSpec("Hk", 3, 1, 3))
    groups, tries = _piece_groups(rep)
    assert _certify_strong_connectivity(rep, groups, tries) is True
    (label, vecs), *rest = groups
    short = [(label, vecs[1:])] + rest
    assert _certify_strong_connectivity(rep, short, tries) is None
    # as many vectors as the dimension, but dependent
    doubled = [(label, [vecs[1]] + vecs[1:])] + rest
    assert _certify_strong_connectivity(rep, doubled, tries) is None


def test_the_certificate_refuses_an_image_out_of_the_subspace():
    """The q = 0 pieces of H_2(2|2) are a basis of their sum, so the
    certificate applies generators to them, and an odd generator maps them
    out of it; so does one of them alone, where the closures find it."""
    m, n, k = 2, 1, 2
    pieces = [pc for pc in decompose_Hk(m, n, k) if pc.q == 0]
    for chosen in (pieces, pieces[:1]):
        sub = Subspace.from_vectors([v for pc in chosen for v in Subspace.from_vectors(pc.vectors, dim_Pk(m, n, k)).rows], dim_Pk(m, n, k))
        rep = RepSpace(SpaceSpec("Hk", m, n, k), sub, None)
        if chosen is pieces:
            groups, tries = _piece_groups(rep)
            assert [label for label, _ in groups] == [(pc.l, pc.p, pc.q) for pc in pieces]
            with pytest.raises(RuntimeError, match="out of its subspace"):
                _certify_strong_connectivity(rep, groups, tries)
        with pytest.raises(RuntimeError, match="out of its subspace"):
            is_irreducible(rep)


def test_irreducibility_reads_back_an_image_where_it_applies_no_generator():
    """Over the (0,1,1) piece of H_2(2|2) the one-group certificate decides,
    and over the (0,3,0) piece of H_3(2|2) the closure seeds already span;
    neither applies a generator of its own, and both pieces are not
    invariant.  The invariant H_3 cap R^2 P_1 of (2|4), whose first tries
    lie outside it, is not refused."""
    m, n = 2, 1
    for k, label in [(2, (0, 1, 1)), (3, (0, 3, 0))]:
        piece = next(pc for pc in decompose_Hk(m, n, k) if (pc.l, pc.p, pc.q) == label)
        basis = Subspace.from_vectors(piece.vectors, dim_Pk(m, n, k))
        rep = RepSpace(SpaceSpec("Hk", m, n, k), basis, None)
        groups, _ = _piece_groups(rep)
        if k == 2:
            assert len(groups) == 1
        else:
            assert all(Subspace.from_vectors(vecs, rep.dim).dim == rep.dim for _, vecs in groups)
        with pytest.raises(RuntimeError, match="out of its subspace"):
            is_irreducible(rep)
    sub = modules.hk_window_intersection(2, 2, 3)
    rep = RepSpace(SpaceSpec("Hk", 2, 2, 3), sub, None)
    _, tries = _piece_groups(rep)
    assert not sub.contains(tries[0][0])
    assert is_irreducible(rep)


def _positive_multiple(u, v) -> bool:
    """u = c v for some c > 0."""
    if u.keys() != v.keys() or not u:
        return u == v
    c = Fraction(u[min(u)]) / v[min(u)]
    return c > 0 and all(u[i] == c * v[i] for i in u)


def test_the_tries_are_the_first_group_vectors_as_primitive_ints():
    for kind, (m, n, k) in [("Hk", (3, 1, 3)), ("HkModSub", (2, 2, 4)), ("Pk", (2, 1, 4)),
                            ("PkModR2", (2, 2, 3))]:
        rep = rep_space(SpaceSpec(kind, m, n, k))
        groups, tries = _piece_groups(rep)
        assert len(tries) == len(groups)
        for (label, vecs), lifts in zip(groups, tries):
            assert len(lifts) == min(4, len(vecs)), (kind, label)
            for t, v in zip(lifts, vecs):
                assert all(type(x) is int for x in t.values()) and math.gcd(*t.values()) == 1
                assert _positive_multiple(rep.coords(t), v), (kind, label)


def test_pkmodr2_seed_groups_are_the_reference_products():
    """theta^{2j} b g from int products through the held mul_theta2 is a
    positive multiple of the polynomial product, vector by vector."""
    for (m, n, k) in [(2, 1, 2), (2, 2, 4), (3, 2, 3), (4, 2, 4)]:
        rep = rep_space(SpaceSpec("PkModR2", m, n, k))
        groups, _ = _piece_groups(rep)
        expected = []
        for j, p, q, _ in piece_labels(m, n, k):
            prods = piece_products(theta2(n) ** j, m, n, p, q)
            vecs = [v for v in (coords_of_poly(rep, f) for f in prods) if v]
            if vecs:
                expected.append(((j, p, q), vecs))
        assert [label for label, _ in groups] == [label for label, _ in expected]
        for (label, vecs), (_, want) in zip(groups, expected):
            assert len(vecs) == len(want), (m, n, k, label)
            assert all(map(_positive_multiple, vecs, want)), (m, n, k, label)


def test_piece_coordinates_match_the_projectors():
    # the pieces with a nonzero exact coordinate are the pieces whose
    # projector leaves the image nonzero
    for (m, n, k) in [(3, 1, 3), (4, 2, 2)]:
        rep = rep_space(SpaceSpec("Hk", m, n, k))
        groups, _ = _piece_groups(rep)
        inv, owner = _piece_inverse(groups, rep.dim)
        projectors = [projection_Q(l, q, k, m, n) for (l, _, q), _ in groups]
        for _, vecs in groups:
            for v, (i, j) in itertools.product(vecs[:4], rep.gen_pairs):
                image = osp_generator(i, j, m, n).apply(lift(rep, v))
                blocks = _nonzero_pieces(inv, owner, coords_of_poly(rep, image))
                expected = {g for g, Q in enumerate(projectors)
                            if not Q.apply(image).is_zero()}
                assert blocks == expected, (m, n, k, i, j)


def exact_piece_supports(groups, dim, w):
    """Groups on which w has a nonzero coordinate, from the exact inverse of A
    (one Fraction elimination of [A | I])."""
    rows = [v for _, vecs in groups for v in vecs]
    owner = [g for g, (_, vecs) in enumerate(groups) for _ in vecs]
    ech = Echelon(2 * dim)
    for i, v in enumerate(rows):
        ech.add({**v, dim + i: Fraction(1)})
    assert sorted(ech.rows) == list(range(dim))
    y = {}
    for c, x in w.items():
        for i, z in ech.rows[c].items():
            if i >= dim:
                y[i - dim] = y.get(i - dim, 0) + x * z
    return {owner[i] for i, x in y.items() if x}


def test_piece_supports_mod_p_equal_the_exact_ones():
    rep = rep_space(SpaceSpec("Hk", 3, 2, 3))
    groups, _ = _piece_groups(rep)
    inv, owner = _piece_inverse(groups, rep.dim)
    images = 0
    for _, vecs in groups:
        for v, (i, j) in itertools.product(vecs, rep.gen_pairs):
            image = rep.apply_generator(i, j, v)
            assert (_nonzero_pieces(inv, owner, image)
                    == exact_piece_supports(groups, rep.dim, image)), (i, j)
            images += 1
    assert images == rep.dim * len(rep.gen_pairs)


def test_piece_inverse_refuses_what_has_no_inverse_mod_p():
    # invertible over Q, but singular mod PRIME
    assert _piece_inverse([("a", [{0: Fraction(PRIME)}]), ("b", [{1: Fraction(1)}])], 2) is None
    # an entry with no image mod PRIME
    assert _piece_inverse([("a", [{0: Fraction(1, PRIME)}]), ("b", [{1: Fraction(1)}])], 2) is None
    assert _piece_inverse([("a", [{0: Fraction(3)}]), ("b", [{1: Fraction(1)}])], 2) is not None


def test_closures_alone_give_the_certified_verdicts(monkeypatch):
    cells = [(m, n, k) for m in range(2, 5) for n in range(1, 3) for k in range(0, 5)]
    verdicts = [is_irreducible(rep_space(SpaceSpec("Hk", *cell))) for cell in cells]
    monkeypatch.setattr(modules, "_piece_inverse", lambda groups, dim: None)
    assert [is_irreducible(rep_space(SpaceSpec("Hk", *cell))) for cell in cells] == verdicts


def test_pk_reducible_for_degree_two_and_up():
    assert is_irreducible(rep_space(SpaceSpec("Pk", 2, 1, 1)))
    assert not is_irreducible(rep_space(SpaceSpec("Pk", 2, 1, 2)))
    assert not is_irreducible(rep_space(SpaceSpec("Pk", 3, 1, 3)))


def test_pk_seed_groups_are_the_radial_blocks():
    """Each P_k group (j, l, p, q) lies in the radial block R^{2j} H_{k-2j},
    and the groups span the sum of the blocks: all of P_k where it is direct."""
    for (m, n) in [(2, 2), (3, 2)]:
        groups, _ = _piece_groups(rep_space(SpaceSpec("Pk", m, n, 4)))
        fd = fischer(m, n, 4)
        blocks = {piece.j: Subspace.from_vectors(piece.vectors, dim_Pk(m, n, 4))
                  for piece in fd.pieces}
        for label, vecs in groups:
            assert all(blocks[label[0]].contains(v) for v in vecs), (m, n, label)
        span = Subspace.from_vectors([v for _, vecs in groups for v in vecs], dim_Pk(m, n, 4))
        blocks_sum = Subspace.from_vectors(
            [v for piece in fd.pieces for v in piece.vectors], dim_Pk(m, n, 4))
        assert span == blocks_sum and (span.dim == dim_Pk(m, n, 4)) == fd.direct_sum


def test_quotient_isomorphism_outside_window():
    # away from the degenerate band PkModR2 and Hk have the same dimension
    for (m, n, k) in [(3, 1, 2), (2, 1, 3)]:
        assert (rep_space(SpaceSpec("PkModR2", m, n, k)).dim
                == rep_space(SpaceSpec("Hk", m, n, k)).dim)


def test_indecomposability_witnesses():
    assert indecomposability_witness(rep_space(SpaceSpec("Hk", 2, 1, 2))) == "verified"
    assert indecomposability_witness(rep_space(SpaceSpec("PkModR2", 2, 1, 2))) == "verified"
    assert indecomposability_witness(rep_space(SpaceSpec("Hk", 3, 1, 2))) == "verified"


# -- the degenerate band ---------------------------------------------------------------


def test_window_interval():
    assert window_interval(2, 1) == (2, 2)
    assert window_interval(2, 2) == (3, 4)
    assert window_interval(3, 1) is None
    assert in_window(2, 1, 2) and not in_window(2, 1, 3)


def test_window_checks():
    for (m, n, k) in [(2, 1, 2), (4, 2, 2), (2, 2, 3), (2, 2, 4)]:
        res = window_submodule_check(m, n, k)
        assert res.passed, (m, n, k, res.details)
    res = window_submodule_check(2, 1, 2)
    assert res.submodule_dim == 1 and res.quotient_dim == 6


def test_fischer_and_the_window_check_multiply_no_polynomials(monkeypatch):
    """R^{2j} acts by the owner's held mul_r2 matrix, never by a polynomial
    product, once the harmonic bases and pieces are built."""
    cells = [(0, 2, 4), (2, 1, 2), (2, 2, 3), (2, 2, 4), (3, 2, 4), (4, 2, 2)]
    for m, n, k in cells:
        for d in range(k + 1):
            harmonic_basis(m, n, d)
            if m:
                decompose_Hk(m, n, d)
    calls = []
    for name in ("__mul__", "__pow__"):
        def spy(self, other, _name=name, _method=getattr(SP, name)):
            calls.append(_name)
            return _method(self, other)
        monkeypatch.setattr(SP, name, spy)
    for m, n, k in cells:
        fischer(m, n, k)
        if m and in_window(m, n, k):
            assert window_submodule_check(m, n, k).passed, (m, n, k)
    assert calls == []


def test_window_precondition():
    with pytest.raises(ValueError):
        window_submodule_check(3, 1, 2)


def test_eigenvalue_obstruction():
    """R^{2p} H_{k-2p} sits inside H_k exactly when p = k - 1 + M/2."""
    for (m, n) in [(2, 1), (3, 1), (2, 2)]:
        M = m - 2 * n
        for k in range(2, 6):
            for p in range(1, k // 2 + 1):
                hb = subspace_polys(harmonic_basis(m, n, k - 2 * p), m, n, k - 2 * p)
                r2p = r2(m, n) ** p
                lap = nabla2(m, n)
                included = all(lap.apply(r2p * h).is_zero() for h in hb)
                expected = (M % 2 == 0 and 2 * p == 2 * (k - 1) + M)
                assert included == expected, (m, n, k, p)


# -- simple dimensions and decompositions ------------------------------------------------


def test_simple_dim_examples():
    assert simple_dim(2, 1, 2) == 6
    assert simple_dim(3, 1, 2) == 12
    for (m, n) in [(2, 1), (3, 2), (4, 2)]:
        assert simple_dim(m, n, 0) == 1


def test_simple_dim_equals_quotient_dimension():
    for (m, n) in [(2, 1), (3, 1), (2, 2), (4, 2)]:
        for k in range(0, 5):
            assert simple_dim(m, n, k) == rep_space(SpaceSpec("HkModSub", m, n, k)).dim


def test_simple_dim_window_equals_difference():
    # the four-sum closed form subtracts exactly dim H_{2-M-k}
    for (m, n) in [(2, 1), (2, 2), (4, 2)]:
        M = m - 2 * n
        lo, hi = window_interval(m, n)
        for k in range(lo, hi + 1):
            assert simple_dim(m, n, k) == dim_Hk(m, n, k) - dim_Hk(m, n, 2 - M - k)


def test_decompose_simple_examples():
    pieces = decompose_simple(2, 1, 2)
    assert sorted((p.j, p.l, p.dim) for p in pieces) == [(0, 0, 2), (1, 0, 4)]
    assert sum(p.dim for p in pieces) == 6
    pieces = decompose_simple(3, 1, 2)
    assert sum(p.dim for p in pieces) == 12
    (piece,) = decompose_simple(3, 1, 0)
    assert piece.dim == 1


def test_decompose_simple_totals():
    for (m, n) in [(2, 1), (3, 1), (2, 2), (4, 2)]:
        for k in range(0, 6):
            assert sum(p.dim for p in decompose_simple(m, n, k)) == simple_dim(m, n, k)


def test_window_pieces_are_the_uncapped_remainder():
    # inside the band, the removed pieces have radial index >= k + M/2 - 1
    m, n, k = 2, 2, 3
    M = m - 2 * n
    removed = [(pc.l, pc.p, pc.q, pc.dim) for pc in decompose_Hk(m, n, k)
               if pc.l >= k + M // 2 - 1]
    assert sum(d for *_, d in removed) == dim_Hk(m, n, 2 - M - k)


# -- branching ----------------------------------------------------------------------------


def test_branching_cases():
    assert branching_case(4, 1, 3) == ("full", [0, 1, 2, 3])
    assert branching_case(2, 1, 2) == ("truncated", [1, 2])
    assert branching_case(3, 1, 3)[0] == "not_completely_reducible"
    assert branching_case(3, 1, 1) == ("full", [0, 1])
    assert branching_case(3, 2, 2) == ("full", [0, 1, 2])
    assert branching_case(3, 2, 3)[0] == "not_completely_reducible"


def test_branching_requires_two_bosonic_directions():
    with pytest.raises(ValueError):
        branching(1, 1, 2)


def test_branching_dimension_identities():
    for (m, n) in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)]:
        for k in range(0, 6):
            b = branching(m, n, k)
            if b.case != "not_completely_reducible":
                assert b.dim_identity, (m, n, k, b)


def test_branching_spec_examples():
    b = branching(2, 1, 2)
    assert b.case == "truncated" and b.branch == [(1, 3), (2, 3)]
    assert sum(d for _, d in b.branch) == simple_dim(2, 1, 2) == 6
    b = branching(4, 1, 3)
    assert b.case == "full" and [l for l, _ in b.branch] == [0, 1, 2, 3]
    b = branching(3, 1, 3)
    assert b.case == "not_completely_reducible" and b.branch == []


def test_branching_explicit_small():
    assert branching_explicit_check(2, 1, 2) == "verified"
    assert branching_explicit_check(2, 1, 3) == "verified"
    assert branching_explicit_check(4, 1, 2) == "verified"
    assert branching_explicit_check(4, 2, 2) == "verified"


def test_the_explicit_work_model_counts_the_subalgebra_pairs(monkeypatch):
    """A cell is refused exactly when its (subalgebra pairs + k + 1 blocks) x
    dim P_k exceed the limit; (4|4) at k = 6, the largest on m <= 4, n <= 2,
    k <= 6, answers."""
    for (m, n, k) in [(2, 0, 3), (3, 1, 1), (4, 2, 1)]:
        pairs = [(i, j) for (i, j) in generator_pairs(m, n) if i >= 2 and j >= 2]
        work = (len(pairs) + k + 1) * dim_Pk(m, n, k)
        monkeypatch.setattr(modules, "MAX_EXPLICIT_WORK", work)
        assert branching_explicit_check(m, n, k) == "verified"
        monkeypatch.setattr(modules, "MAX_EXPLICIT_WORK", work - 1)
        with pytest.raises(ValueError, match=rf"needs {work} \(subalgebra pairs \+ blocks\)"):
            branching_explicit_check(m, n, k)
    monkeypatch.undo()
    assert branching_explicit_check(4, 2, 6) == "verified"


# the 13 explicit cells of acceptance criterion 10, then (3|2) and (5|0) at k <= 4
WORD_CHECK_CELLS = ([(2, 1, k) for k in range(0, 5)] + [(4, 1, k) for k in range(0, 4)]
                    + [(4, 2, k) for k in range(0, 4)]
                    + [(m, n, k) for (m, n) in [(3, 1), (5, 0)] for k in range(0, 5)])


def _subalgebra_pairs(m, n):
    return [(a, b) for (a, b) in generator_pairs(m, n) if a >= 2 and b >= 2]


def _differentiates_in_x1(m, n):
    mats = operator_matrices(m, n)
    return any(mats.generator_differentiates(a, b, 1) for (a, b) in _subalgebra_pairs(m, n))


def test_the_word_check_agrees_with_the_identity_on_the_block_vectors():
    for (m, n, k) in WORD_CHECK_CELLS:
        assert not _differentiates_in_x1(m, n), (m, n, k)
        assert block_intertwiner_holds(m, n, k), (m, n, k)


def test_a_generator_word_holding_d_dx1_is_refused(monkeypatch):
    """L_23 of (4|2) replaced by L_23 + L_12 in a fresh owner: still a module
    map of P_k / R^2 P_{k-2} (both commute with R^2), but no longer one that
    commutes with x1.  The word check refuses the cell, and the identity on
    the block vectors, which ``generator_image`` evaluates by the same words,
    fails too."""
    m, n, k = 4, 1, 2
    assert branching_explicit_check(m, n, k) == "verified"
    assert not operator_matrices(m, n).generator_differentiates(2, 3, 1)
    assert operator_matrices(m, n).generator_differentiates(1, 2, 1)

    def generator(i, j, m_, n_, _osp_generator=osp_generator):
        return tampered if (i, j, m_, n_) == (2, 3, m, n) else _osp_generator(i, j, m_, n_)

    operator_matrices.cache_clear()
    try:
        tampered = operator_sum([osp_generator(2, 3, m, n), osp_generator(1, 2, m, n)])
        monkeypatch.setattr(diffops, "osp_generator", generator)
        assert _differentiates_in_x1(m, n)
        assert (branching_explicit_check(m, n, k)
                == "inconclusive: block intertwiner identity failed")
        assert not block_intertwiner_holds(m, n, k)
    finally:
        monkeypatch.undo()
        operator_matrices.cache_clear()
    assert branching_explicit_check(m, n, k) == "verified"


def test_the_branching_blocks_are_the_blocks_by_polynomial_powers():
    """x1^{k-l} H'_l and x1^eps R'^{2j} H'_l (k - l = eps + 2j) span the same
    subspace of W = P_k / R^2 P_{k-2}, where x1^2 = -R'^2, for every l; in P_k
    itself some of them differ."""
    band = differ = 0
    for m in range(2, 5):
        for n in range(0, 3):
            for k in range(0, 7):
                W, width = rep_space(SpaceSpec("PkModR2", m, n, k)), dim_Pk(m, n, k)
                reference = branching_blocks_by_polynomials(m, n, k)
                for l, _, block in _branching_blocks(m, n, k):
                    assert (Subspace.from_vectors(map(W.coords, block), W.dim)
                            == Subspace.from_vectors(map(W.coords, reference[l]), W.dim)), \
                        (m, n, k, l)
                    differ += (Subspace.from_vectors(block, width)
                               != Subspace.from_vectors(reference[l], width))
                band += in_window(m, n, k)
    assert band and differ


def test_quotient_charts_are_well_defined():
    # rep_space validates that generators preserve the divisor; a bogus divisor
    # must be rejected by the same machinery
    from superh.modules import RepSpace, _validate_rep
    m, n, k = 2, 1, 2
    bogus = Subspace.from_vectors([poly_to_vec(SP.x(1, 2), m, n, k)], 8)
    rep = RepSpace(SpaceSpec("PkModR2", m, n, k), None, bogus)
    with pytest.raises(RuntimeError):
        _validate_rep(rep)
