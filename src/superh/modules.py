"""Representation analysis of the generator action on polynomial spaces.

Four kinds of module are supported on parameters (m, n, k):

  * Pk        - all degree-k polynomials,
  * Hk        - the harmonic subspace,
  * PkModR2   - the quotient P_k / R^2 P_{k-2},
  * HkModSub  - the quotient H_k / (H_k  intersect  R^2 P_{k-2}).

Each is a subquotient S / D of P_k, held by one class, RepSpace, that acts
through the exact matrices of the generators L_ij.  Every generator image is
read back by RepSpace._read_back (for RepSpace.image and the certificate),
which checks that it stays in the module's subspace S and raises otherwise.
Submodules are certified by exact closure; irreducibility of H_k-type modules
over Q reduces, for m >= 2, to reachability between the joint eigenspace
pieces, because every invariant subspace is a sum of pieces (the pieces are
pairwise non-isomorphic irreducible modules for the degree-preserving block of
the algebra).  Reachability edges are certified by applying a generator once
to each try, a piece vector as a primitive int vector of P_k, and reading a
coordinate of the checked image in the basis of piece vectors that is nonzero
mod a prime, through one mod-p elimination per module; no module column is
built.  Exhaustive closures decide whatever the certificate leaves open.

The degenerate band: for even M = m - 2n <= 0 and 2 - M/2 <= k <= 2 - M, H_k
contains the invariant subspace R^(2k+M-2) H_{2-M-k}; the quotient HkModSub is
the simple module whose dimension `simple_dim` reports.  The band
(`in_window`, `window_interval`) and the (l, p, q) labels of the pieces
(`piece_labels`) are stated once, in `superh.harmonic`, and read from there.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, Sequence

# SuperPolynomial is not used here; bench/test_bench.py reads modules.SuperPolynomial
from .superalgebra import SuperMonomial, SuperPolynomial, dim_Pk, monomial_basis  # noqa: F401
from .linalg import (
    Echelon,
    ModpRows,
    Subspace,
    Vec,
    _eliminate_modp,
    _iadd_scaled,
    _keep_modp,
    _residues,
    certified_full_rank,
)
from .diffops import generator_pairs, operator_matrices
from .harmonic import (
    _product_rows,
    decompose_Hk,
    dim_Hk,
    comb0,
    harmonic_basis,
    in_window,
    piece_labels,
    window_interval,
)

SpaceKind = Literal["Pk", "Hk", "PkModR2", "HkModSub"]
# labeled piece groups: (label, vectors in module coordinates)
PieceGroups = list[tuple[tuple, list[Vec]]]

# rounds of generator applications the reachability shortcut may spend
CONNECTIVITY_ROUNDS = 6
# (subalgebra generator pairs + blocks) x dim P_k that branching_explicit_check may spend
MAX_EXPLICIT_WORK = 20_000
# random small-integer combinations tried by indecomposability_witness, and their seed
WITNESS_TRIES = 8
WITNESS_SEED = 20240


@dataclass(frozen=True)
class SpaceSpec:
    kind: SpaceKind
    m: int
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in ("Pk", "Hk", "PkModR2", "HkModSub"):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.m < 1 or self.n < 0 or self.k < 0:
            raise ValueError("need m >= 1, n >= 0, k >= 0")


# -- module spaces --------------------------------------------------------------


def _readoff(positions: dict[int, int], v: Vec) -> Vec:
    """Echelon coordinates of a vector v of a subspace, read off at its pivots
    through the position of each pivot in its basis; the work is v's entries."""
    return {positions[p]: x for p, x in v.items() if p in positions}


class RepSpace:
    """The subquotient sub / divisor of P_k with exact generator matrices.

    ``sub`` is a subspace of P_k (None for all of P_k) and ``divisor`` a
    subspace of sub's echelon coordinates (None without a quotient).  Module
    coordinates are sub's coordinates off the divisor's pivots.  Generators act
    through ``image``, which evaluates L_ij on the P_k vector by its words
    (``OperatorMatrices.generator_image``, from the words and leaves that
    ``operator_matrices(m, n)`` keeps for every module of the space) and checks
    by ``_read_back`` that every image stays in sub.  A column of a generator matrix is
    the divisor-reduced image of a basis vector, computed on first use;
    applying a generator to a module vector is a sparse mat-vec over them.
    """

    def __init__(self, spec: SpaceSpec, sub: Subspace | None, divisor: Subspace | None):
        self.spec, self.sub, self.divisor = spec, sub, divisor
        self.gen_pairs = generator_pairs(spec.m, spec.n)
        self.m, self.n, self.k = spec.m, spec.n, spec.k
        width = len(monomial_basis(spec.m, spec.n, spec.k)) if sub is None else sub.dim
        # the sub coordinates that serve as module coordinates, in order
        self._kept = list(range(width)) if divisor is None else divisor.complement_columns()
        self.dim = len(self._kept)
        self._kept_pos = {c: i for i, c in enumerate(self._kept)}
        self._sub_pos = None if sub is None else {p: i for i, p in enumerate(sub.pivots)}
        self._matrix_columns: dict[tuple[int, int, int], Vec] = {}

    def _in_pk(self, v: Vec) -> Vec:
        """A vector of sub's coordinates as a vector of P_k."""
        return v if self.sub is None else self.sub.linear_combination(v)

    def image(self, i: int, j: int, v: Vec) -> Vec:
        """L_ij v in sub's coordinates for v in sub's coordinates."""
        mats = operator_matrices(self.m, self.n)
        return self._read_back(i, j, mats.generator_image(i, j, self._in_pk(v), self.k))

    def _read_back(self, i: int, j: int, image: Vec) -> Vec:
        """sub's coordinates of the P_k vector image = L_ij v, v in sub;
        RuntimeError unless the coordinates read off at the pivots recombine
        to the image."""
        if self.sub is None:
            return image
        coords = _readoff(self._sub_pos, image)
        if self.sub.linear_combination(coords) != image:
            raise RuntimeError(f"L_{i}{j} maps a vector of {self.spec} out of its subspace")
        return coords

    def _module_coords(self, v: Vec) -> Vec:
        """Module coordinates of a vector in sub's coordinates."""
        if self.divisor is not None:
            v = self.divisor.reduce(v)
        return {self._kept_pos[c]: x for c, x in v.items()}

    def coords(self, v: Vec) -> Vec:
        """Module coordinates of a vector v of P_k that lies in sub."""
        return self._module_coords(v if self.sub is None else _readoff(self._sub_pos, v))

    def _column(self, i: int, j: int, c: int) -> Vec:
        key = (i, j, c)
        col = self._matrix_columns.get(key)
        if col is None:
            image = self.image(i, j, {self._kept[c]: 1})
            col = self._matrix_columns[key] = self._module_coords(image)
        return col

    def generator_matrix(self, i: int, j: int) -> list[Vec]:
        """Matrix of L_ij as a list of column vectors in module coordinates."""
        return [self._column(i, j, c) for c in range(self.dim)]

    def apply_generator(self, i: int, j: int, coords: Vec) -> Vec:
        out: Vec = {}
        for c, x in coords.items():
            if x:
                _iadd_scaled(out, x, self._column(i, j, c))
        return out

    def basis_coords(self) -> list[Vec]:
        return [{c: 1} for c in range(self.dim)]


def _divisor_r2p(m: int, n: int, k: int) -> Subspace:
    """R^2 P_{k-2} as a subspace of P_k."""
    mats = operator_matrices(m, n)
    return Subspace.from_vectors(mats.matrix(mats.mul_r2, k - 2), dim_Pk(m, n, k))


@lru_cache(maxsize=None)
def hk_window_intersection(m: int, n: int, k: int) -> Subspace:
    """H_k intersect R^2 P_{k-2}, computed by exact subspace intersection."""
    return harmonic_basis(m, n, k).intersect(_divisor_r2p(m, n, k))


def rep_space(spec: SpaceSpec) -> RepSpace:
    m, n, k = spec.m, spec.n, spec.k
    sub = harmonic_basis(m, n, k) if spec.kind in ("Hk", "HkModSub") else None
    divisor = None
    if spec.kind == "PkModR2":
        divisor = _divisor_r2p(m, n, k)
    elif spec.kind == "HkModSub":
        positions = {p: i for i, p in enumerate(sub.pivots)}
        rows = [_readoff(positions, row) for row in hk_window_intersection(m, n, k).rows]
        divisor = Subspace.from_vectors(rows, sub.dim)
    rep = RepSpace(spec, sub, divisor)
    _validate_rep(rep)
    return rep


def _validate_rep(rep: RepSpace) -> None:
    """Quotients: every generator must map the divisor into the divisor."""
    if rep.divisor is None:
        return
    for row in rep.divisor.rows:
        for (i, j) in rep.gen_pairs:
            if rep.divisor.reduce(rep.image(i, j, row)):
                raise RuntimeError(
                    f"L_{i}{j} does not preserve the divisor of {rep.spec}")


# -- piece seed groups ------------------------------------------------------------


def _radial_blocks(m: int, n: int, deg: int, j: int) -> list[tuple[tuple, list[Vec]]]:
    """R^{2j} times the int vectors of each piece of H_deg, as vectors of
    P_{deg+2j}, labeled (l, p, q)."""
    mats = operator_matrices(m, n)
    return [((pc.l, pc.p, pc.q), mats.power(mats.mul_r2, pc.vectors, deg, j))
            for pc in decompose_Hk(m, n, deg)]


def _groups(rep: RepSpace, blocks) -> tuple[PieceGroups, list[list[Vec]]]:
    """The labeled blocks of P_k vectors in rep's module coordinates, a block
    whose vectors all vanish there left out, and the tries of each group: its
    first four vectors as the int vectors of P_k that they were read off."""
    groups, tries = [], []
    for label, vecs in blocks:
        kept = [(u, v) for u in vecs if (v := rep.coords(u))]
        if kept:
            groups.append((label, [v for _, v in kept]))
            tries.append([u for u, _ in kept[:4]])
    return groups, tries


def _piece_groups(rep: RepSpace) -> tuple[PieceGroups, list[list[Vec]]]:
    """Labeled joint-eigenspace seed groups spanning the module, by `_groups`."""
    m, n, k = rep.m, rep.n, rep.k
    if rep.spec.kind in ("Hk", "HkModSub"):
        return _groups(rep, _radial_blocks(m, n, k, 0))
    if rep.spec.kind == "Pk":
        return _groups(rep, [((j, *label), vecs) for j in range(0, k // 2 + 1)
                             for label, vecs in _radial_blocks(m, n, k - 2 * j, j)])
    mats = operator_matrices(m, n)  # PkModR2: theta^{2j} Hb_p Hf_q
    return _groups(rep, [((j, p, q), mats.power(mats.mul_theta2, _product_rows(m, n, p, q),
                                                   p + q, j))
                         for j, p, q, _ in piece_labels(m, n, k)])


# -- closures ----------------------------------------------------------------------


def submodule_closure(rep: RepSpace, seeds: Sequence[Vec]) -> Subspace:
    """Smallest generator-invariant subspace containing the seeds.

    Exact iteration V <- V + sum_G G V until the dimension stabilizes, or
    until V is the whole module, which ends a round at once; on termination
    the invariance G V within V has been checked by construction, or holds
    because V is everything.
    """
    ech = Echelon(rep.dim)
    frontier = [dict(v) for v in seeds if ech.add(v)]
    while frontier and ech.dim < rep.dim:
        fresh: list[Vec] = []
        for (i, j), v in itertools.product(rep.gen_pairs, frontier):
            w = rep.apply_generator(i, j, v)
            if w and ech.add(w):
                fresh.append(w)
                if ech.dim == rep.dim:
                    break
        frontier = fresh
    if ech.dim == rep.dim:
        return Subspace.from_vectors(rep.basis_coords(), rep.dim)
    return Subspace(rep.dim, ech.sorted_rows())


def _closure_reaches_all(rep: RepSpace, seeds: Sequence[Vec]) -> bool:
    return submodule_closure(rep, seeds).dim == rep.dim


# -- irreducibility -----------------------------------------------------------------


def _piece_inverse(groups: PieceGroups, dim: int) -> tuple[ModpRows, list[int]] | None:
    """[A | I] forward-eliminated mod PRIME and the group of each row of A, where
    the rows of A are the group vectors.  None when an entry has no image mod
    PRIME or a pivot lands in the right block; otherwise A is invertible mod
    PRIME, so the group vectors are a basis over Q.
    """
    rows = [v for _, vecs in groups for v in vecs]
    if len(rows) != dim:
        return None
    pivots: ModpRows = {}
    for i, v in enumerate(rows):
        if (row := _residues(v)) is None:
            return None
        row[dim + i] = 1
        if _keep_modp(_eliminate_modp(row, pivots), pivots) >= dim:
            return None
    owner = [g for g, (_, vecs) in enumerate(groups) for _ in vecs]
    return pivots, owner


def _nonzero_pieces(inv: ModpRows, owner: list[int], w: Vec) -> set[int]:
    """Groups on which w has a piece coordinate that is nonzero mod PRIME.

    Reducing [w | 0] by the rows of inv leaves [0 | -y] with w = yA.  A zero
    residue, or a w with no image mod PRIME, can only lose an edge.
    """
    row = _residues(w) or {}
    return {owner[c - len(owner)] for c in _eliminate_modp(row, inv)}


def _certify_strong_connectivity(rep: RepSpace, groups: PieceGroups,
                                  tries: list[list[Vec]]) -> bool | None:
    """Reachability certificate between the pieces of an H_k-type module.

    Applies generators exactly to the tries of each group (P_k vectors, each a
    positive multiple of a group vector) and reads the image back as
    ``RepSpace.image`` does; a coordinate of the image in the basis of piece
    vectors, in the block of piece dst, that is nonzero mod PRIME certifies
    the edge src -> dst.  The scale multiplies the coordinates, so a residue
    that it zeroes or refuses can only lose an edge.  A strongly connected
    edge graph leaves no proper invariant piece sum, hence (for m >= 2) no
    proper submodule, at any dimension.  Returns True on success, None when
    the groups are not a basis mod PRIME or the budget runs out (the closures
    decide), and False never: absence of edges is not certified here.
    """
    m = rep.m
    if m < 2 or rep.spec.kind not in ("Hk", "HkModSub"):
        return None
    basis = _piece_inverse(groups, rep.dim)
    if basis is None:
        return None
    if len(groups) <= 1:
        _read_back_a_vector(rep)
        return True
    inv, owner = basis
    mats = operator_matrices(m, rep.n)
    # mixed generators first: they move between pieces
    ordered_pairs = sorted(rep.gen_pairs,
                           key=lambda ij: 0 if (ij[0] <= m < ij[1]) else 1)
    edges: dict[int, set[int]] = {g: set() for g in range(len(groups))}
    iterators = [iter([(op_pair, v) for v in vecs for op_pair in ordered_pairs])
                 for vecs in tries]

    def strongly_connected() -> bool:
        for start in edges:
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in edges[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != len(groups):
                return False
        return True

    for _ in range(CONNECTIVITY_ROUNDS):
        progressed = False
        for src, it in enumerate(iterators):
            for (i, j), v in itertools.islice(it, 8):
                progressed = True
                w = rep._read_back(i, j, mats.generator_image(i, j, v, rep.k))
                edges[src] |= _nonzero_pieces(inv, owner, rep._module_coords(w))
            if strongly_connected():
                return True
        if not progressed:
            break
    return True if strongly_connected() else None


def _read_back_a_vector(rep: RepSpace) -> None:
    """Every generator's image of the first basis vector of sub, read back by
    ``RepSpace._read_back``: RuntimeError when one leaves sub.  The one-group
    certificate and a closure whose seeds already span decide without
    applying a generator, so this keeps them from trusting sub unchecked.
    (A try need not lie in sub: the groups are read off at sub's pivots.)"""
    if rep.sub is None:  # all of P_k
        return
    mats = operator_matrices(rep.m, rep.n)
    for (i, j) in rep.gen_pairs:
        rep._read_back(i, j, mats.generator_image(i, j, rep.sub.rows[0], rep.k))


def is_irreducible(rep: RepSpace) -> bool:
    """Exact irreducibility of the module over the rationals.

    H_k-type modules with m >= 2 first try the piece-reachability certificate,
    at every dimension.  Otherwise exhaustive exact closures from every piece
    group decide (for m >= 2 every invariant subspace is a sum of pieces, so
    this is complete), at m = 1 additionally from every basis vector.  A
    module of dimension >= 2 reads back at least every generator's image of
    one vector of sub, so a sub that it finds not invariant raises
    RuntimeError.
    """
    if rep.dim < 1:
        raise ValueError("module must have dimension >= 1")
    if rep.dim == 1:
        return True
    groups, tries = _piece_groups(rep)
    if _certify_strong_connectivity(rep, groups, tries):
        return True
    _read_back_a_vector(rep)  # a closure whose seeds span applies no generator
    for _, vecs in groups:
        if not _closure_reaches_all(rep, vecs):
            return False
    if rep.m == 1:
        for v in rep.basis_coords():
            if not _closure_reaches_all(rep, [v]):
                return False
    return True


def indecomposability_witness(rep: RepSpace) -> str:
    """'verified' when some single vector generates the whole module.

    A cyclic vector makes the module indecomposable.  The candidates are the
    vectors of the purely bosonic harmonic piece (q = 0, l = 0), then random
    small-integer combinations.  'inconclusive' never claims a decomposition
    exists.
    """
    cand: list[Vec] = []
    # labels end in (..., p, q); the purely bosonic piece has p = k, q = 0
    for label, vecs in _piece_groups(rep)[0]:
        if label[-1] == 0 and label[-2] == rep.k:
            cand.extend(vecs)
    rng = random.Random(WITNESS_SEED)
    for _ in range(WITNESS_TRIES):
        combo: Vec = {}
        for i in range(rep.dim):
            c = rng.randint(-3, 3)
            if c:
                combo[i] = c
        if combo:
            cand.append(combo)
    for v in cand:
        if v and _closure_reaches_all(rep, [v]):
            return "verified"
    return "inconclusive"


# -- dimensions of the simple modules -----------------------------------------------


def simple_dim(m: int, n: int, k: int) -> int:
    """Dimension of the simple module labelled by k.

    Outside the degenerate band this is dim H_k.  Inside it the closed form
    subtracts the invariant subspace, written as the literal four-sum.
    """
    if m < 1:
        raise ValueError("simple_dim requires m >= 1")
    if m == 1:
        return dim_Hk(1, n, k)
    M = m - 2 * n
    if not in_window(m, n, k):
        return dim_Hk(m, n, k)
    total = dim_Hk(m, n, k)
    for i in range(0, min(-M - k, 2 * n) + 1):
        total += comb0(2 * n, i) * comb0(2 * n - k - i - 1, m - 1)
    for i in range(0, min(2 - M - k, 2 * n) + 1):
        total -= comb0(2 * n, i) * comb0(2 * n - k - i + 1, m - 1)
    return total


@dataclass
class SimplePiece:
    j: int          # fermionic harmonic degree
    l: int          # radial index
    p: int          # bosonic harmonic degree, p = k - 2l - j
    dim: int


def decompose_simple(m: int, n: int, k: int) -> list[SimplePiece]:
    """Joint eigenspace pieces of the simple module labelled by k.

    In the degenerate band the radial index is additionally capped by
    k + M/2 - 2, which removes exactly the pieces of the invariant subspace.
    """
    if m < 2:
        raise ValueError("decompose_simple requires m >= 2")
    # l <= k holds for every piece, so k caps nothing outside the band
    cap = k + (m - 2 * n) // 2 - 2 if in_window(m, n, k) else k
    return [SimplePiece(q, l, p, d) for l, p, q, d in piece_labels(m, n, k) if l <= cap]


# -- degenerate band structure -------------------------------------------------------


@dataclass
class WindowReport:
    m: int
    n: int
    k: int
    passed: bool
    submodule_dim: int
    quotient_dim: int
    details: list[str]


def window_submodule_check(m: int, n: int, k: int) -> WindowReport:
    """Exact structure of H_k in the degenerate band.

    Verifies R^(2k+M-2) H_{2-M-k} = H_k intersect R^2 P_{k-2} as subspaces,
    that this submodule is generator-invariant and irreducible, that the
    quotient is irreducible (so the submodule is maximal), and that the
    closed-form simple dimension matches the quotient dimension.
    """
    M = m - 2 * n
    if not in_window(m, n, k):
        raise ValueError(f"(m,n,k)=({m},{n},{k}) is not in the degenerate band")
    details = []
    ok = True
    t = k + M // 2 - 1
    kpp = 2 - M - k
    mats = operator_matrices(m, n)
    sub = Subspace.from_vectors(mats.power(mats.mul_r2, harmonic_basis(m, n, kpp).rows, kpp, t),
                                dim_Pk(m, n, k))
    inter = hk_window_intersection(m, n, k)
    if sub == inter:
        details.append(f"R^{2*t} H_{kpp} equals H_{k} intersect R^2 P_{k-2} "
                       f"(dim {sub.dim})")
    else:
        ok = False
        details.append("subspace identity FAILED")
    # the submodule is invariant iff every generator column stays in it
    sub_rep = RepSpace(SpaceSpec("Hk", m, n, k), sub, None)
    try:
        for (i, j) in sub_rep.gen_pairs:
            sub_rep.generator_matrix(i, j)
    except RuntimeError:
        ok = False
        details.append("submodule invariance FAILED")
    else:
        details.append("submodule is generator-invariant")
        # irreducibility of the submodule: closures from its pieces
        if all(_closure_reaches_all(sub_rep, vecs)
               for _, vecs in _groups(sub_rep, _radial_blocks(m, n, kpp, t))[0]):
            details.append("submodule is irreducible")
        else:
            ok = False
            details.append("submodule irreducibility FAILED")
    quotient = rep_space(SpaceSpec("HkModSub", m, n, k))
    if is_irreducible(quotient):
        details.append("quotient is irreducible (submodule is maximal)")
    else:
        ok = False
        details.append("quotient irreducibility FAILED")
    sd = simple_dim(m, n, k)
    if sd == quotient.dim:
        details.append(f"closed-form simple dimension {sd} matches the quotient")
    else:
        ok = False
        details.append(f"simple_dim {sd} != quotient dim {quotient.dim}")
    return WindowReport(m, n, k, ok, sub.dim, quotient.dim, details)


# -- branching to the subalgebra fixing one bosonic direction --------------------------


@dataclass
class BranchingReport:
    m: int
    n: int
    k: int
    case: str                       # "full" | "truncated" | "not_completely_reducible"
    branch: list[tuple[int, int]]   # (l, dim) for each asserted component
    dim_identity: bool | None
    explicit: str | None = None     # "verified"/"inconclusive" when requested


def branching_case(m: int, n: int, k: int) -> tuple[str, list[int]]:
    if m < 2:
        raise ValueError("branching requires m >= 2")
    M = m - 2 * n
    if M > 1:
        return "full", list(range(0, k + 1))
    if M % 2 != 0:  # M odd, M <= 1
        if k < 2 + (1 - M) // 2:
            return "full", list(range(0, k + 1))
        return "not_completely_reducible", []
    # M even <= 0
    if in_window(m, n, k):
        return "truncated", list(range(3 - M - k, k + 1))
    return "full", list(range(0, k + 1))


def branching(m: int, n: int, k: int, explicit: bool = False) -> BranchingReport:
    """Predicted decomposition over the subalgebra fixing the x1 direction.

    The component label l runs over 0..k in the completely reducible cases and
    over 3-m+2n-k..k in the degenerate band; for odd M <= 1 with
    k >= 2+(1-M)/2 the restriction is flagged as not completely reducible and
    no list is asserted.  Verification (a) is the exact dimension identity;
    (b), on request, decomposes the restricted module explicitly.
    """
    case, ls = branching_case(m, n, k)
    if case == "not_completely_reducible":
        return BranchingReport(m, n, k, case, [], None)
    branch = [(l, simple_dim(m - 1, n, l)) for l in ls]
    total = sum(d for _, d in branch)
    identity = total == simple_dim(m, n, k)
    report = BranchingReport(m, n, k, case, branch, identity)
    if explicit:
        report.explicit = branching_explicit_check(m, n, k)
    return report


def _branching_blocks(m: int, n: int, k: int):
    """(l, H'_l, x1^{k-l} H'_l) for l = k, ..., 0: H'_l is H_l(m-1|2n) in P_l(m|2n),
    x_i renamed x_(i+1) on the monomial basis, and the block is in P_k."""
    mats = operator_matrices(m, n)
    for l in range(k, -1, -1):
        index = mats.index(l)
        shift = [index[SuperMonomial(tuple((i + 1, e) for i, e in mono.bosonic), mono.fermionic)]
                 for mono in monomial_basis(m - 1, n, l)]
        hs = [{shift[c]: x for c, x in row.items()} for row in harmonic_basis(m - 1, n, l).rows]
        yield l, hs, mats.power(mats.mul_x1, hs, l, k - l)


def branching_explicit_check(m: int, n: int, k: int) -> str:
    """Explicit decomposition certificate for the restricted simple module.

    The ambient quotient W = P_k / R^2 P_{k-2} splits under the subalgebra
    into explicit invariant blocks x1^{k-l} H'_l, one per l (`_branching_blocks`),
    each with the plain action: the subalgebra's generators commute with x1,
    certified once on the words the owner holds, not vector by vector: no word
    holds the leaf d/dx1 (``generator_differentiates``), and every other leaf
    commutes with multiplication by the even x1, so L_ab x1 v = x1 L_ab v for
    every v, by the very words that ``generator_image`` runs.
    In W, x1^2 = -R'^2, R'^2 being the norm square on x2..xm and the Grassmann
    pairs, so each is the block x1^eps R'^{2j} H'_l (k - l = eps + 2j, eps
    = 0 or 1) up to the sign (-1)^j.  The simple module embeds as the image of
    H_k.  Its intersections with the class spans of the blocks, grouped
    conservatively by (dimension, Casimir eigenvalue), must be invariant and
    carry exactly the predicted dimensions; together with the block
    bookkeeping this certifies the direct sum.  Returns 'verified' or an
    'inconclusive: ...' diagnosis; never overclaims.  A ValueError refuses a
    cell whose (subalgebra pairs + k + 1 blocks) x dim P_k exceed
    MAX_EXPLICIT_WORK, at once: cells near it, such as (200|0) at k = 0 and
    (5|0) at k = 10, take about 1.3 s and 60 MB (Python 3.11), and m <= 4,
    n <= 2, k <= 6 reach 19,456, at (4|4), k = 6.
    """
    case, ls = branching_case(m, n, k)
    if case == "not_completely_reducible":
        return "inconclusive: restriction is flagged not completely reducible"
    size = m - 1 + 2 * n  # the subalgebra's variables; its L_ii with i <= m are 0
    if (work := (size * (size + 1) // 2 - (m - 1) + k + 1) * dim_Pk(m, n, k)) > MAX_EXPLICIT_WORK:
        raise ValueError(f"the explicit branching check of ({m}|{2 * n}) at k = {k} needs "
                         f"{work} (subalgebra pairs + blocks) x dim P_k, above the limit "
                         f"MAX_EXPLICIT_WORK = {MAX_EXPLICIT_WORK}")
    W = rep_space(SpaceSpec("PkModR2", m, n, k))
    sub_pairs = [(i, j) for (i, j) in W.gen_pairs if i >= 2 and j >= 2]
    dimW = W.dim
    mats = operator_matrices(m, n)
    Mp = (m - 1) - 2 * n
    if any(mats.generator_differentiates(a, b, 1) for (a, b) in sub_pairs):
        return "inconclusive: block intertwiner identity failed"

    # explicit blocks of P_k/R^2 P_{k-2} under the subalgebra
    blocks: list[tuple[int, Subspace]] = []
    all_vecs: list[Vec] = []
    for l, hs, polys in _branching_blocks(m, n, k):
        if not (dl := dim_Hk(m - 1, n, l)):
            continue
        # the shifted harmonics have no x1, so nabla^2 acts on them as the
        # Laplacian in x2..xm and the Grassmann pairs
        if any(mats.apply(mats.nabla2, hs, l)):
            return "inconclusive: shifted harmonic basis is not harmonic"
        block_vecs = [v for v in map(W.coords, polys) if v]
        sub = Subspace.from_vectors(block_vecs, dimW)
        if sub.dim != dl:
            return f"inconclusive: block l={l} has rank {sub.dim}, expected {dl}"
        blocks.append((l, sub))
        all_vecs.extend(block_vecs)
    total = sum(sub.dim for _, sub in blocks)
    if total != dimW or not certified_full_rank(all_vecs, dimW):
        return "inconclusive: blocks do not decompose the ambient quotient"

    # conservative isomorphism classes: modules that could be isomorphic agree
    # in dimension and in the subalgebra Casimir eigenvalue -l(M'-2+l)
    def class_key(l: int) -> tuple:
        return (dim_Hk(m - 1, n, l), -l * (Mp - 2 + l))

    classes: dict[tuple, list[tuple[int, Subspace]]] = {}
    for l, sub in blocks:
        classes.setdefault(class_key(l), []).append((l, sub))

    # the simple module as the image of H_k
    V = Subspace.from_vectors(map(W.coords, harmonic_basis(m, n, k).rows), dimW)
    if V.dim != simple_dim(m, n, k):
        return f"inconclusive: embedded module has dimension {V.dim}"

    predicted = {l: d for l, d in ((l, simple_dim(m - 1, n, l)) for l in ls) if d}
    covered = 0
    for key, members in classes.items():
        span = members[0][1]
        for _, sub in members[1:]:
            span = span.sum_with(sub)
        inter = V.intersect(span)
        expect = sum(predicted.get(l, 0) for l, _ in members)
        if inter.dim != expect:
            lbl = [l for l, _ in members]
            return (f"inconclusive: class {lbl} meets the module in dimension "
                    f"{inter.dim}, expected {expect}")
        covered += inter.dim
        # each intersection must itself be invariant (a closed component)
        for rowvec in inter.basis_vectors():
            for (a, b) in sub_pairs:
                image = W.apply_generator(a, b, rowvec)
                if image and not inter.contains(image):
                    return "inconclusive: class component is not invariant"
    if covered != V.dim:
        return "inconclusive: class components do not exhaust the module"
    return "verified"
