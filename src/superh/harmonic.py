"""Spherical harmonics on (m|2n) variables and their exact decompositions.

H_k is the degree-k polynomial kernel of the super Laplacian.  This module
computes exact kernel bases, the closed-form dimension count, the radial
decomposition of P_k into R^{2j} H_{k-2j} blocks, the refinement of H_k into
joint eigenspaces of the bosonic and fermionic Laplace-Beltrami operators
(the f_{l,p,q} * Hb_p * Hf_q pieces, built from int products), and the
projection operators selecting a single piece.
The (l, p, q, dim) piece labels (`piece_labels`) and the degenerate band
(`window_interval`, `in_window`) are stated here once; `modules` reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .superalgebra import SuperMonomial, SuperPolynomial, dim_Pk, monomial_basis
from .linalg import (
    Subspace,
    Vec,
    _primitive,
    certified_full_rank,
    kernel_of_equations,
    rank_modp,
    rank_of_vectors,
)
from .diffops import (
    LinearOperator,
    _lincomb,
    check_variables,
    operator_matrices,
    vec_to_poly,
)


def comb0(a: int, b: int) -> int:
    """Binomial coefficient with C(a,b) = 0 whenever a < b, a < 0 or b < 0."""
    if a < 0 or b < 0 or a < b:
        return 0
    return math.comb(a, b)


def dim_Hk(m: int, n: int, k: int) -> int:
    """Closed-form dimension of H_k for m >= 1 (double binomial sum)."""
    if m < 1:
        raise ValueError("the closed form requires m >= 1; use the fermionic kernel")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0:
        return 0
    total = 0
    for i in range(0, min(k, 2 * n) + 1):
        total += math.comb(2 * n, i) * comb0(k - i + m - 1, m - 1)
    for i in range(0, min(k - 2, 2 * n) + 1):
        total -= math.comb(2 * n, i) * comb0(k - i + m - 3, m - 1)
    return total


def dim_H_bosonic(m: int, p: int) -> int:
    return dim_Hk(m, 0, p) if m >= 1 else (1 if p == 0 else 0)


def dim_H_fermionic(n: int, q: int) -> int:
    # primitive Grassmann forms vanish above the middle degree n
    return max(0, comb0(2 * n, q) - comb0(2 * n, q - 2))


@lru_cache(maxsize=None)
def harmonic_basis(m: int, n: int, k: int) -> Subspace:
    """Canonical echelon basis of the kernel of nabla^2 on P_k."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    width = len(monomial_basis(m, n, k))  # refuses a basis above MAX_BASIS_DIM
    if k < 2:
        # nabla^2 lowers degree by 2, so every polynomial of degree < 2 is harmonic
        return Subspace(width, [(i, {i: 1}) for i in range(width)])
    # the equations are the rows of the nabla^2 matrix P_k -> P_{k-2}
    rows: list[Vec] = [{} for _ in range(dim_Pk(m, n, k - 2))]
    mats = operator_matrices(m, n)
    for c, col in enumerate(mats.matrix(mats.nabla2, k)):
        for t, coeff in col.items():
            rows[t][c] = coeff
    return kernel_of_equations(rows, width)


def is_harmonic(f: SuperPolynomial, m: int, n: int) -> bool:
    check_variables(f, m, n)
    return operator_matrices(m, n).nabla2.apply(f).is_zero()


# -- the degenerate band -------------------------------------------------------


def window_interval(m: int, n: int) -> tuple[int, int] | None:
    """Degree band [2-M/2, 2-M] where H_k is reducible, for even M <= 0."""
    M = m - 2 * n
    if M > 0 or M % 2 != 0:
        return None
    return (2 - M // 2, 2 - M)


def in_window(m: int, n: int, k: int) -> bool:
    w = window_interval(m, n)
    return w is not None and w[0] <= k <= w[1]


# -- radial (Fischer-type) decomposition of P_k --------------------------------


@dataclass
class FischerPiece:
    """The block R^{2j} H_{k-2j} of P_k: ``vectors`` span it (R^{2j} times the
    rows of harmonic_basis(m, n, k-2j), those that vanish left out), and
    ``dim`` is its certified dimension."""

    j: int
    dim: int
    vectors: list[Vec]


@dataclass
class FischerDecomposition:
    m: int
    n: int
    k: int
    pieces: list[FischerPiece]
    direct_sum: bool
    witness: str | None = None  # rendered dependency when the sum is not direct


def _fischer_dependency_witness(m: int, n: int, k: int) -> str | None:
    """An explicit vector lying in two radial blocks, certified exactly.

    When M = m-2n is even and <= 0 and some k' <= k with k' = k (mod 2) lies in
    the band 2 - M/2 <= k' <= 2 - M, the vector R^(2k'+M-2) h with h harmonic of
    degree 2-M-k' is itself harmonic, which places R^(k-k') * that vector in two
    distinct blocks at once.
    """
    if m < 1:
        return None
    M = m - 2 * n
    mats = operator_matrices(m, n)
    for kp in range(k, 1, -2):
        if not in_window(m, n, kp):
            continue
        t = kp + M // 2 - 1  # t >= 1 and kpp >= 0 throughout the band
        kpp = 2 - M - kp
        h_basis = harmonic_basis(m, n, kpp)
        if h_basis.dim == 0:
            continue
        (u,) = mats.power(mats.mul_r2, [h_basis.rows[0]], kpp, t)
        if not u or any(mats.apply(mats.nabla2, [u], kp)):
            continue
        j0 = (k - kp) // 2
        h = vec_to_poly(h_basis.rows[0], m, n, kpp)
        return (f"R^{2*t} * ({h}) is harmonic of degree {kp}, so block j={j0} "
                f"meets block j={j0 + t}")
    return None


def fischer(m: int, n: int, k: int) -> FischerDecomposition:
    """Blocks R^{2j} H_{k-2j} of P_k with an exact direct-sum-and-span flag.

    When rank_modp certifies the vectors of all blocks as a basis of P_k, the
    sum is direct and each block's dim is its vector count; otherwise each
    block's dim is its rank (mod p when full, else exact).  For m = 0 the
    blocks are theta^{2j} Hf_{k-2j}; vectors and blocks that multiply to zero
    (the nilpotency truncation) are dropped.
    """
    if k < 0 or m < 0 or n < 0:
        raise ValueError("m, n, k must be nonnegative")
    width = dim_Pk(m, n, k)
    mats = operator_matrices(m, n)
    blocks: list[tuple[int, list[Vec]]] = []
    for j in range(0, k // 2 + 1):
        deg = k - 2 * j
        if m == 0 and deg > 2 * n:
            continue
        rows = harmonic_basis(m, n, deg).rows
        if vecs := [v for v in mats.power(mats.mul_r2, rows, deg, j) if v]:
            blocks.append((j, vecs))
    all_vecs = [v for _, vecs in blocks for v in vecs]
    # full rank mod p certifies independence over Q; rank_modp is None when
    # it refuses the vectors, and then the routes below decide
    direct = len(all_vecs) == width and rank_modp(all_vecs, width) == width
    # a block's dim: its vector count where mod p certifies its full rank, else exact
    pieces = [FischerPiece(j, len(vecs) if direct or rank_modp(vecs, width) == len(vecs)
                           else rank_of_vectors(vecs, width), vecs) for j, vecs in blocks]
    witness = None
    if not direct:
        witness = _fischer_dependency_witness(m, n, k)
        if witness is None:
            # no structural dependency; settle it by exact elimination
            total = sum(p.dim for p in pieces)
            direct = total == width and rank_of_vectors(all_vecs, width) == total
    return FischerDecomposition(m, n, k, pieces, direct, witness)


# -- joint eigenspace pieces of H_k ---------------------------------------------


def _f_coefficients(k: int, p: int, q: int, m: int, n: int) -> list[Fraction]:
    """a_0..a_k of f_{k,p,q} = sum_s a_s r^(2k-2s) theta^(2s), r^2 and theta^2
    the bosonic and fermionic parts of R^2, where
    a_s = C(k,s) * [(n-q-s)! / (n-q-k)!] * [Gamma(m/2+p+k) / Gamma(m/2+p+k-s)],
    both quotients expanded as exact falling products (the Gamma quotient is a
    product of s half-integers, never a Gamma evaluation).
    """
    return [math.comb(k, s) * math.prod(range(n - q - k + 1, n - q - s + 1))
            * math.prod((Fraction(m, 2) + p + k - u for u in range(1, s + 1)), start=Fraction(1))
            for s in range(0, k + 1)]


@dataclass
class HarmonicPiece:
    """One joint eigenspace f_{l,p,q} Hb_p Hf_q inside H_k, k = 2l+p+q:
    ``vectors`` are the primitive int vectors f b g of P_k, one per pair of
    basis rows b of Hb_p and g of Hf_q (independent, as `decompose_Hk`
    certifies)."""

    l: int
    p: int
    q: int
    vectors: list[Vec]

    @property
    def dim(self) -> int:
        return len(self.vectors)


def piece_labels(m: int, n: int, k: int) -> list[tuple[int, int, int, int]]:
    """(l, p, q, dim) labels of the nonzero pieces of H_k, no bases computed."""
    if m < 1:
        raise ValueError("piece enumeration requires m >= 1")
    out = []
    for q in range(0, min(n, k) + 1):
        for l in range(0, min(n - q, (k - q) // 2) + 1):
            p = k - 2 * l - q
            d = dim_H_bosonic(m, p) * dim_H_fermionic(n, q)
            if d:
                out.append((l, p, q, d))
    return out


def _primitive_rows(m: int, n: int, k: int) -> list[Vec]:
    """The rows of harmonic_basis(m, n, k) as primitive int vectors, built once
    and kept by the owner of (m|2n); callers do not modify them."""
    mats = operator_matrices(m, n)
    rows = mats.primitive_rows.get(k)
    if rows is None:
        rows = mats.primitive_rows[k] = [_primitive(v) for v in harmonic_basis(m, n, k).rows]
    return rows


def _product_rows(m: int, n: int, p: int, q: int) -> list[Vec]:
    """b * g in P_{p+q} of (m|2n) for the primitive int rows b of Hb_p (outer)
    and g of Hf_q; a bosonic monomial times a Grassmann one carries no sign."""
    index = operator_matrices(m, n).index(p + q)
    at = [[index[SuperMonomial(b.bosonic, g.fermionic)] for g in monomial_basis(0, n, q)]
          for b in monomial_basis(m, 0, p)]
    hf = _primitive_rows(0, n, q)
    return [{at[c][d]: x * y for c, x in b.items() for d, y in g.items()}
            for b in _primitive_rows(m, 0, p) for g in hf]


@lru_cache(maxsize=None)
def decompose_Hk(m: int, n: int, k: int) -> tuple[HarmonicPiece, ...]:
    """Pieces f_{l,p,q} Hb_p Hf_q of H_k, picked by `piece_labels`; each is
    checked harmonic, and the vectors of all pieces must be as many as dim H_k
    and independent (``certified_full_rank``), so each piece has full rank.  f
    acts on the `_product_rows` by Horner in r_b^2 (held ``mul_rb2`` and
    ``mul_theta2``), its a_s ints over one positive common denominator."""
    if m < 1:
        raise ValueError("decompose_Hk requires m >= 1")
    width = dim_Pk(m, n, k)
    pieces: list[HarmonicPiece] = []
    all_vecs: list[Vec] = []
    mats = operator_matrices(m, n)
    for l, p, q, _ in piece_labels(m, n, k):
        name = f"piece ({l},{p},{q}) of H_{k}({m}|{2*n})"
        coeffs = _f_coefficients(l, p, q, m, n)
        den = math.lcm(*(c.denominator for c in coeffs))
        a = [int(c * den) for c in coeffs]
        theta = _product_rows(m, n, p, q)  # theta^{2s} b g at step s
        vecs = [_lincomb((a[0], v)) for v in theta] if l else theta  # a_0 = 1 at l = 0
        for s in range(1, l + 1):  # vecs <- r_b^2 vecs + a_s theta^{2s} b g
            d = p + q + 2 * s - 2
            theta = mats.apply(mats.mul_theta2, theta, d)
            vecs = [_lincomb((1, v), (a[s], t))
                    for v, t in zip(mats.apply(mats.mul_rb2, vecs, d), theta)]
        if any(mats.apply(mats.nabla2, vecs, k)):
            raise RuntimeError(f"{name} is not harmonic")
        if not all(vecs):  # a product that vanishes
            raise RuntimeError(f"{name} has deficient rank")
        # at l = 0 the products b g of primitive rows in disjoint variables are primitive
        pieces.append(HarmonicPiece(l, p, q, [_primitive(v) for v in vecs] if l else vecs))
        all_vecs.extend(pieces[-1].vectors)
    if (len(all_vecs) != harmonic_basis(m, n, k).dim
            or not certified_full_rank(all_vecs, width)):
        raise RuntimeError(
            f"piece decomposition of H_{k}({m}|{2*n}) does not reassemble the kernel")
    return tuple(pieces)


# -- projection operators --------------------------------------------------------


def bosonic_eigenvalue(m: int, p: int) -> int:
    """Eigenvalue of the bosonic Laplace-Beltrami operator on Hb_p factors."""
    return -p * (m - 2 + p)


def fermionic_eigenvalue(n: int, q: int) -> int:
    """Eigenvalue of the fermionic Laplace-Beltrami operator on Hf_q factors."""
    return -q * (-2 * n - 2 + q)


@dataclass
class ProjectionOperator:
    """Product of shifted Laplace-Beltrami factors selecting one piece of H_k.

    ``bosonic_factors`` and ``fermionic_factors`` hold (shift, denominator)
    pairs; the operator is the product of (Delta + shift)/denominator over both
    lists, Delta being the held bosonic or fermionic Laplace-Beltrami tree of
    the space's owner (``factors``).  ``spectral_fallback`` marks that a
    vanishing denominator forced the bosonic product to be rebuilt by
    interpolation over the eigenvalues that actually occur.
    """

    r: int
    s: int
    k: int
    m: int
    n: int
    bosonic_factors: list[tuple[Fraction, Fraction]]
    fermionic_factors: list[tuple[Fraction, Fraction]]
    spectral_fallback: bool

    @property
    def factors(self) -> list[tuple[LinearOperator, Fraction, Fraction]]:
        """(Delta, shift, denominator) of each factor, bosonic ones first."""
        mats = operator_matrices(self.m, self.n)
        return ([(mats.lb_bosonic, *f) for f in self.bosonic_factors]
                + [(mats.lb_fermionic, *f) for f in self.fermionic_factors])

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        """The product on one polynomial, the last factor acting first."""
        for lb, shift, denom in reversed(self.factors):
            f = (lb.apply(f) + f.scaled(shift)).scaled(1 / denom)
        return f

    def scalar_on_piece(self, p: int, q: int) -> Fraction:
        """Exact scalar by which the product acts on a (p, q) joint eigenvector:
        a factor (lam + a/b) / (c/d) is (lam b + a) d / (b c), in two int products."""
        num = den = 1
        for lam, factors in ((bosonic_eigenvalue(self.m, p), self.bosonic_factors),
                             (fermionic_eigenvalue(self.n, q), self.fermionic_factors)):
            for shift, denom in factors:
                num *= (lam * shift.denominator + shift.numerator) * denom.denominator
                den *= shift.denominator * denom.numerator
        return Fraction(num, den)


class ZeroDenominator(ArithmeticError):
    pass


def projection_Q(r: int, s: int, k: int, m: int, n: int) -> ProjectionOperator:
    """Projector onto the piece (r, k-2r-s, s) of H_k.

    The bosonic factors run over i = 0..k skipping the target degree, the
    fermionic ones over j = 0..min(n,k) skipping s.  When a bosonic denominator
    vanishes (possible for m <= 2) the bosonic product is replaced by the exact
    interpolation polynomial over the distinct eigenvalues occurring in H_k.
    """
    p = k - 2 * r - s
    valid = (0 <= s <= min(n, k) and 0 <= r <= min(n - s, (k - s) // 2)
             and dim_H_bosonic(m, p) > 0)
    if not valid:
        raise ValueError(f"piece (r={r}, s={s}) does not exist in H_{k}({m}|{2*n})")
    fallback = False
    bos_factors: list[tuple[Fraction, Fraction]] = []
    for i in range(0, k + 1):
        if i == p:
            continue
        denom = Fraction((i - k + 2 * r + s) * (k + i - 2 * r - s + m - 2))
        if denom == 0:
            fallback = True
            break
        bos_factors.append((Fraction(i * (m - 2 + i)), denom))
    if fallback:
        bos_factors = []
        lam_target = Fraction(bosonic_eigenvalue(m, p))
        occurring = sorted({Fraction(bosonic_eigenvalue(m, pp))
                            for (_, pp, _, _) in piece_labels(m, n, k)})
        for lam in occurring:
            if lam == lam_target:
                continue
            bos_factors.append((-lam, lam_target - lam))
    ferm_factors: list[tuple[Fraction, Fraction]] = []
    for j in range(0, min(n, k) + 1):
        if j == s:
            continue
        denom = Fraction((j - s) * (j + s - 2 * n - 2))
        if denom == 0:
            raise ZeroDenominator("fermionic factor cannot degenerate")
        ferm_factors.append((Fraction(j * (-2 * n - 2 + j)), denom))
    return ProjectionOperator(r, s, k, m, n, bos_factors, ferm_factors, fallback)
