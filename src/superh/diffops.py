"""Differential operators for the orthosymplectic geometry on (m|2n) variables.

The metric is g = diag(I_m, J) where J is the block-antisymmetric matrix with
2x2 blocks [[0, -1/2], [1/2, 0]].  Raised coordinates are X^j = sum_i X_i g[i][j]
and the lowered derivatives are d/dX^j, i.e. nabla_j = sum_i inv(g)[j][i] d/dX_i.
With these conventions the key objects come out as:

    R^2 = sum_j X^j X_j = x1^2 + ... + xm^2 - xg1*xg2 - xg3*xg4 - ...
    nabla^2 = sum_j nabla^j nabla_j = laplace_b - 4 sum_j d/dxg(2j-1) d/dxg(2j)
    L_ij = X_i nabla_j - (-1)^{[i][j]} X_j nabla_i

where [i] = 0 for a bosonic index and 1 for a Grassmann index.  All operators
are immutable expression trees evaluated by structural recursion; composition
is right-to-left (the rightmost factor acts first).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .superalgebra import (
    SuperPolynomial,
    monomial_basis,
    basis_index,
    partial,
)
from .linalg import Vec


# -- operator expression trees ---------------------------------------------


class LinearOperator:
    """Linear endomorphism of the polynomial ring."""

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        raise NotImplementedError


@dataclass(frozen=True)
class MultiplyBy(LinearOperator):
    poly: SuperPolynomial

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return self.poly * f


@dataclass(frozen=True)
class Differentiate(LinearOperator):
    """Plain partial derivative d/dxi (bosonic) or left d/dxgj (fermionic)."""

    index: int
    fermionic: bool = False

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return f.dxg(self.index) if self.fermionic else f.dx(self.index)


@dataclass(frozen=True)
class Scale(LinearOperator):
    factor: Fraction

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return f.scaled(self.factor)


@dataclass(frozen=True)
class Add(LinearOperator):
    parts: tuple[LinearOperator, ...]

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        out = SuperPolynomial.zero()
        for op in self.parts:
            out = out + op.apply(f)
        return out


@dataclass(frozen=True)
class Compose(LinearOperator):
    """Composition; the rightmost factor acts first."""

    parts: tuple[LinearOperator, ...]

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        for op in reversed(self.parts):
            f = op.apply(f)
        return f


IDENTITY = Scale(Fraction(1))
ZERO_OP = Scale(Fraction(0))


def operator_sum(ops: Sequence[LinearOperator]) -> LinearOperator:
    ops = tuple(ops)
    if not ops:
        return ZERO_OP
    if len(ops) == 1:
        return ops[0]
    return Add(ops)


# -- the orthosymplectic metric ---------------------------------------------


def index_parity(i: int, m: int) -> int:
    """Grading of the unified variable index: 0 bosonic, 1 fermionic."""
    return 0 if i <= m else 1


def variable_poly(i: int, m: int, n: int) -> SuperPolynomial:
    if not 1 <= i <= m + 2 * n:
        raise IndexError(f"variable index {i} out of range for ({m}|{2*n})")
    return SuperPolynomial.x(i) if i <= m else SuperPolynomial.xg(i - m)


def plain_partial(i: int, m: int, n: int) -> LinearOperator:
    if not 1 <= i <= m + 2 * n:
        raise IndexError(f"variable index {i} out of range for ({m}|{2*n})")
    if i <= m:
        return Differentiate(i, fermionic=False)
    return Differentiate(i - m, fermionic=True)


@dataclass(frozen=True)
class Metric:
    """g = diag(I_m, J) with its inverse; J has 2x2 blocks [[0,-1/2],[1/2,0]]."""

    m: int
    n: int
    g: tuple[tuple[Fraction, ...], ...]
    g_inv: tuple[tuple[Fraction, ...], ...]

    @property
    def size(self) -> int:
        return self.m + 2 * self.n

    def entry(self, i: int, j: int) -> Fraction:
        return self.g[i - 1][j - 1]

    def inv_entry(self, i: int, j: int) -> Fraction:
        return self.g_inv[i - 1][j - 1]

    def raised_coordinate(self, j: int) -> SuperPolynomial:
        """X^j = sum_i X_i g[i][j]."""
        out = SuperPolynomial.zero()
        for i in range(1, self.size + 1):
            c = self.entry(i, j)
            if c:
                out = out + variable_poly(i, self.m, self.n).scaled(c)
        return out

    def nabla_lower(self, j: int) -> LinearOperator:
        """nabla_j = d/dX^j = sum_i inv(g)[j][i] d/dX_i."""
        parts = []
        for i in range(1, self.size + 1):
            c = self.inv_entry(j, i)
            if c:
                parts.append(Compose((Scale(c), plain_partial(i, self.m, self.n))))
        return operator_sum(parts)

    def nabla_upper(self, j: int) -> LinearOperator:
        """nabla^j = (-1)^{[j]} d/dX_j."""
        sign = Fraction(-1 if j > self.m else 1)
        return Compose((Scale(sign), plain_partial(j, self.m, self.n)))

    def nabla_upper_by_raising(self, j: int) -> LinearOperator:
        """nabla^j = sum_i nabla_i g[i][j]; must agree with nabla_upper."""
        parts = []
        for i in range(1, self.size + 1):
            c = self.entry(i, j)
            if c:
                parts.append(Compose((Scale(c), self.nabla_lower(i))))
        return operator_sum(parts)


@lru_cache(maxsize=None)
def metric(m: int, n: int) -> Metric:
    size = m + 2 * n
    g = [[Fraction(0)] * size for _ in range(size)]
    for i in range(m):
        g[i][i] = Fraction(1)
    for j in range(n):
        a = m + 2 * j
        g[a][a + 1] = Fraction(-1, 2)
        g[a + 1][a] = Fraction(1, 2)
    ginv = [[Fraction(0)] * size for _ in range(size)]
    for i in range(m):
        ginv[i][i] = Fraction(1)
    for j in range(n):
        a = m + 2 * j
        ginv[a][a + 1] = Fraction(2)
        ginv[a + 1][a] = Fraction(-2)
    met = Metric(m, n, tuple(map(tuple, g)), tuple(map(tuple, ginv)))
    _check_metric(met)
    return met


def _check_metric(met: Metric) -> None:
    size = met.size
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i <= met.m and j <= met.m and met.entry(i, j) != met.entry(j, i):
                raise AssertionError("bosonic block must be symmetric")
            if i > met.m and j > met.m and met.entry(i, j) != -met.entry(j, i):
                raise AssertionError("fermionic block must be antisymmetric")
            prod = sum(met.entry(i, k) * met.inv_entry(k, j) for k in range(1, size + 1))
            if prod != (1 if i == j else 0):
                raise AssertionError("g * inv(g) != identity")


# -- named operators ----------------------------------------------------------


@lru_cache(maxsize=None)
def r2(m: int, n: int) -> SuperPolynomial:
    """R^2 = x1^2 + ... + xm^2 - xg1*xg2 - ... - xg(2n-1)*xg(2n)."""
    out = SuperPolynomial.zero()
    for i in range(1, m + 1):
        out = out + SuperPolynomial.x(i, 2)
    for j in range(1, n + 1):
        out = out - SuperPolynomial.xg(2 * j - 1) * SuperPolynomial.xg(2 * j)
    return out


def r2_from_metric(m: int, n: int) -> SuperPolynomial:
    """R^2 = sum_j X^j X_j; must agree with the explicit form."""
    met = metric(m, n)
    out = SuperPolynomial.zero()
    for j in range(1, met.size + 1):
        out = out + met.raised_coordinate(j) * variable_poly(j, m, n)
    return out


def theta2(n: int) -> SuperPolynomial:
    return r2(0, n)


@lru_cache(maxsize=None)
def nabla2(m: int, n: int) -> LinearOperator:
    """Super Laplace operator: bosonic Laplacian - 4 sum_j d/dxg(2j-1) d/dxg(2j)."""
    parts: list[LinearOperator] = []
    for i in range(1, m + 1):
        d = Differentiate(i)
        parts.append(Compose((d, d)))
    for j in range(1, n + 1):
        parts.append(Compose((
            Scale(Fraction(-4)),
            Differentiate(2 * j - 1, fermionic=True),
            Differentiate(2 * j, fermionic=True),
        )))
    return operator_sum(parts)


def nabla2_from_metric(m: int, n: int) -> LinearOperator:
    """sum_j nabla^j nabla_j built through the metric; must agree with nabla2."""
    met = metric(m, n)
    parts = [Compose((met.nabla_upper(j), met.nabla_lower(j)))
             for j in range(1, met.size + 1)]
    return operator_sum(parts)


@lru_cache(maxsize=None)
def euler_b(m: int) -> LinearOperator:
    return operator_sum(tuple(
        Compose((MultiplyBy(SuperPolynomial.x(i)), Differentiate(i)))
        for i in range(1, m + 1)))


@lru_cache(maxsize=None)
def euler_f(n: int) -> LinearOperator:
    return operator_sum(tuple(
        Compose((MultiplyBy(SuperPolynomial.xg(j)), Differentiate(j, fermionic=True)))
        for j in range(1, 2 * n + 1)))


@lru_cache(maxsize=None)
def euler(m: int, n: int) -> LinearOperator:
    return operator_sum((euler_b(m), euler_f(n)))


@lru_cache(maxsize=None)
def osp_generator(i: int, j: int, m: int, n: int) -> LinearOperator:
    """L_ij = X_i nabla_j - (-1)^{[i][j]} X_j nabla_i for 1 <= i <= j <= m+2n."""
    size = m + 2 * n
    if not (1 <= i <= size and 1 <= j <= size):
        raise IndexError(f"generator indices ({i},{j}) out of range for ({m}|{2*n})")
    met = metric(m, n)
    sign = Fraction(-1 if index_parity(i, m) and index_parity(j, m) else 1)
    return operator_sum((
        Compose((MultiplyBy(variable_poly(i, m, n)), met.nabla_lower(j))),
        Compose((Scale(-sign), MultiplyBy(variable_poly(j, m, n)), met.nabla_lower(i))),
    ))


def generator_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """Index pairs (i <= j) of a spanning set of generators.

    Bosonic diagonal pairs are omitted: L_ii vanishes identically for i <= m.
    """
    size = m + 2 * n
    return [(i, j) for i in range(1, size + 1) for j in range(i, size + 1)
            if not (i == j and i <= m)]


def generator_commutator(i, j, k, l, m, n) -> LinearOperator:
    """Graded commutator [L_ij, L_kl]."""
    A = osp_generator(i, j, m, n)
    B = osp_generator(k, l, m, n)
    sign = (index_parity(i, m) + index_parity(j, m)) * (index_parity(k, m) + index_parity(l, m))
    s = Fraction(-1 if sign % 2 else 1)
    return Add((Compose((A, B)), Compose((Scale(-s), B, A))))


def _radial_laplace_beltrami(radius2: SuperPolynomial, lap: LinearOperator,
                             E: LinearOperator, M: int) -> LinearOperator:
    """Form A of a Laplace-Beltrami operator: R^2 nabla^2 - E(M-2+E)."""
    return Add((
        Compose((MultiplyBy(radius2), lap)),
        Compose((Scale(Fraction(-1)), E, Add((Scale(Fraction(M - 2)), E)))),
    ))


@lru_cache(maxsize=None)
def laplace_beltrami(m: int, n: int) -> tuple[LinearOperator, LinearOperator]:
    """Both constructions of the Laplace-Beltrami operator.

    Form A is R^2 nabla^2 - E(M-2+E); form B is the quadratic expression
    -1/2 sum L_ij g[i][l] g[j][k] L_kl in the generators.  Their equality on
    every graded piece is a tested invariant.
    """
    form_a = _radial_laplace_beltrami(r2(m, n), nabla2(m, n), euler(m, n), m - 2 * n)
    met = metric(m, n)
    size = m + 2 * n
    parts = []
    for i in range(1, size + 1):
        for l in range(1, size + 1):
            gil = met.entry(i, l)
            if not gil:
                continue
            for j in range(1, size + 1):
                for k in range(1, size + 1):
                    gjk = met.entry(j, k)
                    if not gjk:
                        continue
                    coeff = Fraction(-1, 2) * gil * gjk
                    parts.append(Compose((
                        Scale(coeff),
                        osp_generator(i, j, m, n),
                        osp_generator(k, l, m, n),
                    )))
    return form_a, operator_sum(parts)


@lru_cache(maxsize=None)
def laplace_beltrami_bosonic(m: int) -> LinearOperator:
    """r^2 laplace_b - E_b (m-2+E_b); acts through the bosonic variables only."""
    return _radial_laplace_beltrami(r2(m, 0), nabla2(m, 0), euler_b(m), m)


@lru_cache(maxsize=None)
def laplace_beltrami_fermionic(n: int) -> LinearOperator:
    """theta^2 laplace_f - E_f (-2n-2+E_f); the purely fermionic analogue."""
    return _radial_laplace_beltrami(theta2(n), nabla2(0, n), euler_f(n), -2 * n)


# -- matrices of operators -----------------------------------------------------


def check_variables(f: SuperPolynomial, m: int, n: int) -> None:
    """Raise ValueError when f uses a variable outside (m|2n)."""
    for bosonic, fermionic in f.terms:
        # both index tuples are ascending, so the last entry is the largest
        if (bosonic and bosonic[-1][0] > m) or (fermionic and fermionic[-1] > 2 * n):
            raise ValueError(f"{f} uses a variable outside ({m}|{2 * n})")


def poly_to_vec(f: SuperPolynomial, m: int, n: int, k: int) -> Vec:
    index = basis_index(m, n, k)
    out: Vec = {}
    for mono, c in f.terms.items():
        idx = index.get(mono)
        if idx is None:
            raise ValueError(f"monomial {mono} is not of degree {k} in ({m}|{2*n})")
        out[idx] = c
    return out


def vec_to_poly(v: Vec, m: int, n: int, k: int) -> SuperPolynomial:
    basis = monomial_basis(m, n, k)
    return SuperPolynomial({basis[i]: c for i, c in v.items() if c})


def matrix_on_degree(op: LinearOperator, m: int, n: int, k: int) -> list[Vec]:
    """Columns of the matrix of a degree-preserving operator on P_k."""
    cols = []
    for mono in monomial_basis(m, n, k):
        image = op.apply(SuperPolynomial.monomial(mono))
        cols.append(poly_to_vec(image, m, n, k) if image else {})
    return cols


# -- structural checks ---------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    failures: list


def check_sl2(m: int, n: int, k_max: int) -> CheckReport:
    """Exact sl2 commutation relations on every P_k, k <= k_max.

    With H = E + M/2, A = nabla^2/2 and B = R^2/2 the relations are
    [A, B] = H, [A, H] = 2A and [B, H] = -2B, checked monomial by monomial.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    M = m - 2 * n
    lap = nabla2(m, n)
    mulr2 = MultiplyBy(r2(m, n))
    E = euler(m, n)
    half_M = Fraction(M, 2)
    failures = []
    for k in range(0, k_max + 1):
        for mono in monomial_basis(m, n, k):
            f = SuperPolynomial.monomial(mono)
            hf = E.apply(f) + f.scaled(half_M)
            # [nabla^2/2, R^2/2] = E + M/2
            lhs1 = (lap.apply(mulr2.apply(f)) - mulr2.apply(lap.apply(f))).scaled(Fraction(1, 4))
            if lhs1 != hf:
                failures.append((k, "[A,B]=H", str(f)))
                continue
            # [nabla^2/2, E + M/2] = nabla^2
            lapf = lap.apply(f)
            lhs2 = (lap.apply(hf) - (E.apply(lapf) + lapf.scaled(half_M))).scaled(Fraction(1, 2))
            if lhs2 != lapf:
                failures.append((k, "[A,H]=2A", str(f)))
                continue
            # [R^2/2, E + M/2] = -R^2
            r2f = mulr2.apply(f)
            lhs3 = (mulr2.apply(hf) - (E.apply(r2f) + r2f.scaled(half_M))).scaled(Fraction(1, 2))
            if lhs3 != -r2f:
                failures.append((k, "[B,H]=-2B", str(f)))
    return CheckReport("sl2", not failures, failures)


# -- Killing vector fields ------------------------------------------------------


def generator_vector_field(i: int, j: int, m: int, n: int) -> dict[int, SuperPolynomial]:
    """L_ij written as sum_l F^l nabla_l: F^j = X_i, F^i = -(-1)^{[i][j]} X_j."""
    sign = Fraction(-1 if index_parity(i, m) and index_parity(j, m) else 1)
    out: dict[int, SuperPolynomial] = {}
    out[j] = variable_poly(i, m, n)
    contrib = variable_poly(j, m, n).scaled(-sign)
    out[i] = out.get(i, SuperPolynomial.zero()) + contrib
    return {l: f for l, f in out.items() if f}


def partial_vector_field(j: int, m: int, n: int) -> dict[int, SuperPolynomial]:
    """The translation field nabla_j itself (constant coefficients)."""
    if not 1 <= j <= m + 2 * n:
        raise IndexError(f"variable index {j} out of range")
    return {j: SuperPolynomial.one()}


def killing_check(coeffs: dict[int, SuperPolynomial], m: int, n: int) -> bool:
    """Reduced Killing condition for F = sum_l F^l nabla_l on flat superspace.

    Checks nabla^j(F^k) + (-1)^{([j]+[k])|F|} (-1)^{[j][k]} nabla^k(F^j) = 0
    for every index pair.  Raises ValueError when the coefficients do not have
    a consistent total parity |F| = |F^l| + [l].
    """
    size = m + 2 * n
    total_parity = None
    for l, f in coeffs.items():
        if not 1 <= l <= size:
            raise IndexError(f"component index {l} out of range")
        if not f:
            continue
        if not f.is_parity_homogeneous():
            raise ValueError(f"component F^{l} is not parity-homogeneous")
        p = (int(f.parity()) + index_parity(l, m)) % 2
        if total_parity is None:
            total_parity = p
        elif total_parity != p:
            raise ValueError("components do not share a total parity")
    if total_parity is None:
        return True
    zero = SuperPolynomial.zero()

    def nabla_up(jj: int, f: SuperPolynomial) -> SuperPolynomial:
        d = partial(f, jj, m, n)
        return -d if jj > m else d

    for j in range(1, size + 1):
        fj = coeffs.get(j, zero)
        for k in range(j, size + 1):
            fk = coeffs.get(k, zero)
            sgn = 1
            if ((index_parity(j, m) + index_parity(k, m)) * total_parity) % 2:
                sgn = -sgn
            if (index_parity(j, m) * index_parity(k, m)) % 2:
                sgn = -sgn
            lhs = nabla_up(j, fk) + nabla_up(k, fj).scaled(sgn)
            if lhs:
                return False
    return True
