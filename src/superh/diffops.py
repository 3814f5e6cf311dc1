"""Differential operators for the orthosymplectic geometry on (m|2n) variables.

The metric is g = diag(I_m, J) where J is the block-antisymmetric matrix with
2x2 blocks [[0, -1/2], [1/2, 0]].  Raised coordinates are X^j = sum_i X_i g[i][j]
and the lowered derivatives are d/dX^j, i.e. nabla_j = sum_i inv(g)[j][i] d/dX_i.
With these conventions the key objects come out as:

    R^2 = sum_j X^j X_j = x1^2 + ... + xm^2 - xg1*xg2 - xg3*xg4 - ...
    nabla^2 = sum_j nabla^j nabla_j = laplace_b - 4 sum_j d/dxg(2j-1) d/dxg(2j)
    L_ij = X_i nabla_j - (-1)^{[i][j]} X_j nabla_i

where [i] = 0 for a bosonic index and 1 for a Grassmann index.  All operators
are immutable expression trees; composition is right-to-left (the rightmost
factor acts first).  A tree has two evaluators:

* ``op.apply(f)`` recurses over the tree on one polynomial.  It serves one-off
  uses and is the reference that the matrices are tested against.
* ``operator_matrices(m, n)``, the one ``OperatorMatrices`` of a space,
  evaluates the tree per degree as a sparse matrix P_k -> P_k', or on many
  coordinate vectors of P_k at once, from cached integer matrices of d/dxi,
  d/dxgj and multiplication by a monomial.  The bulk checks (sl2,
  Laplace-Beltrami, projections, harmonic kernels) run on it.

Beside the two evaluators, ``OperatorMatrices.generator_image`` applies a
generator L_ij to a coordinate vector of P_k without its tree.  L_ij is first
order, X_i nabla_j - (-1)^{[i][j]} X_j nabla_i, so it has at most two words,
each d/dX_l on P_k followed by multiplication by one variable on P_{k-1}; both
are read from the leaf arrays, with coefficients from inv(g) and the sign.  The
module, branching and invariance checks act through it; the tree stays the
definition of L_ij and the reference it is tested against.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .superalgebra import (
    SuperMonomial,
    SuperPolynomial,
    _mul_monomials,
    check_variable_count,
    monomial_basis,
    partial,
)
from .linalg import Vec


# -- operator expression trees ---------------------------------------------


class LinearOperator:
    """Linear endomorphism of the polynomial ring."""

    __slots__ = ()

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class MultiplyBy(LinearOperator):
    poly: SuperPolynomial

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return self.poly * f


@dataclass(frozen=True, slots=True)
class Differentiate(LinearOperator):
    """Plain partial derivative d/dxi (bosonic) or left d/dxgj (fermionic)."""

    index: int
    fermionic: bool = False

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return f.dxg(self.index) if self.fermionic else f.dx(self.index)


@dataclass(frozen=True, slots=True)
class Scale(LinearOperator):
    factor: Fraction

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        return f.scaled(self.factor)


@dataclass(frozen=True, slots=True)
class Add(LinearOperator):
    parts: tuple[LinearOperator, ...]

    def apply(self, f: SuperPolynomial) -> SuperPolynomial:
        out = SuperPolynomial.zero()
        for op in self.parts:
            out = out + op.apply(f)
        return out


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def coordinates(self) -> tuple[SuperPolynomial, ...]:
        """X_1..X_{m+2n}, built once per metric and shared by the generators."""
        return tuple(variable_poly(i, self.m, self.n) for i in range(1, self.size + 1))

    @cached_property
    def _nabla_lower(self) -> tuple[LinearOperator, ...]:
        return tuple(
            operator_sum([Compose((Scale(c), plain_partial(i, self.m, self.n)))
                          for i in range(1, self.size + 1) if (c := self.inv_entry(j, i))])
            for j in range(1, self.size + 1))

    def nabla_lower(self, j: int) -> LinearOperator:
        """nabla_j = d/dX^j = sum_i inv(g)[j][i] d/dX_i (one shared tree per j)."""
        if not 1 <= j <= self.size:
            raise IndexError(f"variable index {j} out of range for ({self.m}|{2*self.n})")
        return self._nabla_lower[j - 1]

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
    check_variable_count(m, n)
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
    """The bosonic block symmetric, the fermionic block antisymmetric and
    g * inv(g) = I, read over the nonzero entries only."""
    g, g_inv = ([{j: x for j, x in enumerate(row) if x} for row in mat]
                for mat in (met.g, met.g_inv))
    for i, row in enumerate(g):
        for j, x in row.items():
            if i < met.m and j < met.m and g[j].get(i) != x:
                raise AssertionError("bosonic block must be symmetric")
            if i >= met.m and j >= met.m and g[j].get(i) != -x:
                raise AssertionError("fermionic block must be antisymmetric")
        if _lincomb(*((x, g_inv[k]) for k, x in row.items())) != {i: 1}:
            raise AssertionError("g * inv(g) != identity")


# -- named operators ----------------------------------------------------------


@lru_cache(maxsize=None)
def r2(m: int, n: int) -> SuperPolynomial:
    """R^2 = x1^2 + ... + xm^2 - xg1*xg2 - ... - xg(2n-1)*xg(2n)."""
    check_variable_count(m, n)
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
    check_variable_count(m, n)
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
        Compose((MultiplyBy(met.coordinates[i - 1]), met.nabla_lower(j))),
        Compose((Scale(-sign), MultiplyBy(met.coordinates[j - 1]), met.nabla_lower(i))),
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
    index = operator_matrices(m, n).index(k)
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


# Per-degree matrices.  The same trees are evaluated on coordinate vectors of
# one degree P_k, many vectors at a time.  A leaf is a primitive: d/dxi, d/dxgj
# or multiplication by one monomial.  Each sends a basis monomial to at most
# one basis monomial, injectively, so its matrix is two int arrays (target row
# or -1, and value); multiplication by a polynomial sums its terms.  While a
# subtree is evaluated its result carries a scalar factor beside its columns,
# so Scale costs nothing and Add sums columns with integer multipliers over a
# common denominator: entries stay Python ints until a Scale by a true fraction
# is applied to them.  Vectors in flight are dicts; a matrix that is kept for
# reuse is packed in compressed sparse column form.  `cols is None` stands for
# the identity on the basis of P_k.


def _pack(cols: list[Vec]) -> tuple:
    """A kept matrix in compressed sparse column form (starts, rows, values)."""
    starts, rows, vals = array("i", [0]), array("i"), []
    for col in cols:
        rows.extend(col)
        vals.extend(col.values())
        starts.append(len(rows))
    return starts, rows, vals


def _matvec(mat: tuple, v: Vec) -> Vec:
    """sum_c v[c] * mat[c] for a kept matrix, without zero entries."""
    starts, rows, vals = mat
    out: Vec = {}
    for c, x in v.items():
        for t in range(starts[c], starts[c + 1]):
            r = rows[t]
            s = out.get(r)
            out[r] = x * vals[t] if s is None else s + x * vals[t]
    return {r: s for r, s in out.items() if s}


def _scaled(v: Vec, c) -> Vec:
    """c * v; an entry that comes out integral is stored as an int."""
    out: Vec = {}
    for r, x in v.items():
        y = c * x
        out[r] = y.numerator if y.denominator == 1 else y
    return out


def _lincomb(*terms: tuple[int, Vec]) -> Vec:
    """sum c * v over the (c, v) terms, without zero entries."""
    out: Vec = {}
    for c, v in terms:
        for r, x in v.items():
            out[r] = out.get(r, 0) + c * x
    return {r: x for r, x in out.items() if x}


def _accumulate(acc: list[Vec], mult, cols: list[Vec] | None) -> None:
    """acc += mult * cols, column by column (None is the identity)."""
    if cols is None:
        cols = [{c: 1} for c in range(len(acc))]
    for a, col in zip(acc, cols):
        for r, y in col.items():
            s = a.get(r, 0) + mult * y
            if s:
                a[r] = s
            else:
                del a[r]


def _shared_nodes(op: LinearOperator) -> dict[int, int]:
    """Reference counts of the Add and Compose nodes that op's tree reaches twice."""
    refs: dict[int, int] = {}
    stack = [op]
    while stack:
        node = stack.pop()
        if isinstance(node, (Add, Compose)):
            refs[id(node)] = refs.get(id(node), 0) + 1
            if refs[id(node)] == 1:
                stack.extend(node.parts)
    return {i: count for i, count in refs.items() if count > 1}


def _dx_image(mono: SuperMonomial, i: int):
    """d/dxi of a monomial as (coefficient, monomial), or None."""
    for pos, (idx, e) in enumerate(mono.bosonic):
        if idx == i:
            rest = ((idx, e - 1),) if e > 1 else ()
            return e, SuperMonomial(mono.bosonic[:pos] + rest + mono.bosonic[pos + 1:],
                                    mono.fermionic)
    return None


def _dxg_image(mono: SuperMonomial, j: int):
    """Left d/dxgj of a monomial: one sign per Grassmann factor passed."""
    if j not in mono.fermionic:
        return None
    pos = mono.fermionic.index(j)
    return (-1 if pos % 2 else 1), SuperMonomial(
        mono.bosonic, mono.fermionic[:pos] + mono.fermionic[pos + 1:])


# basis columns that OperatorMatrices.columns applies an operator to at once
COLUMN_CHUNK = 64


class OperatorMatrices:
    """Operator trees evaluated as sparse matrices on the degrees of (m|2n).

    ``matrix(op, k)`` gives the columns of op on the monomial basis of P_k,
    each in the basis of the degree that op maps P_k to; ``apply(op, vecs, k)``
    runs op on coordinate vectors of P_k without forming op's matrix, and
    ``columns(op, k)`` streams op's columns without keeping them.  The
    object keeps the basis index maps, the leaf arrays, the generator words and
    the matrix of every ``matrix`` call, and later trees that contain such a
    root reuse it.  A node that one tree reaches twice (the generators of the
    quadratic Casimir) is evaluated once and dropped after its last use;
    products are not kept.  ``operator_matrices`` keeps one object per space
    for the life of the process, so a tree passed to ``matrix`` must live as
    long (a cached tree, or ``mul_r2``); a tree built per call goes through
    ``apply`` or ``columns``, which keep nothing.
    """

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self._index: dict[int, dict[SuperMonomial, int]] = {}
        self._leaves: dict[tuple, tuple[array, array]] = {}
        self._roots: dict[tuple[int, int], tuple] = {}  # (id, k) -> (op, packed, k_out)
        self._words: dict[tuple[int, int, int], list[tuple]] = {}
        self.mul_r2 = MultiplyBy(r2(m, n))  # lives as long as the matrices kept of it

    def index(self, k: int) -> dict[SuperMonomial, int]:
        """Position of each basis monomial of P_k (empty below degree 0)."""
        if k not in self._index:
            basis = monomial_basis(self.m, self.n, k) if k >= 0 else ()
            self._index[k] = {mono: i for i, mono in enumerate(basis)}
        return self._index[k]

    def _dim(self, k: int) -> int:
        return len(monomial_basis(self.m, self.n, k)) if k >= 0 else 0

    def matrix(self, op: LinearOperator, k: int) -> list[Vec]:
        root = self._roots.get((id(op), k))
        if root is not None:
            return self._product(root[1], None)
        factor, cols, k_out = self._run(op, None, k, _shared_nodes(op), {})
        cols = self._finish(factor, cols, self._dim(k))
        self._roots[(id(op), k)] = (op, _pack(cols), k_out)
        return cols

    def apply(self, op: LinearOperator, vecs: Sequence[Vec], k: int) -> list[Vec]:
        factor, cols, _ = self._run(op, list(vecs), k, _shared_nodes(op), {})
        return self._finish(factor, cols, len(vecs))

    def columns(self, op: LinearOperator, k: int):
        """(c, column c of op on P_k) for every basis monomial of P_k.

        The columns are applied a chunk at a time and not kept, so no whole
        matrix of op is alive at once.
        """
        dim = self._dim(k)
        for lo in range(0, dim, COLUMN_CHUNK):
            units = [{c: 1} for c in range(lo, min(lo + COLUMN_CHUNK, dim))]
            yield from enumerate(self.apply(op, units, k), lo)

    @staticmethod
    def _finish(factor, cols: list[Vec] | None, ncols: int) -> list[Vec]:
        """The columns with the carried factor multiplied in."""
        if cols is None:
            cols = [{c: 1} for c in range(ncols)]
        if factor == 1:
            return cols
        return [_scaled(v, factor) for v in cols] if factor else [{} for _ in cols]

    def _run(self, op, cols, k, shared, memo):
        """(factor, columns, target degree) of op on cols; see the comment above."""
        key = (id(op), k)
        root = self._roots.get(key)
        if root is not None:
            return 1, self._product(root[1], cols), root[2]
        uses = shared.get(id(op))
        if uses is None:
            return self._eval(op, cols, k, shared, memo)
        hit = memo.get(key)
        if hit is None:
            factor, mat, k_out = self._eval(op, None, k, shared, memo)
            if mat is not None:
                mat = _pack(mat)
            hit = memo[key] = (op, factor, mat, k_out)
        shared[id(op)] = uses - 1
        if uses == 1:
            del memo[key]
        _, factor, mat, k_out = hit
        return factor, cols if mat is None else self._product(mat, cols), k_out

    @staticmethod
    def _product(mat: tuple, cols: list[Vec] | None) -> list[Vec]:
        """A packed matrix applied to cols (to the basis for None)."""
        if cols is None:
            starts, rows, vals = mat
            return [dict(zip(rows[a:b], vals[a:b])) for a, b in zip(starts, starts[1:])]
        return [_matvec(mat, v) for v in cols]

    def _eval(self, op, cols, k, shared, memo):
        if isinstance(op, Scale):
            return op.factor, cols, k
        if isinstance(op, Compose):
            factor = 1
            for part in reversed(op.parts):
                f, cols, k = self._run(part, cols, k, shared, memo)
                factor *= f
            return factor, cols, k
        if isinstance(op, Add):
            acc: list[Vec] = [{} for _ in range(self._dim(k) if cols is None else len(cols))]
            denom, k_out = 1, None
            for part in op.parts:
                f, part_cols, k_part = self._run(part, cols, k, shared, memo)
                if not f:
                    continue
                if k_out is None:
                    k_out = k_part
                elif k_part != k_out:
                    raise ValueError("a sum of operators of different degrees has no matrix")
                if (f * denom).denominator != 1:
                    wider = math.lcm(denom, f.denominator)
                    for a in acc:
                        for r in a:
                            a[r] *= wider // denom
                    denom = wider
                _accumulate(acc, int(f * denom), part_cols)
            return Fraction(1, denom), acc, k if k_out is None else k_out
        if isinstance(op, Differentiate):
            return 1, self._leaf(op.index, op.fermionic, k, cols), k - 1
        if isinstance(op, MultiplyBy):
            degrees = {mono.degree() for mono in op.poly.terms}
            if len(degrees) > 1:
                raise ValueError(f"multiplication by {op.poly} does not preserve a degree")
            k_out = k + (degrees.pop() if degrees else 0)
            terms = [(mono, c.numerator if c.denominator == 1 else c)
                     for mono, c in op.poly.terms.items()]
            if len(terms) == 1:
                return terms[0][1], self._leaf(terms[0][0], None, k, cols), k_out
            acc = [{} for _ in range(self._dim(k) if cols is None else len(cols))]
            for mono, c in terms:
                _accumulate(acc, c, self._leaf(mono, None, k, cols))
            return 1, acc, k_out
        raise TypeError(f"no matrix for operator {type(op).__name__}")

    def _leaf_arrays(self, what, fermionic, k: int) -> tuple[array, array]:
        """(target row or -1, value) per basis monomial of P_k of a primitive:
        d/dxi or d/dxgj for an int `what` (fermionic False or True),
        multiplication by the monomial `what` for fermionic None."""
        key = (what, fermionic, k)
        if key not in self._leaves:
            rows, vals = array("i"), array("i")
            out_deg = k - 1 if fermionic is not None else k + what.degree()
            target = self.index(out_deg)
            for mono in monomial_basis(self.m, self.n, k) if k >= 0 else ():
                if fermionic is None:
                    sign, prod = _mul_monomials(what, mono)
                    image = (sign, prod) if sign else None
                else:
                    image = _dxg_image(mono, what) if fermionic else _dx_image(mono, what)
                row = -1 if image is None else target.get(image[1])
                if row is None:
                    raise ValueError(f"{what} times {mono} lies outside ({self.m}|{2 * self.n})")
                rows.append(row)
                vals.append(0 if image is None else image[0])
            self._leaves[key] = rows, vals
        return self._leaves[key]

    def _leaf(self, what, fermionic, k: int, cols: list[Vec] | None) -> list[Vec]:
        """A primitive on P_k (see ``_leaf_arrays``) applied to cols."""
        rows, vals = self._leaf_arrays(what, fermionic, k)
        if cols is None:
            return [{r: y} if r >= 0 else {} for r, y in zip(rows, vals)]
        # the map is injective on monomials, so no two entries meet
        out = []
        for v in cols:
            w: Vec = {}
            for c, x in v.items():
                if rows[c] >= 0:
                    w[rows[c]] = x * vals[c]
            out.append(w)
        return out

    def _generator_words(self, i: int, j: int, k: int) -> list[tuple]:
        """The words of L_ij on P_k as (coefficient, d/dX_p arrays on P_k,
        X_a arrays on P_{k-1}): L_ij = sum_l F^l nabla_l by
        ``generator_vector_field``, with nabla_l = sum_p inv(g)[l][p] d/dX_p."""
        key = (i, j, k)
        words = self._words.get(key)
        if words is None:
            m, met = self.m, metric(self.m, self.n)
            words = []
            for l, field in generator_vector_field(i, j, m, self.n).items():
                for x_a, c_a in field.terms.items():
                    for p, g in enumerate(met.g_inv[l - 1], 1):
                        if g:
                            c = c_a * g
                            c = c.numerator if c.denominator == 1 else c
                            d = self._leaf_arrays(*((p, False) if p <= m else (p - m, True)), k)
                            words.append((c, *d, *self._leaf_arrays(x_a, None, k - 1)))
            self._words[key] = words
        return words

    def generator_image(self, i: int, j: int, v: Vec, k: int) -> Vec:
        """L_ij v for a coordinate vector v of P_k, without the tree.

        Each word sends a basis monomial to at most one: d/dX_l on P_k, then
        multiplication by X_a on P_{k-1}, read from the leaf arrays."""
        out: Vec = {}
        for coef, d_rows, d_vals, x_rows, x_vals in self._generator_words(i, j, k):
            for c, x in v.items():
                r = d_rows[c]
                if r >= 0 and (t := x_rows[r]) >= 0:
                    y = coef * d_vals[c] * x_vals[r] * x
                    s = out.get(t)
                    out[t] = y if s is None else s + y
        return {t: y for t, y in out.items() if y}


@lru_cache(maxsize=None)
def operator_matrices(m: int, n: int) -> OperatorMatrices:
    """The one OperatorMatrices of (m|2n), shared by every degree and caller."""
    return OperatorMatrices(m, n)


# -- structural checks ---------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    failures: list


def check_sl2(m: int, n: int, k_max: int) -> CheckReport:
    """Exact sl2 commutation relations on every P_k, k <= k_max.

    With H = E + M/2, A = nabla^2/2 and B = R^2/2 the relations are
    [A, B] = H, [A, H] = 2A and [B, H] = -2B.  They are checked on every basis
    column of the per-degree matrices, in the integral form
    [nabla^2, R^2] = 2(2H), [nabla^2, 2H] = 4 nabla^2, [R^2, 2H] = -4 R^2.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    M = m - 2 * n
    mats = operator_matrices(m, n)
    lap, mulr2, E = nabla2(m, n), mats.mul_r2, euler(m, n)
    failures = []

    def two_h(vecs: list[Vec], d: int) -> list[Vec]:
        """2H = 2E + M on vectors of P_d."""
        return [_lincomb((2, e), (M, v)) for v, e in zip(vecs, mats.apply(E, vecs, d))]

    def holds(left: list[Vec], right: list[Vec], c: int, vecs: list[Vec]) -> list[bool]:
        """left - right == c * vecs, column by column."""
        return [_lincomb((1, a), (-1, b)) == _lincomb((c, v))
                for a, b, v in zip(left, right, vecs)]

    for k in range(0, k_max + 1):
        lapf = mats.matrix(lap, k)
        r2f = mats.matrix(mulr2, k)
        hf = two_h([{c: 1} for c in range(len(lapf))], k)
        # one relation at a time, so that only its images are alive
        relations = [("[A,B]=H", holds(mats.apply(lap, r2f, k + 2),
                                       mats.apply(mulr2, lapf, k - 2), 2, hf))]
        relations.append(("[A,H]=2A", holds(mats.apply(lap, hf, k), two_h(lapf, k - 2),
                                            4, lapf)))
        relations.append(("[B,H]=-2B", holds(mats.apply(mulr2, hf, k), two_h(r2f, k + 2),
                                             -4, r2f)))
        for c, mono in enumerate(monomial_basis(m, n, k)):
            for name, passed in relations:
                if not passed[c]:
                    failures.append((k, name, str(SuperPolynomial.monomial(mono))))
                    break
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
