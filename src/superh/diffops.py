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
factor acts first).  A tree is the definition of its operator, and it is
evaluated in one of two ways:

* ``op.apply(f)`` recurses over the tree on one polynomial.  It serves one-off
  uses and is the reference that the compiled form is tested against.
* ``operator_matrices(m, n)``, the one ``OperatorMatrices`` of a space,
  compiles the tree into words, each an integer coefficient and a chain of
  leaves (d/dxi, d/dxgj, multiplication by a monomial), and reads the words
  on P_k through cached tables of the leaves: as a sparse matrix
  P_k -> P_k', or on many coordinate vectors of P_k at once; a product whose
  words would outnumber its factors' runs one factor at a time.  The bulk
  checks (sl2, Laplace-Beltrami, projections, harmonic kernels) run on it,
  ``generator_image`` applies L_ij by the words of ``osp_generator(i, j)``,
  and ``power`` applies a held multiplier (R^2, theta^2, x1) j times.  It owns
  the space's trees and builds each once.  The owner keeps what it holds, and
  nothing else: a tree built per call keeps nothing.
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
    _cofactor,
    _dx_image,
    _dxg_image,
    _mul_monomials,
    check_variable_count,
    monomial_basis,
)
from .linalg import Vec, _int_if_whole


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


@dataclass(frozen=True, eq=False)
class Metric:
    """g = diag(I_m, J) with its inverse; J has 2x2 blocks [[0,-1/2],[1/2,0]].

    ``g`` and ``g_inv`` hold one sparse row per variable, {column: entry} with
    0-based columns in ascending order; each row of this metric has one entry.
    """

    m: int
    n: int
    g: tuple[dict[int, Fraction], ...]
    g_inv: tuple[dict[int, Fraction], ...]

    @property
    def size(self) -> int:
        return self.m + 2 * self.n

    @cached_property
    def coordinates(self) -> tuple[SuperPolynomial, ...]:
        """X_1..X_{m+2n}, built once per metric and shared by the generators."""
        return tuple(variable_poly(i, self.m, self.n) for i in range(1, self.size + 1))

    @cached_property
    def _nabla_lower(self) -> tuple[LinearOperator, ...]:
        return tuple(
            operator_sum([Compose((Scale(c), plain_partial(i + 1, self.m, self.n)))
                          for i, c in row.items()])
            for row in self.g_inv)

    def nabla_lower(self, j: int) -> LinearOperator:
        """nabla_j = d/dX^j = sum_i inv(g)[j][i] d/dX_i (one shared tree per j)."""
        if not 1 <= j <= self.size:
            raise IndexError(f"variable index {j} out of range for ({self.m}|{2*self.n})")
        return self._nabla_lower[j - 1]


def metric(m: int, n: int) -> Metric:
    check_variable_count(m, n)
    one = Fraction(1)
    g = [{i: one} for i in range(m)]
    g_inv = [{i: one} for i in range(m)]
    for a in range(m, m + 2 * n, 2):
        g += [{a + 1: Fraction(-1, 2)}, {a: Fraction(1, 2)}]
        g_inv += [{a + 1: Fraction(2)}, {a: Fraction(-2)}]
    met = Metric(m, n, tuple(g), tuple(g_inv))
    _check_metric(met)
    return met


def _check_metric(met: Metric) -> None:
    """The bosonic block symmetric, the fermionic block antisymmetric and
    g * inv(g) = I, over the sparse rows."""
    g, g_inv = met.g, met.g_inv
    for i, row in enumerate(g):
        for j, x in row.items():
            if i < met.m and j < met.m and g[j].get(i) != x:
                raise AssertionError("bosonic block must be symmetric")
            if i >= met.m and j >= met.m and g[j].get(i) != -x:
                raise AssertionError("fermionic block must be antisymmetric")
        if _lincomb(*((x, g_inv[k]) for k, x in row.items())) != {i: 1}:
            raise AssertionError("g * inv(g) != identity")


# -- named operators ----------------------------------------------------------


def r2(m: int, n: int) -> SuperPolynomial:
    """R^2 = x1^2 + ... + xm^2 - xg1*xg2 - ... - xg(2n-1)*xg(2n)."""
    check_variable_count(m, n)
    out = SuperPolynomial.zero()
    for i in range(1, m + 1):
        out = out + SuperPolynomial.x(i, 2)
    for j in range(1, n + 1):
        out = out - SuperPolynomial.xg(2 * j - 1) * SuperPolynomial.xg(2 * j)
    return out


def theta2(n: int) -> SuperPolynomial:
    return r2(0, n)


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


def euler_b(m: int) -> LinearOperator:
    return operator_sum(tuple(
        Compose((MultiplyBy(SuperPolynomial.x(i)), Differentiate(i)))
        for i in range(1, m + 1)))


def euler_f(n: int) -> LinearOperator:
    return operator_sum(tuple(
        Compose((MultiplyBy(SuperPolynomial.xg(j)), Differentiate(j, fermionic=True)))
        for j in range(1, 2 * n + 1)))


def euler(m: int, n: int) -> LinearOperator:
    return operator_sum((euler_b(m), euler_f(n)))


@lru_cache(maxsize=None)
def osp_generator(i: int, j: int, m: int, n: int) -> LinearOperator:
    """L_ij = X_i nabla_j - (-1)^{[i][j]} X_j nabla_i for 1 <= i <= j <= m+2n."""
    size = m + 2 * n
    if not (1 <= i <= size and 1 <= j <= size):
        raise IndexError(f"generator indices ({i},{j}) out of range for ({m}|{2*n})")
    met = operator_matrices(m, n).metric
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


def _radial_laplace_beltrami(mul_radius2: MultiplyBy, lap: LinearOperator,
                             E: LinearOperator, M: int) -> LinearOperator:
    """Form A of a Laplace-Beltrami operator: R^2 nabla^2 - E(M-2+E), R^2
    acting by the multiplier tree mul_radius2."""
    return Add((
        Compose((mul_radius2, lap)),
        Compose((Scale(Fraction(-1)), E, Add((Scale(Fraction(M - 2)), E)))),
    ))


@lru_cache(maxsize=None)
def laplace_beltrami(m: int, n: int) -> tuple[LinearOperator, LinearOperator]:
    """Both constructions of the Laplace-Beltrami operator.

    Form A is R^2 nabla^2 - E(M-2+E); form B is the quadratic expression
    -1/2 sum L_ij g[i][l] g[j][k] L_kl in the generators.  Their equality on
    every graded piece is a tested invariant.
    """
    mats = operator_matrices(m, n)
    form_a = _radial_laplace_beltrami(mats.mul_r2, mats.nabla2, mats.euler, m - 2 * n)
    g = mats.metric.g
    parts = []
    for i, row_i in enumerate(g):  # 0-based indices over the nonzero entries
        for l, gil in row_i.items():
            for j, row_j in enumerate(g):
                for k, gjk in row_j.items():
                    parts.append(Compose((
                        Scale(Fraction(-1, 2) * gil * gjk),
                        osp_generator(i + 1, j + 1, m, n),
                        osp_generator(k + 1, l + 1, m, n),
                    )))
    return mats._hold(form_a), mats._hold(operator_sum(parts))


def laplace_beltrami_bosonic(m: int) -> LinearOperator:
    """r^2 laplace_b - E_b (m-2+E_b); acts through the bosonic variables only."""
    return _radial_laplace_beltrami(MultiplyBy(r2(m, 0)), nabla2(m, 0), euler_b(m), m)


def laplace_beltrami_fermionic(n: int) -> LinearOperator:
    """theta^2 laplace_f - E_f (-2n-2+E_f); the purely fermionic analogue."""
    return _radial_laplace_beltrami(MultiplyBy(theta2(n)), nabla2(0, n), euler_f(n), -2 * n)


# -- matrices of operators -----------------------------------------------------


def check_variables(f: SuperPolynomial, m: int, n: int) -> None:
    """Raise ValueError when f uses a variable outside (m|2n)."""
    for bosonic, fermionic in f.terms:
        # both index tuples are ascending, so the last entry is the largest
        if (bosonic and bosonic[-1][0] > m) or (fermionic and fermionic[-1] > 2 * n):
            raise ValueError(f"{f} uses a variable outside ({m}|{2 * n})")


def vec_to_poly(v: Vec, m: int, n: int, k: int) -> SuperPolynomial:
    basis = monomial_basis(m, n, k)
    return SuperPolynomial({basis[i]: c for i, c in v.items() if c})


# Per-degree matrices.  A tree is compiled into a sum of words: a word is a
# coefficient and a chain of leaves in the order they act, a leaf being a
# primitive (d/dxi, d/dxgj or multiplication by one monomial).  Each leaf sends
# a basis monomial to at most one basis monomial, injectively, so on P_k it is
# a list of target rows (-1 for none) and an int array of values, and a word
# reads each column through its leaves.  The rows are a list because reading
# an array makes a new int object for every value above 256, as row indices
# of a large P_k are; the values are small ints, which an array keeps in half
# the memory of a list.  Only the derivative leaves are built from the
# monomials, by the images `_dx_image` and `_dxg_image` that SuperPolynomial.dx
# and dxg also use: multiplication by a variable inverts its derivative one
# degree up, and multiplication by a monomial chains its variables.  The
# coefficients of one sum are brought to integers over a common denominator,
# which is multiplied in once at the end.
# An entry is an int when it is whole and a Fraction otherwise: each function
# that returns a vector narrows its entries by `_int_if_whole`.  Only the
# leaves depend on k.  The owner keeps what it holds, and nothing else: a
# held tree is flattened once per space, any other tree per call.  Vectors in
# flight are dicts; a kept matrix is packed in compressed sparse column form.
# `vecs is None` stands for the basis of P_k, which is filled word by word
# (`_basis_images`); given vectors are read one at a time (`_image`), since
# `generator_image` reads one vector per call.


def _flatten(op: LinearOperator) -> tuple[dict[tuple, Fraction], int | None] | None:
    """op as a sum of words, ({leaf chain: coefficient}, degree shift), or None
    when op is to run by its structure instead.

    A leaf is (i, False) for d/dxi, (j, True) for d/dxgj and (monomial, None)
    for multiplication by it.  Add joins the sums and Compose multiplies them
    out; equal chains merge, leaves are never reordered.  A product that would
    have more words than its factors together (R^2 nabla^2 has m^2, its factors
    m each) is not multiplied out, and a tree that holds one gives None.  The
    shift is None for the empty sum.
    """
    if isinstance(op, Differentiate):
        return {((op.index, op.fermionic),): 1}, -1
    if isinstance(op, Scale):
        return ({(): _int_if_whole(op.factor)}, 0) if op.factor else ({}, None)
    if isinstance(op, MultiplyBy):
        degrees = {mono.degree() for mono in op.poly.terms}
        if len(degrees) > 1:
            raise ValueError(f"multiplication by {op.poly} does not preserve a degree")
        words = {((mono, None),): _int_if_whole(c) for mono, c in op.poly.terms.items()}
        return words, degrees.pop() if degrees else None
    if isinstance(op, Add):
        words, shift = {}, None
        for part in op.parts:
            flat = _flatten(part)
            if flat is None:
                return None
            part_words, part_shift = flat
            if part_words and shift not in (None, part_shift):
                raise ValueError("a sum of operators of different degrees has no matrix")
            shift = part_shift if part_words else shift
            for chain, c in part_words.items():
                words[chain] = words.get(chain, 0) + c
    elif isinstance(op, Compose):
        words, shift = {(): 1}, 0
        for part in reversed(op.parts):
            flat = _flatten(part)
            if flat is None:
                return None
            part_words, part_shift = flat
            if not part_words:
                words = {}
                break
            if len(words) * len(part_words) > len(words) + len(part_words):
                return None
            product: dict[tuple, Fraction] = {}
            for chain, c in words.items():
                for later, d in part_words.items():
                    product[chain + later] = product.get(chain + later, 0) + _int_if_whole(c * d)
            words, shift = product, shift + part_shift
    else:
        raise TypeError(f"no matrix for operator {type(op).__name__}")
    words = {chain: c for chain, c in words.items() if c}
    return words, shift if words else None


def _pack(cols: list[Vec]) -> tuple:
    """A kept matrix in compressed sparse column form (starts, rows, values)."""
    starts, rows, vals = [0], [], []
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
    return {r: _int_if_whole(s) for r, s in out.items() if s}


def _lincomb(*terms: tuple[int, Vec]) -> Vec:
    """sum c * v over the (c, v) terms, without zero entries."""
    out: Vec = {}
    for c, v in terms:
        for r, x in v.items():
            out[r] = out.get(r, 0) + c * x
    return {r: _int_if_whole(x) for r, x in out.items() if x}


def _image(words: list[tuple], v: Vec) -> Vec:
    """The sum of the words' images of v, without zero entries.  A word walks
    each column of v through its leaves, multiplies the int leaf values,
    and multiplies the entry in once at the end."""
    out: Vec = {}
    for coef, chain in words:
        for c, x in v.items():
            r, y = c, coef
            for rows, vals in chain:
                t = rows[r]
                if t < 0:
                    break
                y *= vals[r]
                r = t
            else:
                y *= x
                s = out.get(r)
                out[r] = y if s is None else s + y
    return {r: _int_if_whole(y) for r, y in out.items() if y}


def _basis_images(words: list[tuple], size: int) -> list[Vec]:
    """The words' images of the size basis columns, without zero entries.
    Each word walks every column; the entries stay ints, since the word
    coefficients, the leaf values and the unit entry are ints."""
    cols: list[Vec] = [{} for _ in range(size)]
    for coef, chain in words:
        for c, col in enumerate(cols):
            r, y = c, coef
            for rows, vals in chain:
                t = rows[r]
                if t < 0:
                    break
                y *= vals[r]
                r = t
            else:
                col[r] = col.get(r, 0) + y
    return [{r: y for r, y in col.items() if y} for col in cols]


class OperatorMatrices:
    """The owner of (m|2n): its operator trees, and their sparse matrices on
    its degrees.  It builds each tree once (``metric``, ``nabla2``, ``mul_r2``,
    ``mul_rb2``, ``mul_theta2``, ``mul_x1``, ``euler``, ``lb_bosonic``,
    ``lb_fermionic``), and ``osp_generator`` and ``laplace_beltrami`` build
    theirs from these.

    ``matrix(op, k)`` gives the columns of op on the monomial basis of P_k,
    each in the basis of the degree that op maps P_k to; ``apply(op, vecs, k)``
    runs op on coordinate vectors of P_k without forming op's matrix, and
    ``power(op, vecs, k, j)`` applies a held multiplier to them j times.  A
    tree runs as its words (see the comment above) where it flattens, and by
    its structure where it does not: a Compose one factor at a time (always
    at the top, so a product of k factors is never multiplied out) and an Add
    part by part.

    The owner keeps what it holds, and nothing else: besides the space's
    basis index maps and leaves, the words of each held tree and of the
    parts it runs by structure, flattened once and bound to the leaves
    once per degree (the generators' among them), the packed matrix of a held
    tree passed to ``matrix`` (a later ``apply`` of that tree reads it by
    mat-vec; the words bound to build it are dropped), and the harmonic basis
    of each degree as primitive int rows, which ``harmonic`` builds once
    (``primitive_rows``).  Any other tree is flattened and compiled per call,
    whichever entry point it enters by.
    """

    def __init__(self, m: int, n: int):
        check_variable_count(m, n)
        self.m, self.n = m, n
        self._index: dict[int, dict[SuperMonomial, int]] = {}
        self._leaves: dict[tuple, tuple[list[int], array]] = {}
        self._roots: dict[tuple[int, int], tuple] = {}  # (id, k) -> (packed, k_out)
        # (id of a held tree, k), or (i, j, k) for L_ij, -> _compile(op, k)
        self._compiled: dict[tuple, tuple] = {}
        self._flat: dict[int, tuple] = {}  # id(op) -> (op, _flatten(op)): the held trees
        self.primitive_rows: dict[int, list[Vec]] = {}  # k -> harmonic._primitive_rows
        self.nabla2 = self._hold(nabla2(m, n))
        self.mul_r2 = self._hold(MultiplyBy(r2(m, n)))

    # built on first use, as the generators, the H_k pieces (r_b^2 and theta^2,
    # the two parts of R^2), the branching blocks (x1) and the sl2, Laplace-
    # Beltrami and projection checks need them (the names inside are the builders)
    metric = cached_property(lambda self: metric(self.m, self.n))
    euler = cached_property(lambda self: self._hold(euler(self.m, self.n)))
    mul_rb2 = cached_property(lambda self: self._hold(MultiplyBy(r2(self.m, 0))))
    mul_theta2 = cached_property(lambda self: self._hold(MultiplyBy(theta2(self.n))))
    mul_x1 = cached_property(lambda self: self._hold(MultiplyBy(SuperPolynomial.x(1))))
    lb_bosonic = cached_property(lambda self: self._hold(laplace_beltrami_bosonic(self.m)))
    lb_fermionic = cached_property(lambda self: self._hold(laplace_beltrami_fermionic(self.n)))

    def _hold(self, op: LinearOperator) -> LinearOperator:
        """Hold op for the owner's life, with its words and the parts it runs
        by structure (factors of a product, parts of a sum that does not flatten)."""
        if id(op) not in self._flat:
            flat = _flatten(op)
            self._flat[id(op)] = op, flat
            if flat is None or isinstance(op, Compose):
                for part in op.parts:
                    self._hold(part)
        return op

    def index(self, k: int) -> dict[SuperMonomial, int]:
        """Position of each basis monomial of P_k (empty below degree 0)."""
        if k not in self._index:
            basis = monomial_basis(self.m, self.n, k) if k >= 0 else ()
            self._index[k] = {mono: i for i, mono in enumerate(basis)}
        return self._index[k]

    def matrix(self, op: LinearOperator, k: int) -> list[Vec]:
        root = self._roots.get((id(op), k))
        if root is not None:
            return self._product(root[0], None)
        bound = len(self._compiled)
        cols, k_out = self._apply(op, None, k)
        if id(op) in self._flat:
            self._roots[(id(op), k)] = _pack(cols), k_out
            # the kept matrix is read instead of the words bound to build it,
            # which the store holds last, in insertion order
            for key in list(self._compiled)[bound:]:
                del self._compiled[key]
        return cols

    def apply(self, op: LinearOperator, vecs: Sequence[Vec], k: int) -> list[Vec]:
        return self._apply(op, list(vecs), k)[0]

    def power(self, op: LinearOperator, vecs: Sequence[Vec], k: int, j: int) -> list[Vec]:
        """op^j on coordinate vectors of P_k, for a held multiplier op."""
        vecs = list(vecs)
        for _ in range(j):
            vecs, k = self._apply(op, vecs, k)
        return vecs

    def _apply(self, op, vecs, k):
        """(op applied to vecs, target degree, None for a zero operator): by a
        kept matrix, by the words of op, or by its structure when op does not
        flatten."""
        root = self._roots.get((id(op), k))
        if root is not None:
            return self._product(root[0], vecs), root[1]
        if isinstance(op, Compose):
            for part in reversed(op.parts):
                vecs, k = self._apply(part, vecs, k)
                if k is None:  # a zero factor
                    break
            return vecs, k
        compiled = self._words_on(op, k)
        if compiled is not None:
            return self._eval_words(compiled, vecs, k)
        images = [self._apply(p, vecs, k) for p in op.parts]  # only a sum gives None
        degrees = {d for _, d in images if d is not None}
        if len(degrees) > 1:
            raise ValueError("a sum of operators of different degrees has no matrix")
        return [_lincomb(*((1, cols[c]) for cols, _ in images))
                for c in range(len(images[0][0]))], degrees.pop() if degrees else None

    @staticmethod
    def _product(mat: tuple, cols: list[Vec] | None) -> list[Vec]:
        """A packed matrix applied to cols (to the basis for None)."""
        if cols is None:
            starts, rows, vals = mat
            return [dict(zip(rows[a:b], vals[a:b])) for a, b in zip(starts, starts[1:])]
        return [_matvec(mat, v) for v in cols]

    def _compile(self, op: LinearOperator, k: int) -> tuple | None:
        """op on P_k as (factor, target degree or None, words), op being factor
        times the sum of the words, a word (int coefficient, leaves in the
        order they act); None when op does not flatten.  The words of a held
        tree are read from the owner, any other tree is flattened here."""
        entry = self._flat.get(id(op))
        flat = _flatten(op) if entry is None else entry[1]
        if flat is None:
            return None
        words, shift = flat
        denom = math.lcm(*(c.denominator for c in words.values()))
        compiled = []
        for chain, c in words.items():
            leaves, d = [], k
            for what, fermionic in chain:
                leaves.append(self._leaf_arrays(what, fermionic, d))
                d += -1 if fermionic is not None else what.degree()
            compiled.append((int(c * denom), tuple(leaves)))
        factor = Fraction(1, denom) if denom > 1 else 1
        return factor, None if shift is None else k + shift, compiled

    def _words_on(self, op: LinearOperator, k: int) -> tuple | None:
        """``_compile(op, k)``, kept per degree for a held tree that flattens
        (a held tree never shares its id with another live tree)."""
        key = (id(op), k)
        compiled = self._compiled.get(key)
        if compiled is None:
            compiled = self._compile(op, k)
            if compiled is not None and id(op) in self._flat:
                self._compiled[key] = compiled
        return compiled

    def _eval_words(self, compiled: tuple, vecs: list[Vec] | None, k: int):
        """(the compiled operator applied to vecs, target degree)."""
        factor, k_out, words = compiled
        if vecs is None:
            outs = _basis_images(words, len(self.index(k)))
        else:
            outs = [_image(words, v) for v in vecs]
        if factor != 1:
            outs = [{r: _int_if_whole(factor * y) for r, y in w.items()} for w in outs]
        return outs, k_out

    def _leaf_arrays(self, what, fermionic, k: int) -> tuple[list[int], array]:
        """(target row or -1, value) per basis monomial of P_k of a primitive:
        d/dxi or d/dxgj for an int `what` (fermionic False or True), or
        multiplication by the monomial `what` for fermionic None, read from the
        derivative leaves: xi on P_d inverts d/dxi on P_{d+1}, with value 1, and
        xgj inverts d/dxgj, with its value, since d/dxgj (xgj nu) = nu.  The
        Grassmann factors of `what` act right to left, then the bosonic ones."""
        key = (what, fermionic, k)
        if key in self._leaves:
            return self._leaves[key]
        basis = monomial_basis(self.m, self.n, k) if k >= 0 else ()
        if fermionic is not None:
            target = self.index(k - 1)
            images = [_dxg_image(mono, what) if fermionic else _dx_image(mono, what)
                      for mono in basis]
            rows = [-1 if im is None else target[im[1]] for im in images]
            vals = array("i", [0 if im is None else im[0] for im in images])
        else:
            if ((what.bosonic and what.bosonic[-1][0] > self.m)
                    or (what.fermionic and what.fermionic[-1] > 2 * self.n)):
                # the inverted leaf of such a variable would read as a zero map
                for mono in basis:
                    if set(what.fermionic).isdisjoint(mono.fermionic):
                        raise ValueError(
                            f"{what} times {mono} lies outside ({self.m}|{2 * self.n})")
            rows, vals = list(range(len(basis))), array("i", [1]) * len(basis)
            for d, (var, odd) in enumerate(
                    [(j, True) for j in reversed(what.fermionic)]
                    + [(i, False) for i, e in what.bosonic for _ in range(e)], k + 1):
                d_rows, d_vals = self._leaf_arrays(var, odd, d)
                inverse = {t: mu for mu, t in enumerate(d_rows) if t >= 0}
                for c, r in enumerate(rows):
                    rows[c] = mu = inverse.get(r, -1)
                    if mu < 0:
                        vals[c] = 0
                    elif odd:
                        vals[c] *= d_vals[mu]
        self._leaves[key] = rows, vals
        return rows, vals

    def _generator_chains(self, i: int, j: int) -> dict:
        """{leaf chain: int coefficient} of ``osp_generator(i, j)``, as the owner
        holds it (flattened once)."""
        return self._flat[id(self._hold(osp_generator(i, j, self.m, self.n)))][1][0]

    def generator_differentiates(self, i: int, j: int, x: int) -> bool:
        """Whether a word of ``osp_generator(i, j)`` holds the leaf d/dx_x of
        the bosonic variable x."""
        return any((x, False) in chain for chain in self._generator_chains(i, j))

    def generator_image(self, i: int, j: int, v: Vec, k: int) -> Vec:
        """L_ij v for a coordinate vector v of P_k, by the words of
        ``osp_generator(i, j)``, flattened once and bound per degree."""
        compiled = self._compiled.get((i, j, k))  # read once per generator image
        if compiled is None:
            op = self._hold(osp_generator(i, j, self.m, self.n))
            compiled = self._compiled[(i, j, k)] = self._compile(op, k)
            assert compiled[0] == 1  # the coefficients are entries of inv(g), integers
        return _image(compiled[2], v)

    def generator_transposes(self, rows: Sequence[Vec], k: int):
        """((i, j), [u = row^T L_ij on P_k for each row]) for every generator,
        without zero entries.  Each word is walked backwards from each row's
        support, one monomial preimage per leaf (a leaf is injective): a
        multiplier by division (``_cofactor``), a derivative by multiplying
        its variable back (``_mul_monomials``).  Every Grassmann sign is the
        ring's own, by ``_merge_fermionic`` inside the two: the value of
        d/dxgj is the sign of xgj times the preimage, since d/dxgj (xgj nu)
        = nu, and that of d/dxi the exponent ``_dx_image`` reads.  The row's
        entry is multiplied in once, at the end.  No word is bound to a degree
        and no leaf table is read."""
        basis, index = monomial_basis(self.m, self.n, k), self.index(k)
        for (i, j) in generator_pairs(self.m, self.n):
            us: list[Vec] = [{} for _ in rows]
            for chain, coef in self._generator_chains(i, j).items():
                for row, u in zip(rows, us):
                    for mu, x in row.items():
                        mono, y = basis[mu], coef
                        for what, fermionic in reversed(chain):
                            if fermionic is None:
                                sign, pre = _cofactor(mono, what)
                            elif fermionic:
                                sign, pre = _mul_monomials(SuperMonomial((), (what,)), mono)
                            else:
                                pre = _mul_monomials(SuperMonomial(((what, 1),), ()), mono)[1]
                                sign = _dx_image(pre, what)[0]
                            if not sign:
                                break
                            mono, y = pre, y * sign
                        else:
                            c = index[mono]
                            u[c] = u.get(c, 0) + y * x
            yield (i, j), [{c: y for c, y in u.items() if y} for u in us]


@lru_cache(maxsize=None)
def operator_matrices(m: int, n: int) -> OperatorMatrices:
    """The owner of (m|2n), shared by every degree and caller.  Its
    ``cache_clear()`` also drops the trees that ``osp_generator`` and
    ``laplace_beltrami`` built from the owners, which no new owner holds."""
    return OperatorMatrices(m, n)


def _drop_owners() -> None:
    _clear_owners()
    osp_generator.cache_clear()
    laplace_beltrami.cache_clear()


_clear_owners, operator_matrices.cache_clear = operator_matrices.cache_clear, _drop_owners


# -- structural checks ---------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    passed: bool
    failures: list


def check_sl2(m: int, n: int, k_max: int) -> CheckReport:
    """Exact sl2 commutation relations on every P_k, k <= k_max.

    With H = E + M/2, A = nabla^2/2 and B = R^2/2 the relations are
    [A, B] = H, [A, H] = 2A and [B, H] = -2B.  Two checks decide them:

    * "E=deg": the matrix of E on every P_d, d <= k_max + 2, is d times the
      identity, so 2H acts on P_d as the scalar 2d + M;
    * "[A,B]=H": on every basis column e_c of P_k,
      nabla^2(R^2 e_c) - R^2(nabla^2 e_c) = 2(2k + M) e_c, in ints.

    [A, H] and [B, H] need no arithmetic of their own.  H acts on each P_d
    only through E, and nabla^2 and R^2 map P_k to P_{k-2} and P_{k+2}: that
    is the target degree of their kept matrices, and ``_flatten`` refuses a
    sum of mixed degree.  So, with E = k on P_k, [A, H] = 2A holds on P_k
    exactly when E = k - 2 on the image of nabla^2 in P_{k-2}, and
    [B, H] = -2B exactly when E = k + 2 on the image of R^2 in P_{k+2}; the
    E=deg check covers both.  Written on the matrix columns v with 2H a
    scalar, as (2k + M) v - (2(k -+ 2) + M) v = +-4 v, they hold for any v.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    M = m - 2 * n
    mats = operator_matrices(m, n)
    lap, mulr2 = mats.nabla2, mats.mul_r2
    failures = []
    for k in range(0, k_max + 3):
        basis = monomial_basis(m, n, k)
        for c, col in enumerate(mats.matrix(mats.euler, k)):
            if col != ({c: k} if k else {}):
                failures.append((k, "E=deg", str(SuperPolynomial.monomial(basis[c]))))
        if k > k_max:
            continue
        two_h = 2 * k + M  # 2H on P_k
        lap_r2 = mats.apply(lap, mats.matrix(mulr2, k), k + 2)
        r2_lap = mats.apply(mulr2, mats.matrix(lap, k), k - 2)
        for c, (a, b) in enumerate(zip(lap_r2, r2_lap)):
            if _lincomb((1, a), (-1, b)) != ({c: 2 * two_h} if two_h else {}):
                failures.append((k, "[A,B]=H", str(SuperPolynomial.monomial(basis[c]))))
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
    for every index pair.  nabla^j F^k vanishes unless F^k holds the variable
    j (xi is i, xgg is m+g), so only the pairs {l, j} with j held by F^l are
    tested; variables outside (m|2n) are not differentiated.  Raises
    ValueError when the coefficients do not have a consistent total parity
    |F| = |F^l| + [l].
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
    pairs = set()
    for l, f in coeffs.items():
        for bosonic, fermionic in f.terms:
            held = [i for i, _ in bosonic if i <= m] + [m + g for g in fermionic if g <= 2 * n]
            pairs.update((min(l, v), max(l, v)) for v in held)
    zero = SuperPolynomial.zero()

    def nabla_up(jj: int, f: SuperPolynomial) -> SuperPolynomial:
        return f.dx(jj) if jj <= m else -f.dxg(jj - m)

    for j, k in pairs:
        fj = coeffs.get(j, zero)
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
