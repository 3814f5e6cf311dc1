"""Exact integration over the supersphere.

Values are ScaledRational numbers q * pi^(h/2), which is closed under the
Gamma-function bookkeeping of the two integral representations:

  * the Pizzetti sum  2 pi^{M/2} / (2^{2k} k! Gamma(k + M/2)) (nabla^{2k} f)(0)
    summed over k, and
  * the phi-sharp route: push f through the radial rescaling morphism
    phi#, multiply by the Berezin density (1 - theta^2)^{m/2 - 1}, take the
    Berezin integral, restrict to the unit sphere and integrate the remaining
    bosonic monomials by the classical moment formula.

Both routes are exact and must agree on polynomials; this equality is part of
the acceptance suite, so neither side may be expressed through the other.

The Pizzetti sum has two evaluators.  ``pizzetti`` applies nabla^2 to one
polynomial again and again, over int terms (f scaled once by the lcm of its
denominators), each term differentiated only by the variables it holds
(``_nabla2_ints``; the nabla^2 tree is its reference in tests); it serves
one-off integrals (``superh integrate``) and the comparison of the two
routes, and it refuses a walk whose nabla^{2j} f holds more than
MAX_BASIS_DIM terms.  ``PizzettiRows`` holds T on P_k as one int row times
one weight, built from the owner's kept nabla^2 matrices; the checks of
``invariance_suite`` evaluate T that way and never apply a tree.  Check (a)
reads row^T L_ij transposed, from the row's support through the generators'
inverse leaf maps (``OperatorMatrices.generator_transposes``), and the check
that harmonics of two degrees are orthogonal pairs them, scaled to int
vectors, by an int pairing read off one row (``orthogonality_failures``).

The phi# route has a definition and an evaluator, and neither uses Pizzetti.
The definition (phi# on Laurent functions of r^2, the product with the
density and the Berezin integral) is the tests' reference, in
``tests/reference.py``; ``_sphere_berezin`` evaluates the whole route term by
term in closed form, from the density's coefficients in theta^{2i} (closed
form too, ``berezin_density_coefficients``), in time linear in n per term.
``supersphere_integral_phi`` uses the evaluator; the tests compare it with
the definition on whole bases.  The uniqueness solver
``invariant_density_solutions`` evaluates it on each basis monomial, one
phi# row per density theta^{2i} and degree, and reads the rows transposed
through the generators, as check (a) reads the Pizzetti row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .superalgebra import (MAX_BASIS_DIM, ONE_MONOMIAL, SuperMonomial, SuperPolynomial,
                           _mul_monomials, check_variable_count, monomial_basis)
from .diffops import check_variables, operator_matrices, vec_to_poly
from .harmonic import harmonic_basis
from .linalg import Vec, _primitive, kernel_of_equations


# -- scalars q * pi^(h/2) ------------------------------------------------------


@dataclass(frozen=True)
class ScaledRational:
    """Exact scalar q * pi^(h/2); the zero value is canonically (0, 0)."""

    q: Fraction
    h: int

    def __post_init__(self):
        if not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))
        if not self.q:
            object.__setattr__(self, "h", 0)

    @staticmethod
    def zero() -> "ScaledRational":
        return _ZERO

    def is_zero(self) -> bool:
        return not self.q

    def __add__(self, other: "ScaledRational") -> "ScaledRational":
        if not isinstance(other, ScaledRational):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.h != other.h:
            raise ArithmeticError(
                f"cannot add pi^({self.h}/2) and pi^({other.h}/2) terms")
        return ScaledRational(self.q + other.q, self.h)

    def __neg__(self) -> "ScaledRational":
        return ScaledRational(-self.q, self.h)

    def __sub__(self, other: "ScaledRational") -> "ScaledRational":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ScaledRational):
            return ScaledRational(self.q * other.q, self.h + other.h)
        if isinstance(other, (int, Fraction)):
            return ScaledRational(self.q * other, self.h)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "ScaledRational") -> "ScaledRational":
        if isinstance(other, ScaledRational):
            if other.is_zero():
                raise ZeroDivisionError("division by the zero scalar")
            return ScaledRational(self.q / other.q, self.h - other.h)
        if isinstance(other, (int, Fraction)):
            return ScaledRational(self.q / other, self.h)
        return NotImplemented

    def __str__(self) -> str:
        if self.h % 2 == 0:
            return f"{self.q} * pi^{self.h // 2}"
        return f"{self.q} * pi^({self.h}/2)"


_ZERO = ScaledRational(Fraction(0), 0)  # shared: the value is frozen


def gamma_half(a: Fraction) -> ScaledRational:
    """Gamma(a) for a positive half-integer argument, as q * pi^(h/2)."""
    a = Fraction(a)
    if a <= 0 or a.denominator not in (1, 2):
        raise ValueError(f"gamma_half needs a positive half-integer, got {a}")
    if a.denominator == 1:
        return ScaledRational(Fraction(math.factorial(int(a) - 1)), 0)
    val = Fraction(1)
    t = Fraction(1, 2)
    while t < a:
        val *= t
        t += 1
    return ScaledRational(val, 1)


def reciprocal_gamma(a: Fraction) -> ScaledRational:
    """1/Gamma(a) for half-integer a, with the poles mapped to zero.

    Integer a <= 0 gives 0.  Negative half-odd arguments are reached by the
    downward recursion Gamma(a) = Gamma(a+1)/a, which keeps the value an exact
    rational multiple of pi^(-1/2).
    """
    a = Fraction(a)
    if a.denominator not in (1, 2):
        raise ValueError(f"reciprocal_gamma needs a half-integer, got {a}")
    if a.denominator == 1:
        if a <= 0:
            return ScaledRational.zero()
        return ScaledRational(Fraction(1, math.factorial(int(a) - 1)), 0)
    if a > 0:
        g = gamma_half(a)
        return ScaledRational(1 / g.q, -g.h)
    # Gamma(a) = Gamma(1/2) / (a (a+1) ... (-1/2))
    prod = Fraction(1)
    t = a
    while t < Fraction(1, 2):
        prod *= t
        t += 1
    return ScaledRational(prod, -1)


# -- Berezin and Pizzetti --------------------------------------------------------


def _pizzetti_weight(M: int, j: int) -> ScaledRational:
    """2 pi^{M/2} / (4^j j! Gamma(j + M/2)), the weight of (nabla^{2j} f)(0)."""
    w = reciprocal_gamma(Fraction(M, 2) + j) * Fraction(2, 4 ** j * math.factorial(j))
    return ScaledRational(w.q, w.h + M)


def pizzetti(f: SuperPolynomial, m: int, n: int) -> ScaledRational:
    """Supersphere integral of a polynomial as a Gamma-weighted Laplacian sum.

    nabla^2 walks f's terms scaled to ints by one lcm, divided out at the
    constant terms.  Raises ValueError once some nabla^{2j} f holds more than
    MAX_BASIS_DIM terms: the walk can grow like 2^m, e.g. on x1^2 * ... * xm^2.
    """
    if m < 1:
        raise ValueError("pizzetti requires m >= 1")
    check_variable_count(m, n)
    check_variables(f, m, n)
    M = m - 2 * n
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    g = {mono: c.numerator * (den // c.denominator) for mono, c in f.terms.items()}
    total = ScaledRational.zero()
    j = 0
    while g:
        if len(g) > MAX_BASIS_DIM:
            raise ValueError(f"nabla^{2 * j} f has {len(g)} terms, above the "
                             f"Pizzetti term budget MAX_BASIS_DIM = {MAX_BASIS_DIM}")
        c = g.get(ONE_MONOMIAL)
        if c:
            total = total + _pizzetti_weight(M, j) * Fraction(c, den)
        g = _nabla2_ints(g)
        j += 1
    return total


def _nabla2_ints(terms: dict[SuperMonomial, int]) -> dict[SuperMonomial, int]:
    """nabla^2 on int terms, differentiating only the variables a term holds (the
    tree is its reference in tests): d^2/dxi^2 x_i^e = e(e-1) x_i^{e-2}, and the
    -4 d/dxg(2p-1) d/dxg(2p) of an adjacent pair is +4, its left derivatives -1."""
    out: dict[SuperMonomial, int] = {}
    for (bosonic, fermionic), c in terms.items():
        for pos, (i, e) in enumerate(bosonic):
            if e > 1:
                rest = ((i, e - 2),) if e > 2 else ()
                new = SuperMonomial(bosonic[:pos] + rest + bosonic[pos + 1:], fermionic)
                out[new] = out.get(new, 0) + e * (e - 1) * c
        for pos in range(len(fermionic) - 1):
            if fermionic[pos] % 2 and fermionic[pos + 1] == fermionic[pos] + 1:
                new = SuperMonomial(bosonic, fermionic[:pos] + fermionic[pos + 2:])
                out[new] = out.get(new, 0) + 4 * c
    return {mono: c for mono, c in out.items() if c}


def _dot(row: Vec, v: Vec):
    """sum_c row[c] * v[c] for sparse vectors."""
    return sum(row.get(c, 0) * x for c, x in v.items())


class PizzettiRows:
    """The Pizzetti functional T of one cell (m|2n), one degree at a time.

    On P_k, T(f) = weight(k) * (row(k) . f).  For even k the row holds
    (nabla^k x^c)(0) for every basis monomial x^c, and it comes from the
    transposed chain of the nabla^2 matrices P_k -> P_{k-2} -> ... -> P_0:
    row(k)[c] = row(k-2) . (column c of nabla^2 on P_k), read off the nabla^2
    matrices that the owner keeps for its held tree.  The rows are ints, and
    they and the weights are kept.  For odd k the row is empty and T vanishes.
    """

    def __init__(self, m: int, n: int):
        if m < 1:
            raise ValueError("pizzetti requires m >= 1")
        self.m, self.n = m, n
        self._rows: dict[int, Vec] = {0: {0: 1}}
        self._weights: dict[int, ScaledRational] = {}

    def row(self, k: int) -> Vec:
        """(nabla^k x^c)(0) on the monomial basis of P_k, without zero entries."""
        if k < 0:
            raise ValueError(f"no degree {k}")
        if k % 2:
            return {}
        top = max(self._rows)
        while top < k:
            below = self._rows[top]
            top += 2
            mats = operator_matrices(self.m, self.n)
            cols = enumerate(mats.matrix(mats.nabla2, top))
            self._rows[top] = {c: x for c, col in cols if (x := _dot(below, col))}
        return self._rows[k]

    def weight(self, k: int) -> ScaledRational:
        """The factor of row(k) in T on P_k; zero for odd k."""
        if k % 2:
            return ScaledRational.zero()
        w = self._weights.get(k)
        if w is None:
            w = self._weights[k] = _pizzetti_weight(self.m - 2 * self.n, k // 2)
        return w

    def value(self, v: Vec, k: int) -> ScaledRational:
        """T of the coordinate vector v of P_k."""
        return self.weight(k) * _dot(self.row(k), v)


def sphere_moment(alpha: Iterable[int], m: int) -> ScaledRational:
    """Integral of x^alpha over the unit sphere in m bosonic variables.

    Zero for any odd exponent; otherwise 2 prod Gamma((a_i+1)/2) / Gamma(|a|/2 + m/2).
    """
    alpha = tuple(alpha)
    if len(alpha) != m:
        raise ValueError(f"exponent vector must have length {m}")
    if m < 1:
        raise ValueError("sphere_moment requires m >= 1")
    if any(a % 2 for a in alpha):
        return ScaledRational.zero()
    # Gamma(1/2) = pi^(1/2) for each zero exponent, so a term costs only its
    # nonzero exponents
    num = ScaledRational(Fraction(2), alpha.count(0))
    for a in alpha:
        if a:
            num = num * gamma_half(Fraction(a + 1, 2))
    return num / gamma_half(Fraction(sum(alpha) + m, 2))


# -- the radial rescaling morphism phi# ------------------------------------------


def berezin_density_coefficients(m: int, n: int) -> list[Fraction]:
    """delta_i = (-1)^i C(m/2 - 1, i) = prod_{r<=i} (2r - m)/2r for i = 0..n: the theta^{2i}
    coefficients of the Berezin density (1 - theta^2)^(m/2 - 1), truncated by nilpotency."""
    out, num, den = [Fraction(1)], 1, 1
    for r in range(1, n + 1):
        num, den = num * (2 * r - m), den * 2 * r
        out.append(Fraction(num, den))
    return out


def _sphere_berezin(f: SuperPolynomial, density: list[Fraction],
                    m: int, n: int) -> ScaledRational:
    """int_S int_B alpha(theta^2) phi#(f), term by term in closed form.

    alpha = sum_i density[i] theta^{2i}, i = 0..n.  For one term c x^a theta^b
    of f, with d = |a| and omega_p = xg(2p-1) xg(2p):
      * phi#(x^a) = sum_j (-1)^j C(d/2, j) theta^{2j} r^{-2j} x^a, since
        (d/dr^2)^j x^a = j! C(d/2, j) r^{-2j} x^a, and r = 1 on the unit
        sphere;
      * theta^{2t} = (-1)^t t! e_t(omega), and the Berezin integral of
        theta^b e_t(omega) is 1 when b is the union of s whole pairs
        {2p-1, 2p} and t = n - s, and 0 otherwise;
      * x^a integrates to sphere_moment(a), which is 0 unless every a_i is even.
    So the term contributes
      c * sphere_moment(a) * pi^(-n) * (-1)^(n-s) (n-s)!
        * sum_j (-1)^j C(d/2, j) density[n-s-j].
    phi#, the product with the density polynomial and the Berezin integral
    remain the definition; the tests compare the two on whole bases.
    """
    prefactor = ScaledRational(Fraction(1), -2 * n)
    total = ScaledRational.zero()
    for (bosonic, fermionic), c in f.terms.items():
        if len(fermionic) % 2 or any(e % 2 for _, e in bosonic):
            continue
        if not all(fermionic[q] % 2 and fermionic[q + 1] == fermionic[q] + 1
                   for q in range(0, len(fermionic), 2)):
            continue
        t = n - len(fermionic) // 2
        half = sum(e for _, e in bosonic) // 2
        series = sum((-1) ** j * math.comb(half, j) * density[t - j]
                     for j in range(min(half, t) + 1))
        if not series:
            continue
        exps = [0] * m
        for idx, e in bosonic:
            exps[idx - 1] = e
        total = total + sphere_moment(exps, m) * prefactor * (
            c * (-1) ** t * math.factorial(t) * series)
    return total


def supersphere_integral_phi(f: SuperPolynomial, m: int, n: int) -> ScaledRational:
    """Supersphere integral through phi#, the Berezin integral and sphere moments."""
    if m < 1:
        raise ValueError("supersphere integration requires m >= 1")
    check_variables(f, m, n)
    return _sphere_berezin(f, berezin_density_coefficients(m, n), m, n)


# -- invariance and uniqueness harnesses -------------------------------------------


@dataclass
class InvarianceReport:
    m: int
    n: int
    k_max: int
    passed: bool
    failures: list
    functional: PizzettiRows  # the rows the checks evaluated T by


def invariance_suite(m: int, n: int, k_max: int) -> InvarianceReport:
    """Exact invariance checks of the supersphere functional T.

    T is evaluated by its Pizzetti rows on the columns of per-degree operator
    matrices, over whole bases:

    (a) T(L_ij f) = 0 for every generator and monomial f of degree <= k_max,
        i.e. row(k)^T L_ij = 0 on P_k, read transposed from the support of
        row(k) by ``generator_failures``;
    (b) T(R^2 f) = T(f) on the same monomials;
    (c) T(h_k h_l) = 0 for every pair of harmonic basis vectors of degrees
        k < l <= k_max, by the int pairing of ``orthogonality_failures``:
        one pairing per (k, l) and one int vector per harmonic, no tree.
    """
    T = PizzettiRows(m, n)
    mats = operator_matrices(m, n)
    failures = []
    for k in range(0, k_max + 1):
        basis = monomial_basis(m, n, k)
        failures += generator_failures(m, n, T.row(k), k)
        for c, col in enumerate(mats.matrix(mats.mul_r2, k)):
            if T.value(col, k + 2) != T.value({c: 1}, k):
                failures.append(("T(R^2 f) != T(f)", k, None,
                                 str(SuperPolynomial.monomial(basis[c]))))
    for k in range(0, k_max + 1):
        hk = harmonic_basis(m, n, k).rows
        for l in range(k + 1, k_max + 1):
            failures += orthogonality_failures(T, k, hk, l, harmonic_basis(m, n, l).rows)
    return InvarianceReport(m, n, k_max, not failures, failures, T)


def generator_failures(m: int, n: int, row: Vec, k: int) -> list:
    """Failures of row . (L_ij x^c) = 0 over the generators and basis monomials
    x^c of P_k, read off u = row^T L_ij, in ascending c per generator."""
    basis = monomial_basis(m, n, k)
    return [("T(L f) != 0", k, ij, str(SuperPolynomial.monomial(basis[c])))
            for ij, (u,) in operator_matrices(m, n).generator_transposes([row], k)
            for c in sorted(u)]


def orthogonality_failures(T: PizzettiRows, k: int, a_rows: list[Vec],
                           l: int, b_rows: list[Vec]) -> list:
    """Failures of T(a b) = 0 over all a in a_rows (of P_k) and b in b_rows (of P_l).

    T(a b) = weight(k + l) * a^T G b for the int pairing G of ``_pairing``,
    and only whether a^T G b vanishes is asked.  Nonzero scales ca, cb give
    (ca a)^T G (cb b) = ca cb a^T G b, so the rows are scaled to primitive int
    vectors (by positive scales) and every verdict is decided exactly over
    ints.  u_a = a^T G is formed once per a, and u_a . b must vanish for every
    b.  When k + l is odd the row is structurally zero and nothing is checked.
    A failure names the product of the rows as given.
    """
    if (k + l) % 2:
        return []
    m, n = T.m, T.n
    pairing = _pairing(T.row(k + l), m, n, k, l)
    b_ints = [_primitive(b) for b in b_rows]
    failures = []
    for a in a_rows:
        u = _pair(pairing, _primitive(a))
        for b, b_int in zip(b_rows, b_ints):
            if _dot(u, b_int):
                failures.append(("T(H_k H_l) != 0", (k, l), None,
                                 str(vec_to_poly(a, m, n, k) * vec_to_poly(b, m, n, l))))
    return failures


def _pairing(row: Vec, m: int, n: int, k: int, l: int) -> dict[int, dict[int, int]]:
    """G[c][s] = sign * row[mu] on P_k x P_l, where x^c x^s = sign * mu.

    Each monomial mu where the row (of degree k + l) is nonzero is split into
    its divisors x^c of degree k, a bosonic exponent vector <= mu's and a
    subset of its Grassmann factors, and their cofactors x^s; the sign is the
    one ``_mul_monomials`` gives.  Each nonzero G[c][s] is reached once.
    """
    mats = operator_matrices(m, n)
    index_k, index_l = mats.index(k), mats.index(l)
    basis = monomial_basis(m, n, k + l)
    pairing: dict[int, dict[int, int]] = {}
    for mu, x in row.items():
        bosonic, fermionic = basis[mu]
        for exps in itertools.product(*(range(e + 1) for _, e in bosonic)):
            nf = k - sum(exps)
            lo = tuple((i, b) for (i, _), b in zip(bosonic, exps) if b)
            hi = tuple((i, e - b) for (i, e), b in zip(bosonic, exps) if b < e)
            for sub in itertools.combinations(fermionic, nf) if nf >= 0 else ():
                left = SuperMonomial(lo, sub)
                right = SuperMonomial(hi, tuple(g for g in fermionic if g not in sub))
                pairing.setdefault(index_k[left], {})[index_l[right]] = (
                    _mul_monomials(left, right)[0] * x)
    return pairing


def _pair(pairing: dict[int, dict[int, int]], a: Vec) -> Vec:
    """u = a^T G, without zero entries."""
    u: Vec = {}
    for c, x in a.items():
        for s, g in pairing.get(c, {}).items():
            u[s] = u.get(s, 0) + x * g
    return {s: y for s, y in u.items() if y}


def invariant_density_solutions(m: int, n: int, k_max: int = 4) -> list[list[int | Fraction]]:
    """All densities alpha(theta^2) making the phi#-functional invariant.

    Solves, exactly, for coefficient vectors (a_0..a_n) of
    alpha = sum_i a_i theta^{2i} such that
    int_S int_B alpha(theta^2) phi#(L f) = 0 for all generators L and all
    monomials f of degree <= k_max.  Per degree, the functional of each
    density theta^{2i} is one row over the monomial basis, and
    u_i = row_i^T L_ij is read transposed (``generator_transposes``); each
    generator and column c gives the equation sum_i a_i u_i[c] = 0.  A
    one-dimensional solution space is the uniqueness statement; the known
    solution is (1-theta^2)^{m/2-1}.
    """
    if m < 1 or n < 1:
        raise ValueError("needs m >= 1 and n >= 1")
    if k_max < 0:
        raise ValueError(f"no degree range up to k_max = {k_max}")
    # the densities theta^{2i}, as coefficient vectors
    densities = [[int(t == i) for t in range(n + 1)] for i in range(n + 1)]

    equations = []
    mats = operator_matrices(m, n)
    for k in range(0, k_max + 1):
        monos = [SuperPolynomial.monomial(mono) for mono in monomial_basis(m, n, k)]
        values = [{c: v for c, f in enumerate(monos)
                   if not (v := _sphere_berezin(f, d, m, n)).is_zero()} for d in densities]
        if len({v.h for vals in values for v in vals.values()}) > 1:
            raise AssertionError("mixed pi powers in one degree")
        rows = [{c: v.q for c, v in vals.items()} for vals in values]
        for _, us in mats.generator_transposes(rows, k):
            for c in set().union(*us):
                equations.append({i: u[c] for i, u in enumerate(us) if c in u})
    kernel = kernel_of_equations(equations, n + 1)
    return [[row.get(i, 0) for i in range(n + 1)] for row in kernel.rows]
