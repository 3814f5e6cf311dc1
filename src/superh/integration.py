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

The Pizzetti sum is written once, in closed form: (nabla^k x^c)(0) vanishes
unless x^c = x^{2 alpha} theta^P of degree k = 2J, P a union of whole pairs,
and is then a product of factorials (``_row_entry``).  So only j = k/2 of
the sum sees the term x^c, and ``pizzetti`` sums weight(M, deg/2) times the
entry over the terms of f; it serves one-off integrals (``superh
integrate``) and the comparison of the two routes.  ``PizzettiRows`` holds T
on P_k as one int row of the same entries times one weight.  The walk of
nabla^2 that defines the sum, and the transposed chain of nabla^2 matrices
that gives the rows, are the tests' references (``tests/reference.py``).
The checks of ``invariance_suite`` evaluate T by its rows, never apply a
tree and build no operator above their top degree.  Check (a) reads row^T
L_ij transposed, walking each generator word back from the row's support
one monomial at a time (``OperatorMatrices.generator_transposes``), so it
binds no word to a degree and builds no leaf table; check (b) reads
row(k+2)^T R^2 transposed, from the support of row(k+2) and the terms of
R^2 (``radial_failures``); and check (c), that harmonics of two degrees are
orthogonal, pairs them, scaled to int vectors, by an int pairing read off
one row, and dots each image only with the harmonics that share a column
with it (``orthogonality_failures``).  The Gamma values are closed forms in
factorials, Gamma(j + 1/2) = (2j)!/(4^j j!) sqrt(pi).  Both routes read
them, so a factor common to both cancels when they are compared;
``checks.suite_integrals`` also compares T(1) at n = 0 with the sphere area,
from a recursion that neither route reads.

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
from functools import lru_cache
from fractions import Fraction
from typing import Iterable, Sequence

from .superalgebra import (SuperMonomial, SuperPolynomial, _cofactor, _merge_fermionic,
                           check_variable_count, monomial_basis)
from .diffops import check_variables, operator_matrices, vec_to_poly
from .harmonic import harmonic_basis
from .linalg import Vec, _int_if_whole, _primitive, kernel_of_equations


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


def _reciprocal_gamma_parts(t: int) -> tuple[int, int, int]:
    """1/Gamma(t/2) = num/den * pi^(h/2) as ints (num, den, h), from factorials:
    1/(t/2 - 1)! for even t > 0, 0 at the poles t <= 0 even, and for odd t
    Gamma(j + 1/2) = (2j)!/(4^j j!) sqrt(pi) (t = 2j + 1), or
    Gamma(1/2 - j) = (-4)^j j!/(2j)! sqrt(pi) (t = 1 - 2j)."""
    if t % 2 == 0:
        return (1, math.factorial(t // 2 - 1), 0) if t > 0 else (0, 1, 0)
    if t > 0:
        j = (t - 1) // 2
        return 4 ** j * math.factorial(j), math.factorial(2 * j), -1
    j = (1 - t) // 2
    return math.factorial(2 * j), (-4) ** j * math.factorial(j), -1


def reciprocal_gamma(a: Fraction) -> ScaledRational:
    """1/Gamma(a) for half-integer a, with the poles mapped to zero.

    Integer a <= 0 gives 0.  Every other value is an exact rational multiple
    of pi^0 or pi^(-1/2), in closed form (``_reciprocal_gamma_parts``).
    """
    a = Fraction(a)
    if a.denominator not in (1, 2):
        raise ValueError(f"reciprocal_gamma needs a half-integer, got {a}")
    num, den, h = _reciprocal_gamma_parts(int(2 * a))
    return ScaledRational(Fraction(num, den), h)


# -- Berezin and Pizzetti --------------------------------------------------------


@lru_cache(maxsize=None)
def _pizzetti_weight(M: int, j: int) -> ScaledRational:
    """2 pi^{M/2} / (4^j j! Gamma(j + M/2)), the weight of (nabla^{2j} f)(0).
    A pure scalar, kept per (M, j): every term of degree 2j reads it."""
    num, den, h = _reciprocal_gamma_parts(M + 2 * j)
    return ScaledRational(Fraction(2 * num, 4 ** j * math.factorial(j) * den), h + M)


def _row_entry(mono: SuperMonomial) -> int:
    """(nabla^k x^c)(0) for the monomial x^c of degree k, in closed form.

    It is nonzero only at x^c = x^{2 alpha} theta^P with k = 2J and P a union
    of s whole pairs {2p-1, 2p}, where it is J! 4^s prod_r (2 alpha_r)!/alpha_r!.
    (Of the terms C(J, i) nabla_b^{2i} nabla_f^{2s} of nabla^{2J} only
    i = |alpha| leaves a constant: nabla_b^{2i} x^{2alpha} gives
    i! prod (2 alpha_r)!/alpha_r!, and each pair of the ascending mask gives
    +4, in any of s! orders.)
    """
    bosonic, fermionic = mono
    if not _whole_pairs(fermionic) or any(e % 2 for _, e in bosonic):
        return 0
    x = math.factorial(mono.degree() // 2) * 4 ** (len(fermionic) // 2)
    for _, e in bosonic:
        x = x * math.factorial(e) // math.factorial(e // 2)
    return x


def pizzetti(f: SuperPolynomial, m: int, n: int) -> ScaledRational:
    """Supersphere integral of a polynomial as a Gamma-weighted Laplacian sum.

    sum_j weight(M, j) (nabla^{2j} f)(0), term by term: a term c x^c of
    degree d meets only j = d/2, with the value c * ``_row_entry``(x^c).
    It shares one helper with the phi# route, ``_reciprocal_gamma_parts``
    (in the weight), which the n = 0 normalization of ``check integrals``
    covers; ``_whole_pairs`` is this route's alone.
    """
    if m < 1:
        raise ValueError("pizzetti requires m >= 1")
    check_variable_count(m, n)
    check_variables(f, m, n)
    M = m - 2 * n
    total = ScaledRational.zero()
    for mono, c in f.terms.items():
        if x := _row_entry(mono):
            total = total + _pizzetti_weight(M, mono.degree() // 2) * (c * x)
    return total


def _dot(row: Vec, v: Vec):
    """sum_c row[c] * v[c] for sparse vectors."""
    return sum(row.get(c, 0) * x for c, x in v.items())


def _whole_pairs(fermionic: tuple[int, ...]) -> bool:
    """Whether an ascending Grassmann mask is a union of whole pairs {2p-1, 2p};
    the support of ``_row_entry`` (the phi# route tests it its own way)."""
    return len(fermionic) % 2 == 0 and all(
        fermionic[q] % 2 and fermionic[q + 1] == fermionic[q] + 1
        for q in range(0, len(fermionic), 2))


class PizzettiRows:
    """The Pizzetti functional T of one cell (m|2n), one degree at a time.

    On P_k, T(f) = weight(k) * (row(k) . f).  The row holds (nabla^k x^c)(0)
    for every basis monomial x^c, by ``_row_entry``; no operator is applied,
    and the transposed chain of nabla^2 matrices that gives the same rows is
    the tests' reference.  The rows are ints and are kept.  For odd k the row
    is empty and T vanishes.
    """

    def __init__(self, m: int, n: int):
        if m < 1:
            raise ValueError("pizzetti requires m >= 1")
        self.m, self.n = m, n
        self._rows: dict[int, Vec] = {}

    def row(self, k: int) -> Vec:
        """(nabla^k x^c)(0) on the monomial basis of P_k, without zero entries."""
        if k < 0:
            raise ValueError(f"no degree {k}")
        if k % 2:
            return {}
        row = self._rows.get(k)
        if row is None:
            row = self._rows[k] = {c: x for c, mono in enumerate(monomial_basis(self.m, self.n, k))
                                   if (x := _row_entry(mono))}
        return row

    def weight(self, k: int) -> ScaledRational:
        """The factor of row(k) in T on P_k; zero for odd k."""
        if k % 2:
            return ScaledRational.zero()
        return _pizzetti_weight(self.m - 2 * self.n, k // 2)


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
    # Gamma(b + 1/2) = (2b)!/(4^b b!) sqrt(pi) for each exponent a = 2b
    num = 2
    for a in alpha:
        if a:
            num *= math.factorial(a) // math.factorial(a // 2)
    rnum, rden, h = _reciprocal_gamma_parts(sum(alpha) + m)
    return ScaledRational(Fraction(num * rnum, 2 ** sum(alpha) * rden), h + m)


# -- the radial rescaling morphism phi# ------------------------------------------


@lru_cache(maxsize=None)
def berezin_density_coefficients(m: int, n: int) -> tuple[Fraction, ...]:
    """delta_i = (-1)^i C(m/2 - 1, i) = prod_{r<=i} (2r - m)/2r for i = 0..n: the theta^{2i}
    coefficients of the Berezin density (1 - theta^2)^(m/2 - 1), truncated by nilpotency.
    A pure scalar tuple, kept per (m, n): every phi# integral of the cell reads it."""
    out, num, den = [Fraction(1)], 1, 1
    for r in range(1, n + 1):
        num, den = num * (2 * r - m), den * 2 * r
        out.append(Fraction(num, den))
    return tuple(out)


def _sphere_berezin(f: SuperPolynomial, density: Sequence[Fraction],
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
        * sum_j (-1)^j C(d/2, j) density[n-s-j],
    and pi^(-n) is multiplied in once, into a nonzero total.
    phi#, the product with the density polynomial and the Berezin integral
    remain the definition; the tests compare the two on whole bases.
    The support test on b is this route's own, not ``pizzetti``'s
    ``_whole_pairs``.  The one helper the routes share is
    ``_reciprocal_gamma_parts`` (here through ``sphere_moment``); a factor
    it gives both cancels in their comparison, and the n = 0 normalization
    of ``check integrals`` (T(1) against the sphere area) covers it.
    """
    total = ScaledRational.zero()
    for (bosonic, fermionic), c in f.terms.items():
        # b is a union of whole pairs when its factors fall in len(b) / 2 pairs
        if (any(e % 2 for _, e in bosonic)
                or 2 * len({(g + 1) // 2 for g in fermionic}) != len(fermionic)):
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
        total = total + sphere_moment(exps, m) * (c * (-1) ** t * math.factorial(t) * series)
    return ScaledRational(total.q, total.h - 2 * n) if total.q else total


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


def invariance_suite(m: int, n: int, k_max: int) -> InvarianceReport:
    """Exact invariance checks of the supersphere functional T.

    T is evaluated by its Pizzetti rows over whole bases, and no operator
    acts on a degree above k_max:

    (a) T(L_ij f) = 0 for every generator and monomial f of degree <= k_max,
        i.e. row(k)^T L_ij = 0 on P_k, read transposed from the support of
        row(k) by ``generator_failures``, monomial by monomial through the
        generators' words;
    (b) T(R^2 f) = T(f) on the same monomials, i.e. weight(k+2) row(k+2)^T R^2
        = weight(k) row(k) on P_k, read transposed from the support of
        row(k+2) by ``radial_failures``;
    (c) T(h_k h_l) = 0 for every pair of harmonic basis vectors of degrees
        k < l <= k_max, by the int pairing of ``orthogonality_failures``:
        one pairing per (k, l) and one int vector per harmonic, no tree, and
        a dot only where h_k's image and h_l share a column.
    """
    T = PizzettiRows(m, n)
    failures = []
    for k in range(0, k_max + 1):
        failures += generator_failures(m, n, T.row(k), k)
        failures += radial_failures(T, k)
    for k in range(0, k_max + 1):
        hk = harmonic_basis(m, n, k).rows
        for l in range(k + 1, k_max + 1):
            failures += orthogonality_failures(T, k, hk, l, harmonic_basis(m, n, l).rows)
    return InvarianceReport(m, n, k_max, not failures, failures)


def generator_failures(m: int, n: int, row: Vec, k: int) -> list:
    """Failures of row . (L_ij x^c) = 0 over the generators and basis monomials
    x^c of P_k, read off u = row^T L_ij, in ascending c per generator."""
    basis = monomial_basis(m, n, k)
    return [("T(L f) != 0", k, ij, str(SuperPolynomial.monomial(basis[c])))
            for ij, (u,) in operator_matrices(m, n).generator_transposes([row], k)
            for c in sorted(u)]


def radial_failures(T: PizzettiRows, k: int) -> list:
    """Failures of T(R^2 x^c) = T(x^c) over the basis monomials x^c of P_k, in
    ascending c.

    u = row(k+2)^T R^2 on P_k is read from the support of row(k+2): for each
    monomial mu where that row is nonzero and each term a nu of R^2 (the
    owner's held ``mul_r2``) that divides mu, nu x^c = sign mu adds
    a * sign * row(k+2)[mu] to u[c], both from ``_cofactor``.  Then
    weight(k+2) u[c] = weight(k) row(k)[c] is decided over ints, cross-
    multiplied, the pi powers compared only where the sides are nonzero.
    """
    m, n = T.m, T.n
    mats = operator_matrices(m, n)
    index = mats.index(k)
    terms = [(nu, _int_if_whole(a)) for nu, a in mats.mul_r2.poly.terms.items()]
    above = monomial_basis(m, n, k + 2)
    u: Vec = {}
    for mu, x in T.row(k + 2).items():
        for nu, a in terms:
            sign, cofactor = _cofactor(above[mu], nu)
            if sign:
                c = index[cofactor]
                u[c] = u.get(c, 0) + a * sign * x
    row = T.row(k)
    hi, lo = T.weight(k + 2), T.weight(k)
    left, right = hi.q.numerator * lo.q.denominator, lo.q.numerator * hi.q.denominator
    basis = monomial_basis(m, n, k)
    return [("T(R^2 f) != T(f)", k, None, str(SuperPolynomial.monomial(basis[c])))
            for c in sorted(u.keys() | row.keys())
            if (y := left * u.get(c, 0)) != right * row.get(c, 0) or (y and hi.h != lo.h)]


def orthogonality_failures(T: PizzettiRows, k: int, a_rows: list[Vec],
                           l: int, b_rows: list[Vec]) -> list:
    """Failures of T(a b) = 0 over all a in a_rows (of P_k) and b in b_rows (of P_l).

    T(a b) = weight(k + l) * a^T G b for the int pairing G of ``_pairing``,
    and only whether a^T G b vanishes is asked.  Nonzero scales ca, cb give
    (ca a)^T G (cb b) = ca cb a^T G b, so the rows are scaled to primitive int
    vectors (by positive scales) and every verdict is decided exactly over
    ints.  u_a = a^T G is formed once per a, and u_a . b must vanish for every
    b; it is dotted only with the b that share a column with it, in ascending
    order, through an index of the columns of the b rows, since every other
    dot is exactly 0.  When k + l is odd the row is structurally zero and
    nothing is checked.  A failure names the product of the rows as given.
    """
    if (k + l) % 2:
        return []
    m, n = T.m, T.n
    pairing = _pairing(T.row(k + l), m, n, k, l)
    b_ints = [_primitive(b) for b in b_rows]
    holders: dict[int, list[int]] = {}  # column -> the b rows holding it, ascending
    for t, b in enumerate(b_ints):
        for s in b:
            holders.setdefault(s, []).append(t)
    failures = []
    for a in a_rows:
        u = _pair(pairing, _primitive(a))
        for t in sorted({t for s in u for t in holders.get(s, ())}):
            if _dot(u, b_ints[t]):
                failures.append(("T(H_k H_l) != 0", (k, l), None,
                                 str(vec_to_poly(a, m, n, k) * vec_to_poly(b_rows[t], m, n, l))))
    return failures


def _pairing(row: Vec, m: int, n: int, k: int, l: int) -> dict[int, dict[int, int]]:
    """G[c][s] = sign * row[mu] on P_k x P_l, where x^c x^s = sign * mu.

    Each monomial mu where the row (of degree k + l) is nonzero is split into
    its divisors x^c of degree k, a bosonic exponent vector <= mu's and a
    subset of its Grassmann factors, and their cofactors x^s.  The bosonic
    splits are listed once, by degree, and only in the degrees that a subset
    completes to k; the sign depends only on the Grassmann subset, so it is
    taken once per subset, by ``_merge_fermionic``, for every bosonic split of
    the matching degree.  Each nonzero G[c][s] is reached once.
    """
    mats = operator_matrices(m, n)
    index_k, index_l = mats.index(k), mats.index(l)
    basis = monomial_basis(m, n, k + l)
    pairing: dict[int, dict[int, int]] = {}
    for mu, x in row.items():
        bosonic, fermionic = basis[mu]
        splits: dict[int, list[tuple]] = {}  # degree of the divisor -> (divisor, cofactor)
        for exps in itertools.product(*(range(e + 1) for _, e in bosonic)):
            if k - len(fermionic) <= sum(exps) <= k:
                splits.setdefault(sum(exps), []).append((
                    tuple((i, b) for (i, _), b in zip(bosonic, exps) if b),
                    tuple((i, e - b) for (i, e), b in zip(bosonic, exps) if b < e)))
        for nf in range(min(k, len(fermionic)) + 1):
            for sub in itertools.combinations(fermionic, nf) if k - nf in splits else ():
                rest = tuple(g for g in fermionic if g not in sub)
                y = _merge_fermionic(sub, rest)[0] * x
                for lo, hi in splits[k - nf]:
                    pairing.setdefault(index_k[SuperMonomial(lo, sub)], {})[
                        index_l[SuperMonomial(hi, rest)]] = y
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
