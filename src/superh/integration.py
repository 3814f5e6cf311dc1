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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .superalgebra import SuperPolynomial, monomial_basis
from .diffops import check_variables, nabla2, osp_generator, generator_pairs, r2, theta2
from .harmonic import harmonic_polys


# -- scalars q * pi^(h/2) ------------------------------------------------------


@dataclass(frozen=True)
class ScaledRational:
    """Exact scalar q * pi^(h/2); the zero value is canonically (0, 0)."""

    q: Fraction
    h: int

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        if not self.q:
            object.__setattr__(self, "h", 0)

    @staticmethod
    def zero() -> "ScaledRational":
        return ScaledRational(Fraction(0), 0)

    @staticmethod
    def of(q, h: int = 0) -> "ScaledRational":
        return ScaledRational(Fraction(q), h)

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

    def to_json(self) -> dict:
        return {"q": str(self.q), "h": self.h}

    @staticmethod
    def from_json(obj: dict) -> "ScaledRational":
        return ScaledRational(Fraction(obj["q"]), int(obj["h"]))


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


def berezin(f: SuperPolynomial, n: int) -> tuple[SuperPolynomial, ScaledRational]:
    """Coefficient of the top Grassmann monomial, with the pi^{-n} prefactor.

    Computed as the iterated left derivative d/dxg(2n) ... d/dxg(1) applied
    right-to-left, i.e. d/dxg(1) acts first.
    """
    out = f
    for j in range(1, 2 * n + 1):
        out = out.dxg(j)
    return out, ScaledRational(Fraction(1), -2 * n)


def pizzetti(f: SuperPolynomial, m: int, n: int) -> ScaledRational:
    """Supersphere integral of a polynomial as a Gamma-weighted Laplacian sum."""
    if m < 1:
        raise ValueError("pizzetti requires m >= 1")
    check_variables(f, m, n)
    M = m - 2 * n
    lap = nabla2(m, n)
    total = ScaledRational.zero()
    g = f
    k = 0
    while g:
        c = g.constant_term()
        if c:
            weight = reciprocal_gamma(Fraction(M, 2) + k) * Fraction(2, 4 ** k * math.factorial(k))
            term = weight * c
            total = total + ScaledRational(term.q, term.h + M)
        g = lap.apply(g)
        k += 1
    return total


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
    num = ScaledRational(Fraction(2), 0)
    for a in alpha:
        num = num * gamma_half(Fraction(a + 1, 2))
    return num / gamma_half(Fraction(sum(alpha) + m, 2))


# -- the radial rescaling morphism phi# ------------------------------------------


@dataclass
class LaurentSuperFunction:
    """Finite sum of numerator * r^(-2j) pieces with polynomial numerators."""

    parts: dict[int, SuperPolynomial]

    def __post_init__(self):
        self.parts = {j: f for j, f in self.parts.items() if f}

    @staticmethod
    def from_poly(f: SuperPolynomial) -> "LaurentSuperFunction":
        return LaurentSuperFunction({0: f})

    def __add__(self, other: "LaurentSuperFunction") -> "LaurentSuperFunction":
        out = dict(self.parts)
        for j, f in other.parts.items():
            out[j] = out.get(j, SuperPolynomial.zero()) + f
        return LaurentSuperFunction(out)

    def __mul__(self, other) -> "LaurentSuperFunction":
        if isinstance(other, SuperPolynomial):
            other = LaurentSuperFunction.from_poly(other)
        out: dict[int, SuperPolynomial] = {}
        for j1, f1 in self.parts.items():
            for j2, f2 in other.parts.items():
                prod = f1 * f2
                if prod:
                    j = j1 + j2
                    out[j] = out.get(j, SuperPolynomial.zero()) + prod
        return LaurentSuperFunction(out)

    def scaled(self, c) -> "LaurentSuperFunction":
        return LaurentSuperFunction({j: f.scaled(c) for j, f in self.parts.items()})

    def is_zero(self) -> bool:
        return not self.parts

    def equals(self, other: "LaurentSuperFunction", m: int) -> bool:
        """Equality after clearing denominators by a common r^2 power."""
        diff_parts = dict(self.parts)
        for j, f in other.parts.items():
            diff_parts[j] = diff_parts.get(j, SuperPolynomial.zero()) - f
        diff = LaurentSuperFunction(diff_parts)
        if diff.is_zero():
            return True
        J = max(diff.parts)
        rb = r2(m, 0)
        total = SuperPolynomial.zero()
        for j, f in diff.parts.items():
            total = total + (rb ** (J - j)) * f
        return total.is_zero()

    def d_r2(self, m: int) -> "LaurentSuperFunction":
        """Radial derivative: acts on a bosonic-degree-d piece as (d/2) r^{-2}."""
        out: dict[int, SuperPolynomial] = {}
        for j, f in self.parts.items():
            buckets: dict[int, dict] = {}
            for mono, c in f.terms.items():
                d = mono.bosonic_degree() - 2 * j
                if d:
                    buckets.setdefault(d, {})[mono] = c
            for d, terms in buckets.items():
                piece = SuperPolynomial(terms).scaled(Fraction(d, 2))
                out[j + 1] = out.get(j + 1, SuperPolynomial.zero()) + piece
        return LaurentSuperFunction(out)


def phi_sharp(f: SuperPolynomial, m: int, n: int) -> LaurentSuperFunction:
    """phi#(f) = sum_j (-1)^j theta^{2j} / j! (d/dr^2)^j f."""
    if m < 1:
        raise ValueError("phi_sharp requires m >= 1")
    th = theta2(n)
    out = LaurentSuperFunction.from_poly(f)
    current = LaurentSuperFunction.from_poly(f)
    th_power = SuperPolynomial.one()
    for j in range(1, n + 1):
        current = current.d_r2(m)
        if current.is_zero():
            break
        th_power = th_power * th
        coeff = Fraction((-1) ** j, math.factorial(j))
        out = out + (current * th_power).scaled(coeff)
    return out


def phi_sharp_inverse(L: LaurentSuperFunction, m: int, n: int) -> LaurentSuperFunction:
    """sum_j theta^{2j} / j! (d/dr^2)^j, the inverse of phi#."""
    th = theta2(n)
    out = L
    current = L
    th_power = SuperPolynomial.one()
    for j in range(1, n + 1):
        current = current.d_r2(m)
        if current.is_zero():
            break
        th_power = th_power * th
        out = out + (current * th_power).scaled(Fraction(1, math.factorial(j)))
    return out


@lru_cache(maxsize=None)
def _binomial_series_theta(m_half_exponent: Fraction, n: int) -> SuperPolynomial:
    """(1 - theta^2)^e as an exact polynomial (theta^2 is nilpotent)."""
    th = theta2(n)
    out = SuperPolynomial.one()
    power = SuperPolynomial.one()
    coeff = Fraction(1)
    e = Fraction(m_half_exponent)
    for i in range(1, n + 1):
        power = power * th
        if power.is_zero():
            break
        coeff *= (e - (i - 1)) / i
        out = out + power.scaled(coeff * (-1) ** i)
    return out


def berezin_density(m: int, n: int) -> SuperPolynomial:
    """(1 - theta^2)^(m/2 - 1), truncated by nilpotency."""
    return _binomial_series_theta(Fraction(m, 2) - 1, n)


def sqrt_one_minus_theta2_over_r2(m: int, n: int) -> LaurentSuperFunction:
    """sqrt(1 - theta^2 r^{-2}) as a truncated series of Laurent pieces."""
    th = theta2(n)
    parts = {0: SuperPolynomial.one()}
    power = SuperPolynomial.one()
    coeff = Fraction(1)
    for i in range(1, n + 1):
        power = power * th
        if power.is_zero():
            break
        coeff *= (Fraction(1, 2) - (i - 1)) / i
        parts[i] = power.scaled(coeff * (-1) ** i)
    return LaurentSuperFunction(parts)


def _sphere_berezin(f: SuperPolynomial, density: SuperPolynomial,
                    m: int, n: int) -> ScaledRational:
    """int_S int_B density * phi#(f): Berezin integral, then sphere moments."""
    image = phi_sharp(f, m, n) * density
    total = ScaledRational.zero()
    for _, numerator in sorted(image.parts.items()):
        top, prefactor = berezin(numerator, n)
        # on the unit sphere the r^{-2j} factor is 1
        for mono, c in top.terms.items():
            if mono.fermionic:
                raise AssertionError("Berezin output must be bosonic")
            exps = [0] * m
            for idx, e in mono.bosonic:
                exps[idx - 1] = e
            moment = sphere_moment(exps, m)
            if not moment.is_zero():
                total = total + moment * prefactor * c
    return total


def supersphere_integral_phi(f: SuperPolynomial, m: int, n: int) -> ScaledRational:
    """Supersphere integral through phi#, the Berezin integral and sphere moments."""
    if m < 1:
        raise ValueError("supersphere integration requires m >= 1")
    check_variables(f, m, n)
    return _sphere_berezin(f, berezin_density(m, n), m, n)


# -- invariance and uniqueness harnesses -------------------------------------------


@dataclass
class InvarianceReport:
    m: int
    n: int
    k_max: int
    passed: bool
    failures: list


# harmonic pairs checked in (c) per degree pair when the bases are large
ORTHOGONALITY_PAIRS = 25


def invariance_suite(m: int, n: int, k_max: int, seed: int = 20240) -> InvarianceReport:
    """Exact invariance checks of the supersphere functional T.

    (a) T(L_ij f) = 0 for every generator and monomial of degree <= k_max;
    (b) T(R^2 f) = T(f) on the same monomials;
    (c) T(h_k h_l) = 0 for harmonics of distinct degrees k != l <= k_max,
        exhaustively when the bases are small, sampled otherwise.
    """
    import random
    rng = random.Random(seed)
    failures = []
    gens = [osp_generator(i, j, m, n) for (i, j) in generator_pairs(m, n)]
    R2 = r2(m, n)
    for k in range(0, k_max + 1):
        for mono in monomial_basis(m, n, k):
            f = SuperPolynomial.monomial(mono)
            for (i, j), L in zip(generator_pairs(m, n), gens):
                if not pizzetti(L.apply(f), m, n).is_zero():
                    failures.append(("T(L f) != 0", k, (i, j), str(f)))
            if pizzetti(R2 * f, m, n) != pizzetti(f, m, n):
                failures.append(("T(R^2 f) != T(f)", k, None, str(f)))
    for k in range(0, k_max + 1):
        hk = harmonic_polys(m, n, k)
        for l in range(k + 1, k_max + 1):
            hl = harmonic_polys(m, n, l)
            if not hk or not hl:
                continue
            if len(hk) * len(hl) <= ORTHOGONALITY_PAIRS:
                pairs = [(a, b) for a in hk for b in hl]
            else:
                pairs = [(rng.choice(hk), rng.choice(hl))
                         for _ in range(ORTHOGONALITY_PAIRS)]
            for a, b in pairs:
                if not pizzetti(a * b, m, n).is_zero():
                    failures.append(("T(H_k H_l) != 0", (k, l), None, str(a * b)))
    return InvarianceReport(m, n, k_max, not failures, failures)


def invariant_density_solutions(m: int, n: int, k_max: int = 4) -> list[list[Fraction]]:
    """All densities alpha(theta^2) making the phi#-functional invariant.

    Solves, exactly, for coefficient vectors (a_0..a_n) of
    alpha = sum_i a_i theta^{2i} such that
    int_S int_B alpha(theta^2) phi#(L f) = 0 for all generators L and all
    monomials f of degree <= k_max.  A one-dimensional solution space is the
    uniqueness statement; the known solution is (1-theta^2)^{m/2-1}.
    """
    if m < 1 or n < 1:
        raise ValueError("needs m >= 1 and n >= 1")
    from .linalg import kernel_of_equations
    th = theta2(n)
    densities = []
    power = SuperPolynomial.one()
    for i in range(0, n + 1):
        densities.append(power)
        power = power * th

    rows = []
    for k in range(0, k_max + 1):
        for mono in monomial_basis(m, n, k):
            f = SuperPolynomial.monomial(mono)
            for (i, j) in generator_pairs(m, n):
                Lf = osp_generator(i, j, m, n).apply(f)
                if Lf.is_zero():
                    continue
                vals = [_sphere_berezin(Lf, d, m, n) for d in densities]
                hs = {v.h for v in vals if not v.is_zero()}
                if not hs:
                    continue
                if len(hs) > 1:
                    raise AssertionError("mixed pi powers in one linear constraint")
                rows.append({t: v.q for t, v in enumerate(vals) if not v.is_zero()})
    kernel = kernel_of_equations(rows, n + 1)
    return [[row.get(i, Fraction(0)) for i in range(n + 1)] for row in kernel.rows]
