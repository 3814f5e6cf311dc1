"""Exact sparse polynomial ring with commuting and anticommuting generators.

The ring has m commuting generators x1..xm and 2n anticommuting (Grassmann)
generators xg1..xg2n with xgi*xgj = -xgj*xgi (so xgj^2 = 0), while bosonic
generators commute with everything.  Coefficients are exact rationals
(`fractions.Fraction`); no floating point is used anywhere.

Monomials are kept in a canonical form: the Grassmann factors are stored as a
strictly ascending index tuple and reordering signs are absorbed into the
coefficient.  Grassmann partial derivatives are LEFT derivatives: the
generator is moved to the front of the word, picking up one sign per
anticommuting generator passed, and then removed.
"""

from __future__ import annotations

import itertools
import math
import re
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Union


class Parity(IntEnum):
    EVEN = 0
    ODD = 1


class SuperMonomial(NamedTuple):
    """Canonical monomial: sparse bosonic exponents and an ascending Grassmann mask.

    ``bosonic`` is a tuple of (index, exponent) pairs sorted by index with
    exponent >= 1; ``fermionic`` is a strictly ascending tuple of Grassmann
    generator indices (each generator appears at most once since xg^2 = 0).
    Indices are 1-based.
    """

    bosonic: tuple[tuple[int, int], ...]
    fermionic: tuple[int, ...]

    def degree(self) -> int:
        return sum(e for _, e in self.bosonic) + len(self.fermionic)


ONE_MONOMIAL = SuperMonomial((), ())


def _merge_fermionic(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two ascending masks; return (sign, merged) or (0, None) on a repeat.

    The sign is that of the transpositions sorting the concatenation a+b: one
    for each pair (x in b, y in a) with y > x.
    """
    if not a or not b:
        return 1, a or b
    if not set(a).isdisjoint(b):
        return 0, None
    swaps = sum(y > x for x in b for y in a)
    return (-1 if swaps % 2 else 1), tuple(sorted(a + b))


def _mul_monomials(u: SuperMonomial, v: SuperMonomial):
    """Product of monomials: (sign, monomial) or (0, None) when it vanishes."""
    sign, ferm = _merge_fermionic(u.fermionic, v.fermionic)
    if sign == 0:
        return 0, None
    if not u.bosonic:
        bos = v.bosonic
    elif not v.bosonic:
        bos = u.bosonic
    else:
        acc = dict(u.bosonic)
        for idx, e in v.bosonic:
            acc[idx] = acc.get(idx, 0) + e
        bos = tuple(sorted(acc.items()))
    return sign, SuperMonomial(bos, ferm)


def _cofactor(mu: SuperMonomial, nu: SuperMonomial):
    """Division of monomials: (sign, x^c) with nu x^c = sign * mu, the sign by
    ``_merge_fermionic``, or (0, None) when nu does not divide mu."""
    exps = dict(mu.bosonic)
    for i, e in nu.bosonic:
        rest = exps.get(i, 0) - e
        if rest < 0:
            return 0, None
        exps[i] = rest
    if not set(nu.fermionic) <= set(mu.fermionic):
        return 0, None
    rest = tuple(g for g in mu.fermionic if g not in nu.fermionic)
    return (_merge_fermionic(nu.fermionic, rest)[0],
            SuperMonomial(tuple((i, e) for i, e in exps.items() if e), rest))


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


def _add_term(out: dict, mono: SuperMonomial, c) -> None:
    """Add c * mono to the terms `out`, dropping a coefficient that cancels."""
    s = out.get(mono, 0) + c
    if s:
        out[mono] = s
    else:
        out.pop(mono, None)


Coefficient = Union[int, Fraction]


class SuperPolynomial:
    """Sparse exact-coefficient element of the super polynomial ring."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[SuperMonomial, Fraction] | None = None):
        # terms must already be canonical: no zero coefficients
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SuperPolynomial":
        return SuperPolynomial()

    @staticmethod
    def one() -> "SuperPolynomial":
        return SuperPolynomial({ONE_MONOMIAL: Fraction(1)})

    @staticmethod
    def monomial(mono: SuperMonomial, coeff: Coefficient = 1) -> "SuperPolynomial":
        c = Fraction(coeff)
        return SuperPolynomial({mono: c} if c else {})

    @staticmethod
    def x(i: int, exponent: int = 1) -> "SuperPolynomial":
        if i < 1:
            raise IndexError(f"bosonic index {i} out of range")
        if exponent == 0:
            return SuperPolynomial.one()
        return SuperPolynomial({SuperMonomial(((i, exponent),), ()): Fraction(1)})

    @staticmethod
    def xg(j: int) -> "SuperPolynomial":
        if j < 1:
            raise IndexError(f"Grassmann index {j} out of range")
        return SuperPolynomial({SuperMonomial((), (j,)): Fraction(1)})

    # -- ring structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _add_term(out, mono, c)
        return SuperPolynomial(out)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial({mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + (-other)

    def scaled(self, c: Coefficient) -> "SuperPolynomial":
        c = Fraction(c)
        if not c:
            return SuperPolynomial()
        return SuperPolynomial({mono: c * v for mono, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        out: dict[SuperMonomial, Fraction] = {}
        for mu, cu in self.terms.items():
            for mv, cv in other.terms.items():
                sign, mono = _mul_monomials(mu, mv)
                if sign == 0:
                    continue
                _add_term(out, mono, cu * cv if sign > 0 else -(cu * cv))
        return SuperPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, e: int) -> "SuperPolynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = SuperPolynomial.one()
        for _ in range(e):
            out = out * self
        return out

    # -- derivations ----------------------------------------------------

    def _derivative(self, image, index: int) -> "SuperPolynomial":
        """The sum of the monomial derivative images, each times its coefficient."""
        out: dict[SuperMonomial, Fraction] = {}
        for mono, c in self.terms.items():
            im = image(mono, index)
            if im is not None:
                _add_term(out, im[1], c * im[0])
        return SuperPolynomial(out)

    def dx(self, i: int) -> "SuperPolynomial":
        """Ordinary partial derivative with respect to the bosonic xi."""
        return self._derivative(_dx_image, i)

    def dxg(self, j: int) -> "SuperPolynomial":
        """Left Grassmann derivative with respect to xgj."""
        return self._derivative(_dxg_image, j)

    # -- grading ----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree() for m in self.terms)

    def is_parity_homogeneous(self) -> bool:
        parities = {len(m.fermionic) % 2 for m in self.terms}
        return len(parities) <= 1

    def parity(self) -> Parity:
        """Parity of a parity-homogeneous polynomial (zero counts as even)."""
        parities = {len(m.fermionic) % 2 for m in self.terms}
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return Parity(parities.pop()) if parities else Parity.EVEN

    def __repr__(self) -> str:
        return f"SuperPolynomial({render(self)!r})"

    def __str__(self) -> str:
        return render(self)


# -- degree bases -----------------------------------------------------------


@lru_cache(maxsize=None)
def _exponent_pair(i: int, e: int) -> tuple[int, int]:
    """One shared (index, exponent) tuple for all cached bases."""
    return (i, e)


def _bosonic_compositions(total: int, parts: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Compositions of `total` into `parts` slots in descending-lex order, each
    as the (slot, value) pairs of its nonzero slots, slots counted from 1.

    The successor lowers the last nonzero slot before the final one by 1 and
    moves the final slot's value, plus 1, into the slot after it; only the
    nonzero slots are touched, so no step recurses or walks all the slots.
    """
    if total and not parts:
        return
    comp = [_exponent_pair(1, total)] if total else []
    while True:
        yield tuple(comp)
        tail = comp.pop()[1] if comp and comp[-1][0] == parts else 0
        if not comp:
            return
        i, e = comp.pop()
        if e > 1:
            comp.append(_exponent_pair(i, e - 1))
        comp.append(_exponent_pair(i + 1, tail + 1))


# The largest dim P_k whose monomial basis is built: the work on a basis grows
# faster than its size (one `check lb` cell: 2.7 s at 1408, 6.1 s at 2972).
MAX_BASIS_DIM = 3000


def check_variable_count(m: int, n: int) -> None:
    """Refuse (m|2n) when its m + 2n variables (dim P_1) exceed MAX_BASIS_DIM:
    the operator trees of a cell grow with its variable count."""
    if m + 2 * n > MAX_BASIS_DIM:
        raise ValueError(f"({m}|{2 * n}) has {m + 2 * n} variables (dim P_1), "
                         f"above the limit MAX_BASIS_DIM = {MAX_BASIS_DIM}")


@lru_cache(maxsize=None)
def monomial_basis(m: int, n: int, k: int) -> tuple[SuperMonomial, ...]:
    """All degree-k monomials, ordered by Grassmann degree, then bosonic
    descending-lex, then ascending mask; refused above MAX_BASIS_DIM, as is
    every basis of a cell with more variables than that."""
    if m < 0 or n < 0 or k < 0:
        raise ValueError("m, n, k must be nonnegative")
    check_variable_count(m, n)
    if dim_Pk(m, n, k) > MAX_BASIS_DIM:
        raise ValueError(f"P_{k} of ({m}|{2 * n}) has dimension {dim_Pk(m, n, k)}, "
                         f"above the limit MAX_BASIS_DIM = {MAX_BASIS_DIM}")
    out = []
    for nf in range(0, min(k, 2 * n) + 1):
        kb = k - nf
        masks = list(itertools.combinations(range(1, 2 * n + 1), nf))
        for bos in _bosonic_compositions(kb, m):
            out.extend(SuperMonomial(bos, mask) for mask in masks)
    return tuple(out)


def dim_Pk(m: int, n: int, k: int) -> int:
    """Dimension of the space of degree-k polynomials on (m|2n) variables."""
    if k < 0:
        return 0
    if m == 0:
        return math.comb(2 * n, k) if k <= 2 * n else 0
    total = 0
    for i in range(0, min(k, 2 * n) + 1):
        total += math.comb(2 * n, i) * math.comb(k - i + m - 1, m - 1)
    return total


# -- text rendering and parsing ----------------------------------------------


def _term_sort_key(mono: SuperMonomial):
    dense = tuple(sorted(((-e, i) for i, e in mono.bosonic)))
    return (mono.degree(), len(mono.fermionic), dense, mono.fermionic)


def _render_mono(mono: SuperMonomial) -> str:
    parts = []
    for i, e in mono.bosonic:
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    for j in mono.fermionic:
        parts.append(f"xg{j}")
    return "*".join(parts)


def render(f: SuperPolynomial) -> str:
    """Render as e.g. '2*x1^2 - xg1*xg2 + 3/2*x2'."""
    if not f.terms:
        return "0"
    items = sorted(f.terms.items(), key=lambda kv: _term_sort_key(kv[0]))
    pieces = []
    for mono, c in items:
        body = _render_mono(mono)
        mag = abs(c)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not pieces:
            pieces.append(text if c > 0 else f"-{text}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + text)
    return " ".join(pieces)


class ParseError(ValueError):
    pass


# Largest exponent, and largest degree of a term, that `parse` accepts.
MAX_DEGREE = 64


_TOKEN = re.compile(r"\s*(xg\d+|x\d+|\d+/\d+|\d+|\^|\*|\+|-)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN.match(text, pos)
        if not mo:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:]!r}")
            break
        tokens.append(mo.group(1))
        pos = mo.end()
    return tokens


def parse(text: str) -> SuperPolynomial:
    """Parse the rendering grammar: sums of '*'-joined factors with '^' powers.

    Each term is one coefficient and one monomial, multiplied factor by factor
    by `_mul_monomials` (so the Grassmann reordering sign and the exponent
    merge are the ring's), and added once by `_add_term`.  Exponents and the
    degree of every nonzero term are capped at MAX_DEGREE, so that parsing,
    and integrating what was parsed, ends in bounded time.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    terms: dict[SuperMonomial, Coefficient] = {}
    i = 0

    def parse_factor(i):
        """(coefficient, monomial, index of the next token) of the factor at i."""
        if i >= len(tokens):
            raise ParseError("expected a factor")
        tok = tokens[i]
        i += 1
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in {tok}")
            return Fraction(int(num), int(den)), ONE_MONOMIAL, i
        if not tok[-1].isdigit():
            raise ParseError(f"expected a factor, got {tok!r}")
        e = 1
        if i < len(tokens) and tokens[i] == "^":
            i += 1
            if i >= len(tokens) or not tokens[i].isdigit():
                raise ParseError("expected an integer exponent after '^'")
            e = int(tokens[i])
            if e > MAX_DEGREE:
                raise ParseError(f"exponent {e} exceeds the cap {MAX_DEGREE}")
            i += 1
        if not tok.startswith("x"):
            return int(tok) ** e, ONE_MONOMIAL, i
        index = int(tok.lstrip("xg"))
        if index < 1:
            raise ParseError(f"variable index 0 in {tok}")
        if e == 0:
            return 1, ONE_MONOMIAL, i
        if not tok.startswith("xg"):
            return 1, SuperMonomial(((index, e),), ()), i
        # xg^2 = 0, so only the powers 0 and 1 survive
        return (1, SuperMonomial((), (index,)), i) if e == 1 else (0, ONE_MONOMIAL, i)

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        coeff, mono, i = parse_factor(i)
        while i < len(tokens) and tokens[i] == "*":
            c, factor, i = parse_factor(i + 1)
            coeff *= c
            if coeff:
                s, mono = _mul_monomials(mono, factor)
                coeff *= s
                if coeff and mono.degree() > MAX_DEGREE:
                    raise ParseError(f"a term exceeds the degree cap {MAX_DEGREE}")
        if coeff:
            _add_term(terms, mono, sign * coeff)
    return SuperPolynomial({mono: Fraction(c) for mono, c in terms.items()})
