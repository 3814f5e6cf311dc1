"""Exact sparse linear algebra over the rationals, with mod-p certificates.

Vectors are sparse dicts {column index: entry}.  An entry is an int when it is
whole and a Fraction otherwise: each function that computes an entry narrows
it by `_int_if_whole`, so arithmetic on whole entries stays int arithmetic,
and a function given vectors that keep this rule returns vectors that keep it.
Subspaces are kept in reduced row echelon form with unit pivots, which is a
canonical representative: two subspaces are equal iff their echelon matrices
are equal.

Full-rank facts are (optionally) certified through a single large prime:
each vector is reduced to a sparse row {column index: residue mod p} of Python
ints and eliminated mod p, and vectors of full rank mod p have full rank over
Q, so the modular check is an exact proof whenever it reaches the expected
rank, and a coordinate whose residue is nonzero mod p is nonzero over Q.
Deficient ranks and zero residues are never trusted, and entries whose
denominator p divides are refused; callers then fall back to exact
elimination, exhaustive closures or an explicit dependency witness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = dict[int, int | Fraction]  # an entry is an int when whole, else a Fraction

# Prime for modular certificates.  Residues are exact Python ints; a large p
# makes a rank that drops mod p (and so needs the exact fallback) unlikely.
PRIME = 99_999_989

_ONE = Fraction(1)


# -- sparse vector helpers ----------------------------------------------------


def _int_if_whole(c: int | Fraction) -> int | Fraction:
    """c, stored as an int when it is whole (the one narrowing rule)."""
    return c.numerator if c.denominator == 1 else c


def _primitive(v: Vec) -> Vec:
    """The int multiple of v by a positive scale whose entries have gcd 1."""
    den = math.lcm(*(x.denominator for x in v.values()))
    ints = {c: x.numerator * (den // x.denominator) for c, x in v.items()}
    g = math.gcd(*ints.values()) or 1
    return {c: x // g for c, x in ints.items()}


def _iadd_scaled(out: Vec, c: int | Fraction, w: Vec) -> None:
    for i, x in w.items():
        s = out.get(i)
        if s is None:
            out[i] = _int_if_whole(c * x)
        else:
            s = s + c * x
            if s:
                out[i] = _int_if_whole(s)
            else:
                del out[i]


def _reduce(v: Vec, pivot_rows: dict[int, Vec]) -> Vec:
    """Residual of v after elimination against rows kept by pivot column.

    The rows are inter-reduced (no row meets another row's pivot column), so
    one pass over the pivot entries of v is complete.  Zero entries of v are
    dropped, so no pivot is 0 and the residual holds no zero.
    """
    v = {c: x for c, x in v.items() if x}
    for c in [c for c in v if c in pivot_rows]:
        coeff = v.get(c)
        if coeff:
            _iadd_scaled(v, -coeff, pivot_rows[c])
    return v


class Echelon:
    """Mutable reduced-row-echelon accumulator for sparse rational rows."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, Vec] = {}  # pivot column -> normalized row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after elimination against the stored pivots."""
        return _reduce(v, self.rows)

    def add(self, v: Vec) -> bool:
        """Insert v; returns True when it enlarged the span."""
        v = self.reduce(v)
        if not v:
            return False
        c = min(v)
        pivot = v[c]  # a pivot of 1 or -1 is an int and needs no division
        if pivot == -1:
            v = {i: -x for i, x in v.items()}
        elif pivot != 1:
            inv = _ONE / pivot  # a Fraction also for an int entry
            v = {i: _int_if_whole(inv * x) for i, x in v.items()}
        for row in self.rows.values():
            coeff = row.get(c)
            if coeff is not None:
                _iadd_scaled(row, -coeff, v)
        self.rows[c] = v
        return True

    def sorted_rows(self) -> list[tuple[int, Vec]]:
        return sorted(self.rows.items())


class Subspace:
    """Immutable subspace of Q^width in canonical reduced echelon form."""

    __slots__ = ("width", "pivots", "rows", "_by_pivot")

    def __init__(self, width: int, rows: Sequence[tuple[int, Vec]]):
        self.width = width
        self.pivots = tuple(p for p, _ in rows)
        self.rows = tuple(dict(r) for _, r in rows)
        self._by_pivot = dict(zip(self.pivots, self.rows))

    @staticmethod
    def from_vectors(vectors: Iterable[Vec], width: int) -> "Subspace":
        ech = Echelon(width)
        for v in vectors:
            _check_columns(v, width)
            ech.add(v)
        return Subspace(width, ech.sorted_rows())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_vectors(self) -> list[Vec]:
        return [dict(r) for r in self.rows]

    def reduce(self, v: Vec) -> Vec:
        """Fully reduced residual of v modulo the subspace (rows are rref)."""
        return _reduce(v, self._by_pivot)

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def linear_combination(self, coords: Vec) -> Vec:
        """sum_i coords[i] * (basis row i), for sparse coordinates."""
        out: Vec = {}
        for i, c in coords.items():
            if c:
                _iadd_scaled(out, c, self.rows[i])
        return out

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.width != other.width:
            raise ValueError("ambient widths differ")
        return Subspace.from_vectors(self.rows + other.rows, self.width)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection: echelonize [A|A; B|0] over width 2w.

        Rows whose pivot falls in the right block have zero left block, and
        their right halves are already the intersection's canonical basis.
        """
        if self.width != other.width:
            raise ValueError("ambient widths differ")
        w = self.width
        ech = Echelon(2 * w)
        for r in self.rows:
            doubled = dict(r)
            doubled.update({i + w: x for i, x in r.items()})
            ech.add(doubled)
        for r in other.rows:
            ech.add(dict(r))
        return Subspace(w, [(p - w, {i - w: x for i, x in row.items()})
                            for p, row in ech.sorted_rows() if p >= w])

    def complement_columns(self) -> list[int]:
        """Column indices without a pivot (canonical quotient representatives)."""
        pivset = set(self.pivots)
        return [c for c in range(self.width) if c not in pivset]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.width == other.width and self.pivots == other.pivots
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.width, self.pivots))

    def __repr__(self):
        return f"Subspace(width={self.width}, dim={self.dim})"


def _check_columns(v: Vec, width: int) -> None:
    """ValueError for a column of v outside range(width); each entry point
    that takes vectors checks every vector once, and Echelon.add trusts it."""
    if v and (min(v) < 0 or max(v) >= width):
        raise ValueError(f"a column lies outside range({width})")


def kernel_of_equations(rows: Iterable[Vec], width: int) -> Subspace:
    """Canonical basis of {v : row . v = 0 for every equation row}.

    One elimination on reversed columns puts each row r_p's pivot p at its
    highest column, so for each free column f, e_f - sum_p r_p[f] e_p has its
    lowest entry 1 at f (f < p wherever r_p[f] != 0) and no other free column:
    these vectors are already the canonical reduced echelon basis.
    """
    top = width - 1
    ech = Echelon(width)
    for r in rows:
        _check_columns(r, width)
        ech.add({top - c: x for c, x in r.items()})
    kernel = {f: {f: 1} for f in range(width) if top - f not in ech.rows}
    for p, row in ech.rows.items():
        for c, x in row.items():
            if c != p:
                kernel[top - c][top - p] = -x
    return Subspace(width, sorted(kernel.items()))


def rank_of_vectors(vectors: Iterable[Vec], width: int) -> int:
    return Subspace.from_vectors(vectors, width).dim


# -- modular certificates ------------------------------------------------------


ModpRows = dict[int, dict[int, int]]  # lowest column -> monic row of residues


def _residues(v: Vec) -> dict[int, int] | None:
    """The nonzero residues of v mod PRIME; None when PRIME divides a denominator."""
    try:
        return {i: r for i, x in v.items()
                if (r := x.numerator * pow(x.denominator, -1, PRIME) % PRIME)}
    except ValueError:
        return None


def _eliminate_modp(row: dict[int, int], pivots: ModpRows) -> dict[int, int]:
    """Subtract kept rows from row, in place, while its lowest column holds one.

    Each step clears the lowest column and touches only higher ones, so more
    steps than kept rows plus one raise RuntimeError instead of looping.
    """
    for _ in range(len(pivots) + 1):
        if not row or (c := min(row)) not in pivots:
            return row
        f = row[c]
        for i, y in pivots[c].items():
            s = (row.get(i, 0) - f * y) % PRIME
            if s:
                row[i] = s
            else:
                del row[i]
    raise RuntimeError("_eliminate_modp: the lowest column did not rise at every step")


def _keep_modp(row: dict[int, int], pivots: ModpRows) -> int:
    """Store a nonzero reduced row, monic, under its lowest column, and return it."""
    c = min(row)
    inv = pow(row[c], -1, PRIME)
    pivots[c] = {i: y * inv % PRIME for i, y in row.items()}
    return c


def rank_modp(vectors: Sequence[Vec], width: int) -> int | None:
    """Rank mod PRIME, or None when an entry cannot be reduced mod PRIME."""
    pivots: ModpRows = {}
    for v in vectors:
        _check_columns(v, width)
        if (row := _residues(v)) is None:
            return None
        if _eliminate_modp(row, pivots):
            _keep_modp(row, pivots)
    return len(pivots)


def certified_full_rank(vectors: Sequence[Vec], width: int) -> bool:
    """True iff the vectors are linearly independent over Q.

    The modular pass is a sound certificate when it reaches len(vectors);
    otherwise, or when it refuses the vectors, the exact elimination decides.
    More vectors than the width go straight to it, which checks their columns.
    """
    n = len(vectors)
    if n == 0:
        return True
    if n <= width and rank_modp(vectors, width) == n:
        return True
    return rank_of_vectors(vectors, width) == n
