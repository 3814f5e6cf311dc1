"""Reference definitions that the tests compare the package against.

These are the second, independent constructions of objects the package
computes another way: R^2 and nabla^2 through the metric, the raised
derivatives, graded commutators of the generators, the harmonic basis as
polynomials, f^j times coordinate vectors through polynomials, the
blocks of the explicit branching check as x1^eps R'^{2j} H'_l by polynomial
powers, their commutation with x1 vector by vector, submodule closures by
a fixed point over the whole span, the pieces of H_k from polynomial
products f * b * g, a projector's scalar on a piece factor by factor in
Fractions, the leaf
arrays of multiplication by a monomial, monomial by monomial, homogeneous
components, the bosonic compositions by recursion, a Grassmann word
sorted by adjacent swaps, the parser by polynomial products (a polynomial
per factor, multiplied and summed in the ring), the reduced
echelon form, kernel and intersection by dense all-Fraction elimination, the
lift of module coordinates, the phi# route of the supersphere integral by its
definition (phi# on Laurent functions of r^2, and the Berezin integral), the
density's coefficients by their recurrence, three checks of the invariance
suite by operator columns: (a) by applying each generator to every unit
column, (b) by the columns of multiplication by R^2, and the orthogonality
check by the columns of multiplication operators; the Pizzetti sum by its
definition, a walk of nabla^2; the Pizzetti rows by the transposed chain of
nabla^2 matrices; and the invariant densities by the same forward loop.  Also here
are the helpers that only the tests use: the radial polynomials f_poly and
the identity of verify_lemma_Lf, the runner of acceptance criterion
06, the bosonic degree of a monomial, a JSON form of ScaledRational,
coordinates in a subspace's echelon basis (also read off in pivot order),
the constant polynomial, and the conversions between polynomials and
coordinate vectors
(`poly_to_vec`, `subspace_polys`, `coords_of_poly`).  Nothing in the package
calls them, so they live with the tests.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from superh.diffops import (Add, Compose, LinearOperator, Metric, MultiplyBy, Scale,
                            generator_pairs, index_parity, metric, nabla2, operator_matrices,
                            operator_sum, osp_generator, plain_partial, r2,
                            theta2, variable_poly, vec_to_poly)
from superh.checks import Report
from superh.harmonic import (ProjectionOperator, _f_coefficients, bosonic_eigenvalue,
                             fermionic_eigenvalue, harmonic_basis, piece_labels)
from superh.integration import (PizzettiRows, ScaledRational, _dot, _pizzetti_weight,
                                _sphere_berezin)
from superh.linalg import Subspace, Vec, _int_if_whole, kernel_of_equations
from superh.modules import RepSpace, _branching_blocks
from superh.superalgebra import (MAX_DEGREE, ONE_MONOMIAL, Coefficient, ParseError,
                                 SuperMonomial, SuperPolynomial, _mul_monomials, _tokenize,
                                 dim_Pk, monomial_basis)


# -- the metric, entry by entry --------------------------------------------------


def entry(met: Metric, i: int, j: int) -> Fraction:
    return met.g[i - 1].get(j - 1, Fraction(0))


def inv_entry(met: Metric, i: int, j: int) -> Fraction:
    return met.g_inv[i - 1].get(j - 1, Fraction(0))


def _column(met: Metric, j: int) -> list[tuple[int, Fraction]]:
    """(i, g[i][j]) over the nonzero entries of column j of g."""
    return [(i, row[j - 1]) for i, row in enumerate(met.g, 1) if j - 1 in row]


def raised_coordinate(met: Metric, j: int) -> SuperPolynomial:
    """X^j = sum_i X_i g[i][j]."""
    out = SuperPolynomial.zero()
    for i, c in _column(met, j):
        out = out + variable_poly(i, met.m, met.n).scaled(c)
    return out


def nabla_upper(met: Metric, j: int) -> LinearOperator:
    """nabla^j = (-1)^{[j]} d/dX_j."""
    sign = Fraction(-1 if j > met.m else 1)
    return Compose((Scale(sign), plain_partial(j, met.m, met.n)))


def nabla_upper_by_raising(met: Metric, j: int) -> LinearOperator:
    """nabla^j = sum_i nabla_i g[i][j]; must agree with nabla_upper."""
    return operator_sum([Compose((Scale(c), met.nabla_lower(i)))
                         for i, c in _column(met, j)])


def r2_from_metric(m: int, n: int) -> SuperPolynomial:
    """R^2 = sum_j X^j X_j; must agree with the explicit form."""
    met = metric(m, n)
    out = SuperPolynomial.zero()
    for j in range(1, met.size + 1):
        out = out + raised_coordinate(met, j) * variable_poly(j, m, n)
    return out


def nabla2_from_metric(m: int, n: int) -> LinearOperator:
    """sum_j nabla^j nabla_j built through the metric; must agree with nabla2."""
    met = metric(m, n)
    parts = [Compose((nabla_upper(met, j), met.nabla_lower(j)))
             for j in range(1, met.size + 1)]
    return operator_sum(parts)


def generator_commutator(i, j, k, l, m, n) -> LinearOperator:
    """Graded commutator [L_ij, L_kl]."""
    A = osp_generator(i, j, m, n)
    B = osp_generator(k, l, m, n)
    sign = (index_parity(i, m) + index_parity(j, m)) * (index_parity(k, m) + index_parity(l, m))
    s = Fraction(-1 if sign % 2 else 1)
    return Add((Compose((A, B)), Compose((Scale(-s), B, A))))


# -- polynomials and module vectors -------------------------------------------------


def poly_to_vec(f: SuperPolynomial, m: int, n: int, k: int) -> Vec:
    """Coordinates of a degree-k polynomial in the monomial basis of P_k."""
    index = operator_matrices(m, n).index(k)
    out: Vec = {}
    for mono, c in f.terms.items():
        idx = index.get(mono)
        if idx is None:
            raise ValueError(f"monomial {mono} is not of degree {k} in ({m}|{2*n})")
        out[idx] = _int_if_whole(c)
    return out


def subspace_polys(sub: Subspace, m: int, n: int, k: int) -> list[SuperPolynomial]:
    return [vec_to_poly(row, m, n, k) for row in sub.rows]


def coords_of_poly(rep: RepSpace, f: SuperPolynomial) -> Vec:
    """Module coordinates of a polynomial of P_k that lies in rep's subspace."""
    return rep.coords(poly_to_vec(f, rep.m, rep.n, rep.k))


def harmonic_polys(m: int, n: int, k: int) -> list[SuperPolynomial]:
    return subspace_polys(harmonic_basis(m, n, k), m, n, k)


def power_by_polynomials(f: SuperPolynomial, vecs: list[Vec], m: int, n: int, k: int,
                         j: int) -> list[Vec]:
    """f^j times coordinate vectors of P_k for a homogeneous f, multiplied out
    as polynomials (f^j * vec_to_poly -> poly_to_vec): the package applies a
    held multiplier j times instead."""
    degree = max((mono.degree() for mono in f.terms), default=0)
    f_power = f ** j
    return [poly_to_vec(f_power * vec_to_poly(v, m, n, k), m, n, k + degree * j) for v in vecs]


def branching_blocks_by_polynomials(m: int, n: int, k: int) -> dict[int, list[Vec]]:
    """{l: x1^eps R'^{2j} H'_l as vectors of P_k} for l = 0..k, with k - l =
    eps + 2j (eps = 0 or 1), R'^2 = R^2 - x1^2 and H'_l the harmonic basis of
    (m-1|2n) with x_i renamed x_(i+1), all formed as polynomials: the package
    multiplies the shifted basis vectors by x1 k - l times instead."""
    r2_rest = r2(m, n) - SuperPolynomial.x(1, 2)
    out = {}
    for l in range(0, k + 1):
        eps, j = (k - l) % 2, (k - l) // 2
        radial = SuperPolynomial.x(1) ** eps * r2_rest ** j
        shifted = [SuperPolynomial({SuperMonomial(tuple((i + 1, e) for i, e in mono.bosonic),
                                                  mono.fermionic): c
                                    for mono, c in h.terms.items()})
                   for h in harmonic_polys(m - 1, n, l)]
        out[l] = [poly_to_vec(radial * h, m, n, k) for h in shifted]
    return out


def closure_by_fixed_point(rep: RepSpace, seeds: list[Vec]) -> Subspace:
    """The smallest invariant subspace containing the seeds, by applying every
    generator to every basis vector of the span until the span is stable: the
    package applies the generators to the vectors new in each round only, and
    stops as soon as the span is the whole module."""
    span = Subspace.from_vectors(seeds, rep.dim)
    while True:
        images = [w for v in span.basis_vectors() for (i, j) in rep.gen_pairs
                  if (w := rep.apply_generator(i, j, v))]
        grown = Subspace.from_vectors(list(span.rows) + images, rep.dim)
        if grown.dim == span.dim:
            return span
        span = grown


def block_intertwiner_holds(m: int, n: int, k: int) -> bool:
    """L_ab x1^{k-l} h = x1^{k-l} L_ab h for every subalgebra generator (a, b
    >= 2) and every vector h of each shifted basis H'_l, l = 0..k, by the
    generator images, vector by vector: the package certifies it once on the
    generators' words instead
    (`OperatorMatrices.generator_differentiates`)."""
    mats = operator_matrices(m, n)
    pairs = [(a, b) for (a, b) in generator_pairs(m, n) if a >= 2 and b >= 2]
    for l, hs, polys in _branching_blocks(m, n, k):
        for (a, b) in pairs:
            moved = [mats.generator_image(a, b, h, l) for h in hs]
            if ([mats.generator_image(a, b, p, k) for p in polys]
                    != mats.power(mats.mul_x1, moved, l, k - l)):
                return False
    return True


def piece_products(radial: SuperPolynomial, m: int, n: int, p: int,
                   q: int) -> list[SuperPolynomial]:
    """radial * b * g for b in Hb_p (outer) and g in Hf_q, the echelon rows
    as polynomials; radial * b is formed once per b."""
    hf = subspace_polys(harmonic_basis(0, n, q), 0, n, q)
    out = []
    for b in subspace_polys(harmonic_basis(m, 0, p), m, 0, p):
        rb = radial * b
        out.extend(rb * g for g in hf)
    return out


def pieces_by_polynomials(m: int, n: int, k: int) -> list[tuple[int, int, int, Subspace]]:
    """(l, p, q, basis) of each piece of H_k, spanned by the polynomial
    products f_poly(l, p, q) * b * g: the package multiplies int vectors."""
    width = dim_Pk(m, n, k)
    return [(l, p, q, Subspace.from_vectors(
                [poly_to_vec(f, m, n, k) for f in piece_products(f_poly(l, p, q, m, n), m, n, p, q)],
                width))
            for l, p, q, _ in piece_labels(m, n, k)]


def scalar_on_piece_by_fractions(Q: ProjectionOperator, p: int, q: int) -> Fraction:
    """The scalar of Q on a (p, q) joint eigenvector, factor by factor in
    Fractions: the product of (lam + shift) / denom over both factor lists."""
    out = Fraction(1)
    for lam, factors in ((bosonic_eigenvalue(Q.m, p), Q.bosonic_factors),
                         (fermionic_eigenvalue(Q.n, q), Q.fermionic_factors)):
        for shift, denom in factors:
            out *= (Fraction(lam) + shift) / denom
    return out


def product_leaf_arrays(what: SuperMonomial, m: int, n: int, k: int) -> tuple[list[int], array]:
    """(target row or -1, value) per basis monomial of P_k of multiplication
    by the monomial `what`, from each product what * mono; ValueError at the
    first nonzero product outside (m|2n)."""
    target = {mono: i for i, mono in enumerate(monomial_basis(m, n, k + what.degree()))}
    rows, vals = [], array("i")
    for mono in monomial_basis(m, n, k) if k >= 0 else ():
        sign, prod = _mul_monomials(what, mono)
        row = target.get(prod) if sign else -1
        if row is None:
            raise ValueError(f"{what} times {mono} lies outside ({m}|{2 * n})")
        rows.append(row)
        vals.append(sign)
    return rows, vals


def homogeneous_component(f: SuperPolynomial, k: int) -> SuperPolynomial:
    if k < 0:
        raise ValueError("degree must be nonnegative")
    return SuperPolynomial({m: c for m, c in f.terms.items() if m.degree() == k})


def homogeneous_components(f: SuperPolynomial) -> dict[int, SuperPolynomial]:
    out: dict[int, dict] = {}
    for m, c in f.terms.items():
        out.setdefault(m.degree(), {})[m] = c
    return {k: SuperPolynomial(t) for k, t in sorted(out.items())}


def bosonic_compositions_recursive(total: int, parts: int, slot: int = 1) -> list[tuple]:
    """Compositions of `total` into slots slot..parts, descending-lex order, as
    the (slot, value) pairs of their nonzero slots, by one recursion per slot
    (the depth is the slot count): the package steps from each composition to
    the next without recursing."""
    if total == 0 or slot > parts:
        return [()] if total == 0 else []
    out = []
    for first in range(total, -1, -1):
        rests = bosonic_compositions_recursive(total - first, parts, slot + 1)
        out += [((slot, first),) + rest for rest in rests] if first else rests
    return out


def normalize_word(word):
    """Sort a list of Grassmann indices, counting swaps; None if repeated."""
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                return 0, None
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
    return sign, tuple(word)


def constant(c: Coefficient) -> SuperPolynomial:
    c = Fraction(c)
    return SuperPolynomial({ONE_MONOMIAL: c} if c else {})


def parse_by_products(text: str) -> SuperPolynomial:
    """`superalgebra.parse` with a polynomial per factor: each term is the ring
    product of its factors, scaled by its sign and added to the running sum.
    The grammar, the caps and every ParseError, in the order of its checks,
    are the package parser's."""
    SP = SuperPolynomial
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    result = SP.zero()
    i = 0

    def parse_factor(i):
        if i >= len(tokens):
            raise ParseError("expected a factor")
        tok = tokens[i]
        i += 1
        if "/" in tok:
            num, den = tok.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in {tok}")
            return constant(Fraction(int(num), int(den))), i
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
            return constant(int(tok) ** e), i
        index = int(tok.lstrip("xg"))
        if index < 1:
            raise ParseError(f"variable index 0 in {tok}")
        if not tok.startswith("xg"):
            return SP.x(index, e), i
        return (SP.xg(index) ** e if e < 2 else SP.zero()), i

    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        term, i = parse_factor(i)
        while i < len(tokens) and tokens[i] == "*":
            factor, i = parse_factor(i + 1)
            term = term * factor
            if term.degree() > MAX_DEGREE:
                raise ParseError(f"a term exceeds the degree cap {MAX_DEGREE}")
        result = result + term.scaled(sign)
    return result


def fraction_rref(vectors: list[Vec], width: int) -> list[tuple[int, dict]]:
    """(pivot, row) of the reduced row echelon form of the vectors, in pivot
    order, by dense Gauss-Jordan elimination with every entry a Fraction: the
    package stores whole entries as ints and eliminates sparsely."""
    done: list[tuple[int, list[Fraction]]] = []
    for v in vectors:
        r = [Fraction(v.get(c, 0)) for c in range(width)]
        for p, row in done:
            if r[p]:
                r = [a - r[p] * b for a, b in zip(r, row)]
        lead = next((c for c in range(width) if r[c]), None)
        if lead is None:
            continue
        r = [a / r[lead] for a in r]
        done = [(p, [a - row[lead] * b for a, b in zip(row, r)] if row[lead] else row)
                for p, row in done]
        done.append((lead, r))
    return sorted((p, {c: x for c, x in enumerate(row) if x}) for p, row in done)


def fraction_kernel(equations: list[Vec], width: int) -> list[tuple[int, dict]]:
    """The canonical basis of the common kernel of the equations, as
    fraction_rref of e_f - sum_p r_p[f] e_p over the free columns f."""
    rows = fraction_rref(equations, width)
    pivots = {p for p, _ in rows}
    kernel = [{f: Fraction(1), **{p: -row[f] for p, row in rows if f in row}}
              for f in range(width) if f not in pivots]
    return fraction_rref(kernel, width)


def fraction_intersection(a: list[Vec], b: list[Vec], width: int) -> list[tuple[int, dict]]:
    """The canonical basis of span(a) intersect span(b): the vectors
    sum_i alpha_i a_i over the kernel of [a^T | -b^T] in (alpha, beta)."""
    columns = [{i: v[c] for i, v in enumerate(a) if c in v}
               | {len(a) + j: -v[c] for j, v in enumerate(b) if c in v} for c in range(width)]
    meets = []
    for _, coeffs in fraction_kernel(columns, len(a) + len(b)):
        meets.append({c: x for c in range(width)
                      if (x := sum(coeffs.get(i, 0) * v.get(c, 0) for i, v in enumerate(a)))})
    return fraction_rref(meets, width)


def f_poly(k: int, p: int, q: int, m: int, n: int) -> SuperPolynomial:
    """The radial polynomial sum_s a_s r^(2k-2s) theta^(2s) making
    f * Hb_p * Hf_q harmonic, a_s by `harmonic._f_coefficients`."""
    if m < 1:
        raise ValueError("f_poly requires m >= 1")
    if not (0 <= q <= n and 0 <= k <= n - q and p >= 0):
        raise ValueError(f"invalid f_poly parameters (k={k}, p={p}, q={q}) for ({m}|{2*n})")
    rb, tf = r2(m, 0), theta2(n)
    return sum((((rb ** (k - s)) * (tf ** s)).scaled(a)
                for s, a in enumerate(_f_coefficients(k, p, q, m, n))), SuperPolynomial.zero())


def verify_lemma_Lf(k: int, p: int, q: int, m: int, n: int) -> bool:
    """Exact identity L_{1,m+1} f_{k,p,q} = 2k (M/2+p+q+k-1) f_{k-1,p+1,q+1} x1 xg1."""
    if m < 1 or n < 1:
        raise ValueError("requires at least one bosonic and one fermionic pair")
    f = f_poly(k, p, q, m, n)
    lhs = osp_generator(1, m + 1, m, n).apply(f)
    if k == 0:
        return lhs.is_zero()
    M = m - 2 * n
    scalar = 2 * k * (Fraction(M, 2) + p + q + k - 1)
    rhs = (f_poly(k - 1, p + 1, q + 1, m, n)
           * SuperPolynomial.x(1) * SuperPolynomial.xg(1)).scaled(scalar)
    return lhs == rhs


def suite_lemma_lf(cells: list[tuple[int, int]]) -> Report:
    """The radial identity of verify_lemma_Lf at every valid (k, p <= 3, q) of
    each cell with n >= 1: acceptance criterion 06, which `check` does not list."""
    report = Report("check lemma-lf", {"cells": cells})
    for (m, n) in cells:
        if n < 1:
            continue
        ok = True
        for q in range(0, n + 1):
            for k in range(0, n - q + 1):
                for p in range(0, 4):
                    if not verify_lemma_Lf(k, p, q, m, n):
                        ok = False
                        report.fail(f"radial identity failed at k={k},p={p},q={q} ({m}|{2*n})")
        report.rows.append({"m": m, "n": n, "result": "pass" if ok else "fail"})
    return report


def bosonic_degree(mono: SuperMonomial) -> int:
    return sum(e for _, e in mono.bosonic)


def subspace_coordinates(sub: Subspace, v: Vec) -> list[Fraction] | None:
    """Coefficients of v in sub's echelon basis (pivot-column readoff), or
    None when v is not in sub."""
    if sub.reduce(v):
        return None
    return [v.get(p, Fraction(0)) for p in sub.pivots]


def readoff_in_pivot_order(sub: Subspace, v: Vec) -> Vec:
    """Echelon coordinates in sub of a vector v of sub, one pivot at a time."""
    return {i: v[p] for i, p in enumerate(sub.pivots) if p in v}


def lift(rep: RepSpace, coords: Vec) -> SuperPolynomial:
    """The polynomial of P_k that module coordinates stand for."""
    return vec_to_poly(rep._in_pk({rep._kept[i]: c for i, c in coords.items()}),
                       rep.m, rep.n, rep.k)


# -- the supersphere functional T -----------------------------------------------------


def scaled_rational_to_json(value: ScaledRational) -> dict:
    return {"q": str(value.q), "h": value.h}


def scaled_rational_from_json(obj: dict) -> ScaledRational:
    return ScaledRational(Fraction(obj["q"]), int(obj["h"]))


def pizzetti_by_walk(f: SuperPolynomial, m: int, n: int) -> ScaledRational:
    """The Pizzetti sum by its definition, sum_j weight(M, j) (nabla^{2j} f)(0),
    nabla^2 stepped by the tree until f vanishes.  The package reads each
    term's (nabla^{2j} x^c)(0) in closed form instead."""
    lap = nabla2(m, n)
    total, j = ScaledRational.zero(), 0
    while f:
        total = total + _pizzetti_weight(m - 2 * n, j) * f.terms.get(ONE_MONOMIAL, 0)
        f, j = lap.apply(f), j + 1
    return total


def pizzetti_row_by_chain(m: int, n: int, k: int) -> Vec:
    """(nabla^k x^c)(0) on P_k by the transposed chain of the owner's nabla^2
    matrices P_k -> P_{k-2} -> ... -> P_0: row(d)[c] = row(d-2) . (column c of
    nabla^2 on P_d).  The package writes the row in closed form."""
    if k % 2:
        return {}
    row: Vec = {0: 1}
    mats = operator_matrices(m, n)
    for d in range(2, k + 1, 2):
        row = {c: x for c, col in enumerate(mats.matrix(mats.nabla2, d)) if (x := _dot(row, col))}
    return row


def radial_failures(T: PizzettiRows, k: int) -> list:
    """Failures of check (b), T(R^2 x^c) = T(x^c), by the columns of the
    matrix of R^2 on P_k, compared as ScaledRationals: the package reads
    row(k+2)^T R^2 transposed from the row's support instead."""
    mats = operator_matrices(T.m, T.n)
    basis = monomial_basis(T.m, T.n, k)
    return [("T(R^2 f) != T(f)", k, None, str(SuperPolynomial.monomial(basis[c])))
            for c, col in enumerate(mats.matrix(mats.mul_r2, k))
            if T.weight(k + 2) * _dot(T.row(k + 2), col) != T.weight(k) * T.row(k).get(c, 0)]


def orthogonality_columns(T: PizzettiRows, k: int, a: Vec, l: int) -> Vec:
    """u[s] = row(k + l) . (a x^s), read off the columns of multiplication by
    the polynomial of a on P_l, without zero entries."""
    m, n = T.m, T.n
    row = T.row(k + l)
    mats = operator_matrices(m, n)
    pa = vec_to_poly(a, m, n, k)
    cols = mats.matrix(MultiplyBy(pa), l)
    return {s: x for s, col in enumerate(cols) if (x := _dot(row, col))}


def orthogonality_failures(T: PizzettiRows, k: int, a_rows: list[Vec],
                           l: int, b_rows: list[Vec]) -> list:
    """Failures of T(a b) = 0 by the Fraction columns of MultiplyBy(a): the
    package reads the same u from an int pairing of the row instead."""
    if (k + l) % 2:
        return []
    m, n = T.m, T.n
    failures = []
    for a in a_rows:
        u = orthogonality_columns(T, k, a, l)
        for b in b_rows:
            if _dot(u, b):
                failures.append(("T(H_k H_l) != 0", (k, l), None,
                                 str(vec_to_poly(a, m, n, k) * vec_to_poly(b, m, n, l))))
    return failures


def generator_row_products(row: Vec, m: int, n: int, k: int) -> dict:
    """{(i, j): u} with u[c] = row . (L_ij e_c), without zero entries, by
    applying every generator to every unit column of P_k: the package reads
    the same u transposed, from the support of the row."""
    mats = operator_matrices(m, n)
    dim = len(monomial_basis(m, n, k))
    return {(i, j): {c: x for c in range(dim)
                     if (x := _dot(row, mats.generator_image(i, j, {c: 1}, k)))}
            for (i, j) in generator_pairs(m, n)}


def generator_failures(m: int, n: int, row: Vec, k: int) -> list:
    """Failures of check (a) by the forward loop over unit columns."""
    basis = monomial_basis(m, n, k)
    return [("T(L f) != 0", k, ij, str(SuperPolynomial.monomial(basis[c])))
            for ij, u in generator_row_products(row, m, n, k).items() for c in u]


def invariant_density_solutions(m: int, n: int, k_max: int) -> list[list[Fraction]]:
    """The invariant densities by the forward loop: every generator applied to
    every unit column, each image made a polynomial and integrated once per
    density theta^{2i}.  The package reads the same equations transposed,
    from one phi# row per density and degree."""
    densities = [[int(t == i) for t in range(n + 1)] for i in range(n + 1)]
    rows = []
    mats = operator_matrices(m, n)
    for k in range(0, k_max + 1):
        for (i, j) in generator_pairs(m, n):
            for c in range(len(monomial_basis(m, n, k))):
                col = mats.generator_image(i, j, {c: 1}, k)
                if not col:
                    continue
                Lf = vec_to_poly(col, m, n, k)
                vals = [_sphere_berezin(Lf, d, m, n) for d in densities]
                hs = {v.h for v in vals if not v.is_zero()}
                if not hs:
                    continue
                if len(hs) > 1:
                    raise AssertionError("mixed pi powers in one linear constraint")
                rows.append({t: v.q for t, v in enumerate(vals) if not v.is_zero()})
    kernel = kernel_of_equations(rows, n + 1)
    return [[row.get(i, Fraction(0)) for i in range(n + 1)] for row in kernel.rows]


# -- the phi# route by its definition ------------------------------------------------


def berezin_density_recurrence(m: int, n: int) -> list[Fraction]:
    """delta_i = (-1)^i C(m/2 - 1, i) by the recurrence
    delta_i = delta_{i-1} (i - 1 - (m/2 - 1)) / i."""
    e = Fraction(m, 2) - 1
    out = [Fraction(1)]
    for i in range(1, n + 1):
        out.append(out[-1] * (i - 1 - e) / i)
    return out


def berezin(f: SuperPolynomial, n: int) -> tuple[SuperPolynomial, ScaledRational]:
    """Coefficient of the top Grassmann monomial, with the pi^{-n} prefactor.

    Computed as the iterated left derivative d/dxg(2n) ... d/dxg(1) applied
    right-to-left, i.e. d/dxg(1) acts first.
    """
    out = f
    for j in range(1, 2 * n + 1):
        out = out.dxg(j)
    return out, ScaledRational(Fraction(1), -2 * n)


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
                d = bosonic_degree(mono) - 2 * j
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
