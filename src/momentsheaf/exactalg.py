"""Exact rational linear algebra and degreewise models of graded polynomial rings.

Everything here works over Q, exactly, with one scalar convention: a
polynomial coefficient, matrix entry or vector coordinate is a plain int when
it is integral and a `fractions.Fraction` only otherwise, never a float
(`exact` puts a scalar in that form).  On Schubert graphs every scalar is
integral, so the engine runs on ints there.  The elimination kernel is
fraction-free and rref divides only in its final normalization, by the
pivot.  Edge rings divide nowhere: an integer polynomial reduces to an
integer one.

The graded ring is A = Q[x1..xn] with every variable in internal degree 1,
and the edge ring A/(alpha) of one nonzero linear form, given by its
coefficient vector, is modelled as the polynomial ring in the variables
other than its pivot, reached by an integral substitution (LinearQuotient),
so that each graded piece is a plain finite-dimensional Q-vector space with
a fixed monomial basis.

Determinism contract: monomial bases use graded-lex order, Gaussian
elimination processes columns left to right (the reduced row echelon form is
unique, so pivot-row selection only affects speed, not results), and every
basis returned by the kernel and subspace routines is the canonical RREF
basis.
Identical inputs therefore give bit-identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, NamedTuple, Sequence

# Dense vector over Q.
Vector = tuple[int | Fraction, ...]

# Multivariate polynomial: exponent tuple -> nonzero coefficient.
Poly = dict[tuple[int, ...], int | Fraction]

# Sparse row: column index -> nonzero coefficient.
Row = dict[int, int | Fraction]


def exact(v: int | Fraction) -> int | Fraction:
    """v as an int when it is integral, else as the Fraction it is."""
    return v.numerator if v.denominator == 1 else v


# ---------------------------------------------------------------------------
# integer vectors and normalization


def primitive_integer(vec: Sequence[int | Fraction]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0.

    This is the canonical form used for moment-graph edge directions; it is
    idempotent and erases any rational multiple.  An all-int vector (every
    Schubert-graph direction) skips the denominators and is divided by the
    gcd of its entries; the zero vector, whose gcd is 0, raises ValueError.
    """
    if all(type(v) is int for v in vec):
        ints = vec
    else:
        denom_lcm = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (denom_lcm // v.denominator) for v in vec]
    g = gcd(*ints)
    if not g:
        raise ValueError("cannot normalize the zero vector")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


# ---------------------------------------------------------------------------
# monomial bases


class MonomialBasis:
    """Ordered basis of the degree-d piece of Q[x1..xn], optionally skipping
    variables (used for edge rings A_L where pivot variables are eliminated).

    Exponent tuples always have length n; skipped variables carry exponent 0.
    Order is graded-lex with x1 > x2 > ... > xn.
    """

    __slots__ = ("n", "d", "skip", "exponents")

    def __init__(
        self, n: int, d: int, skip: tuple[int, ...], exponents: tuple[tuple[int, ...], ...]
    ) -> None:
        self.n = n
        self.d = d
        self.skip = skip
        self.exponents = exponents

    def __len__(self) -> int:
        return len(self.exponents)


@lru_cache(maxsize=None)
def monomial_basis(n: int, d: int, skip: tuple[int, ...] = ()) -> MonomialBasis:
    """The degree-d monomials in the variables {1..n} minus `skip` (0-based)."""
    if d < 0:
        return MonomialBasis(n, d, skip, ())
    active = [i for i in range(n) if i not in skip]

    def gen(pos: int, remaining: int) -> Iterable[tuple[int, ...]]:
        if pos == len(active) - 1:
            e = [0] * n
            e[active[pos]] = remaining
            yield tuple(e)
            return
        for k in range(remaining, -1, -1):
            for tail in gen(pos + 1, remaining - k):
                e = list(tail)
                e[active[pos]] = k
                yield tuple(e)

    if not active:
        exps = ((tuple([0] * n),) if d == 0 else ())
        return MonomialBasis(n, d, skip, exps)
    return MonomialBasis(n, d, skip, tuple(gen(0, d)))


@lru_cache(maxsize=None)
def _basis_index(n: int, d: int, skip: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    basis = monomial_basis(n, d, skip)
    return {e: i for i, e in enumerate(basis.exponents)}


def graded_dim(n: int, d: int) -> int:
    """dim A_d = C(d+n-1, n-1) for A = Q[x1..xn]; n = 0 is the ground field."""
    if d < 0:
        return 0
    if n == 0:
        return 1 if d == 0 else 0
    return comb(d + n - 1, n - 1)


# ---------------------------------------------------------------------------
# polynomials as exponent dicts


def poly_const(n: int, c: int | Fraction) -> Poly:
    c = exact(c)
    return {tuple([0] * n): c} if c else {}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_from_coeffs(basis: MonomialBasis, coeffs: Sequence[int | Fraction]) -> Poly:
    return {e: exact(c) for e, c in zip(basis.exponents, coeffs) if c}


def poly_to_coeffs(basis: MonomialBasis, p: Poly) -> Vector:
    vec = [0] * len(basis)
    idx = _basis_index(basis.n, basis.d, basis.skip)
    for e, c in p.items():
        vec[idx[e]] = c
    return tuple(vec)


def poly_str(p: Poly) -> str:
    """Canonical polynomial string, e.g. '2*x1^2 - 1/3*x1*x2'."""
    if not p:
        return "0"
    names = [f"x{i + 1}" for i in range(len(next(iter(p))))]
    terms = []
    for e in sorted(p, key=lambda e: (-sum(e), tuple(-k for k in e))):
        c = p[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        body = "*".join(factors)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, term))
    first_sign, first_term = terms[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in terms[1:]:
        out += f" {sign} {term}"
    return out


# ---------------------------------------------------------------------------
# edge rings


class LinearQuotient:
    """Normal-form model of the edge ring A/(alpha) of one nonzero linear
    form alpha, given by its coefficient vector, over the integers.

    alpha is first scaled to primitive integers (primitive_integer), which
    changes no ideal.  The pivot is the largest index p with alpha_p != 0,
    s = |alpha_p| is the scale, and the quotient is the polynomial ring in
    new variables u_j (j != p), each written as the monomial x_j: the ring
    isomorphism sends x_j to s * u_j and x_p to
    -sign(alpha_p) * sum_{j != p} alpha_j u_j, under which alpha goes to
    s * sum alpha_j u_j - |alpha_p| * sum alpha_j u_j = 0.  An integer
    polynomial therefore reduces to an integer one, and no division runs.

    The rational model of the same ring substitutes x_p by
    -sum_{j != p} (alpha_j / alpha_p) x_j and keeps the other x_j; a
    degree-d element's coordinates here are s^d times its coordinates there,
    so a unit pivot (s = 1) gives that model exactly.  reduce is a ring map
    with kernel alpha * A_{d-1} on A_d, but it is not idempotent when s > 1
    (a pivot-free monomial of degree d gains s^d): an element already in
    ring coordinates is never reduced again, and representative takes it
    back to A.
    """

    def __init__(self, alpha: Sequence[int | Fraction]):
        self.n = n = len(alpha)
        alpha = primitive_integer(alpha)
        self.pivot = p = max(j for j, c in enumerate(alpha) if c)
        self.scale = abs(alpha[p])
        sign = 1 if alpha[p] > 0 else -1
        image = {
            tuple(int(i == j) for i in range(n)): -sign * c
            for j, c in enumerate(alpha)
            if c and j != p
        }
        self._powers: list[Poly] = [poly_const(n, 1), image]
        self._monomials: dict[tuple[int, ...], Poly] = {}

    def dim(self, d: int) -> int:
        return graded_dim(self.n - 1, d)

    def basis(self, d: int) -> MonomialBasis:
        return monomial_basis(self.n, d, (self.pivot,))

    def reduce_monomial(self, mono: tuple[int, ...]) -> Poly:
        """Normal form of one monomial of A, memoized on the ring: the other
        variables contribute s to the power of their degree, and x_p^k the
        k-th power of x_p's image.  The returned polynomial is shared
        between callers, who must not mutate it."""
        out = self._monomials.get(mono)
        if out is None:
            p, k = self.pivot, mono[self.pivot]
            powers = self._powers
            while len(powers) <= k:
                powers.append(poly_mul(powers[-1], powers[1]))
            rest = {mono[:p] + (0,) + mono[p + 1 :]: self.scale ** (sum(mono) - k)}
            out = self._monomials[mono] = poly_mul(rest, powers[k])
        return out

    def reduce(self, p: Poly) -> Poly:
        """Normal form of p, a polynomial of A, summed from reduce_monomial."""
        acc: Poly = {}
        for mono, c in p.items():
            for e, r in self.reduce_monomial(mono).items():
                s = acc.get(e, 0) + c * r
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return acc

    def representative(self, p: Poly) -> Poly:
        """The pivot-free polynomial of A that reduce sends to p, an element
        in ring coordinates: a term of degree m divided by s^m, which is p's
        normal form in the rational model.  p itself when s = 1."""
        s = self.scale
        if s == 1:
            return p
        return {e: exact(Fraction(c, s ** sum(e))) for e, c in p.items()}


@lru_cache(maxsize=None)
def edge_ring(direction: tuple[int, ...]) -> LinearQuotient:
    """The edge ring A_L = A/(alpha) of one (normalized, nonzero) edge
    direction, built once per process: every edge along that direction, in
    every sheaf, shares it and its memoized monomial reductions."""
    return LinearQuotient(direction)


# ---------------------------------------------------------------------------
# sparse matrices over Q


class QMatrix(NamedTuple):
    """Sparse rational matrix; rows are dicts with no stored zeros."""

    nrows: int
    ncols: int
    rows: list[Row]

    def column(self, j: int) -> Vector:
        return tuple(self.rows[i].get(j, 0) for i in range(self.nrows))

    def transpose(self) -> "QMatrix":
        rows: list[Row] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                rows[j][i] = v
        return QMatrix(self.ncols, self.nrows, rows)


def dense(row: Row, n: int) -> Vector:
    """A sparse row as a vector of length n."""
    vec = [0] * n
    for j, v in row.items():
        vec[j] = v
    return tuple(vec)


def sparse(vec: Sequence[int | Fraction]) -> Row:
    """A vector as a sparse row."""
    return {j: v for j, v in enumerate(vec) if v}


def _row_axpy(target: Row, factor: int | Fraction, source: Row, offset: int = 0) -> None:
    """target -= factor * source, with source's columns shifted by offset,
    dropping created zeros."""
    for c, v in source.items():
        c += offset
        nv = target.get(c, 0) - factor * v
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def _content_reduce(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries; row itself when that is 1 or
    row is empty."""
    g = gcd(*row.values())
    if g <= 1:
        return row
    return {c: v // g for c, v in row.items()}


def _row_step(row: dict[int, int], piv: dict[int, int], col: int) -> dict[int, int]:
    """row with its entry at col cleared against piv, whose pivot is at col:
    (pv/g) * row - (rc/g) * piv for pv = piv[col], rc = row[col] and
    g = gcd(pv, rc) > 0, content-reduced; empty when zero."""
    rc, pv = row[col], piv[col]
    g = gcd(rc, pv)
    rc, pv = rc // g, pv // g
    new = dict(row) if pv == 1 else {c: v * pv for c, v in row.items()}
    for c, v in piv.items():
        nv = new.get(c, 0) - rc * v
        if nv:
            new[c] = nv
        else:
            new.pop(c, None)
    return _content_reduce(new)


def _int_row(row: Row) -> dict[int, int]:
    """row scaled to coprime integers; a row of nonzero ints is only
    content-reduced, so a primitive one comes back as it is."""
    if all(type(v) is int and v for v in row.values()):
        return _content_reduce(row)
    denom = 1
    for v in row.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    return _content_reduce(
        {c: v.numerator * (denom // v.denominator) for c, v in row.items() if v}
    )


def forward_eliminate(
    rows: Iterable[Row], ncols: int
) -> tuple[list[int], list[dict[int, int]], list[dict[int, int]]]:
    """The forward phase of rref over the columns below ncols.

    Returns the pivot columns, the echelon rows (integer, with a positive
    pivot, not yet reduced above it) and the rows left over, which have no
    entry left in any column below ncols.  Columns at or past ncols are
    carried along but never chosen as pivots, so the leftover rows span the
    part of the row space that vanishes on the first ncols columns.

    Rows wait in buckets by leading column (their smallest, if below ncols);
    a heap holds the columns with waiting rows.  Columns are popped in
    increasing order, and only that column's bucket is touched: among its
    rows the sparsest (Markowitz-style, ties by insertion order) becomes the
    pivot, negated once if its leading entry is negative, and every other
    row is eliminated against it and filed under its new, larger leading
    column.  Elimination runs on integer rows by cross-multiplication scaled
    by the gcd of the two leading entries (a pivot of 1 costs a plain
    subtraction) and content reduction, which keeps entry growth and
    per-step cost down on the larger graded pieces.  Leftover rows keep
    their insertion order.

    No row passed in is mutated, and the rows returned may be the very
    objects passed in, so callers must not mutate either.
    """
    work: list[dict[int, int] | None] = [r for r in map(_int_row, rows) if r]
    buckets: dict[int, list[int]] = {}
    for i, r in enumerate(work):
        lead = min(r)
        if lead < ncols:
            buckets.setdefault(lead, []).append(i)
    waiting = list(buckets)
    heapify(waiting)
    pivots: list[int] = []
    echelon: list[dict[int, int]] = []
    while waiting:
        col = heappop(waiting)
        bucket = buckets.pop(col)
        best = min(bucket, key=lambda i: (len(work[i]), i))
        piv = work[best]
        if piv[col] < 0:
            piv = {c: -v for c, v in piv.items()}
        work[best] = None
        for i in bucket:
            if i == best:
                continue
            new = _row_step(work[i], piv, col)
            if not new:
                work[i] = None
                continue
            work[i] = new
            lead = min(new)
            if lead < ncols:
                if lead not in buckets:
                    buckets[lead] = []
                    heappush(waiting, lead)
                buckets[lead].append(i)
        pivots.append(col)
        echelon.append(piv)
    return pivots, echelon, [r for r in work if r is not None]


def rref(rows: Iterable[Row], ncols: int) -> tuple[list[int], list[Row]]:
    """Reduced row echelon form of a sparse row list.

    The forward phase (forward_eliminate over every column) is followed by
    one deferred back-substitution pass, last pivot first, and a final
    normalization that divides each row by its pivot: an entry the pivot
    divides becomes an int, any other a Fraction.  RREF is unique, so the
    pivot-row choice of the forward phase affects fill-in only, not results.
    """
    pivots, echelon, _ = forward_eliminate(rows, ncols)
    for j in range(len(echelon) - 1, -1, -1):
        r = echelon[j]
        for jj in range(j + 1, len(echelon)):
            col = pivots[jj]
            if col in r:
                r = _row_step(r, echelon[jj], col)
        echelon[j] = r
    final: list[Row] = []
    for col, r in zip(pivots, echelon):
        pv = r[col]
        final.append({c: Fraction(v, pv) if v % pv else v // pv for c, v in r.items()})
    return pivots, final


def kernel_basis(m: QMatrix) -> list[Vector]:
    """Canonical basis of the right kernel {x : m x = 0}."""
    pivots, rows = rref(m.rows, m.ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [0] * m.ncols
        vec[free] = 1
        for p, r in zip(pivots, rows):
            c = r.get(free)
            if c:
                vec[p] = -c
        basis.append(tuple(vec))
    return basis


def kernel_echelon_basis(rows: Sequence[Row], ncols: int) -> list[Vector]:
    """RREF basis of {x : r . x = 0 for every row r}, from one elimination.

    With the columns reversed, each canonical kernel vector has its 1 at its
    own free column and its other entries at pivot columns to the left of
    it.  Reversed back, every vector leads with a 1 at a free column and is
    zero at every other free column: that is the reduced echelon basis.
    """
    last = ncols - 1
    flipped = [{last - c: v for c, v in r.items()} for r in rows]
    basis = kernel_basis(QMatrix(len(flipped), ncols, flipped))
    return [vec[::-1] for vec in reversed(basis)]


def matrix_rank(m: QMatrix) -> int:
    """The number of pivots of the forward phase; the rank needs no
    back-substitution."""
    return len(forward_eliminate(m.rows, m.ncols)[0])


# ---------------------------------------------------------------------------
# subspaces of Q^N


class Subspace:
    """A subspace of Q^N held in RREF (pivots and rows); supports exact
    membership, reduction modulo the subspace and equality."""

    def __init__(self, ambient: int, vectors: Iterable[Sequence[int | Fraction]] = ()):
        self.ambient = ambient
        self.pivots, self.rows = rref(map(sparse, vectors), ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_vectors(self) -> list[Vector]:
        return [dense(r, self.ambient) for r in self.rows]

    def reduce(self, vec: Sequence[int | Fraction]) -> Row:
        """Residue of vec after eliminating all pivot coordinates."""
        residue = sparse(vec)
        for p, r in zip(self.pivots, self.rows):
            if p in residue:
                _row_axpy(residue, residue[p], r)
        return residue

    def contains(self, vec: Sequence[int | Fraction]) -> bool:
        return not self.reduce(vec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )
