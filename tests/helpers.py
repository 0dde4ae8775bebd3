"""Reference helpers that only the tests call: matrix products, simple
reflections and inversion counts on a Weyl group, R-polynomials, a parser for
`poly_str`'s format, the multiplication and quotient maps of the graded ring
as matrices, the projective cover by reduction against a Fraction-normalized
RREF, the finite two-orbit test on a moment graph, and small accessors."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from momentsheaf.coxeter import Matrix, WeylElement, WeylGroup, bruhat_leq, mat_vec
from momentsheaf.exactalg import (
    LinearForm,
    LinearQuotient,
    Poly,
    QMatrix,
    Row,
    Subspace,
    Vector,
    dense,
    exact,
    monomial_basis,
    poly_from_coeffs,
    poly_to_coeffs,
    rref,
)
from momentsheaf.hecke_oracle import IntPoly, _padd, _pmul, _pshift
from momentsheaf.klpoly import KLPolynomial
from momentsheaf.moment_graph import MomentGraph
from momentsheaf.sheaf import (
    GammaSheaf,
    SectionSpace,
    VPathTransport,
    _degree_span,
    degree_matrix,
)

KL_ONE = KLPolynomial((1,))


def kl_degree(p: KLPolynomial) -> int:
    """The degree in q of a KL polynomial (-1 for zero)."""
    return len(p.coeffs) - 1


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def identity(W: WeylGroup) -> WeylElement:
    return W.elements[0]


def simple_matrices(W: WeylGroup) -> list[Matrix]:
    """The matrices of s_1, .., s_n on t* in root coordinates."""
    n, c = W.cartan.rank, W.cartan.cartan
    return [
        tuple(tuple(int(k == j) - (k == i) * c[j][i] for j in range(n)) for k in range(n))
        for i in range(n)
    ]


def inversions(W: WeylGroup, i: int) -> int:
    """Number of positive roots sent to negative roots by element i."""
    m = W.elements[i].matrix
    return sum(all(c <= 0 for c in mat_vec(m, b)) for b in W.positive_roots)


@lru_cache(maxsize=None)
def r_polynomial(W: WeylGroup, x: WeylElement | int, w: WeylElement | int) -> IntPoly:
    """R_{x,w} as a coefficient tuple; coefficients may be negative.  For
    v = ws < w: R_{x,w} = R_{xs,v} when xs < x, else (q-1) R_{x,v} + q R_{xs,v}."""
    x = x.index if isinstance(x, WeylElement) else x
    w = w.index if isinstance(w, WeylElement) else w
    if x == w:
        return (1,)
    if W.length(x) >= W.length(w) or not bruhat_leq(W, x, w):
        return ()
    s = W.right_descents(w)[0]
    v = W.rmult(w, s)
    xs = W.rmult(x, s)
    if W.length(xs) < W.length(x):
        return r_polynomial(W, xs, v)
    return _padd(_pmul((-1, 1), r_polynomial(W, x, v)), _pshift(r_polynomial(W, xs, v), 1))


def poly_parse(text: str, n: int) -> Poly:
    """Inverse of poly_str for the canonical format (also accepts '+-' sugar)."""
    text = text.strip()
    if text in ("0", ""):
        return {}
    text = text.replace("-", "+-")
    out: Poly = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:].strip()
        coeff = Fraction(1)
        exp = [0] * n
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor[0] == "x":
                if "^" in factor:
                    var, _, power = factor.partition("^")
                    exp[int(var[1:]) - 1] += int(power)
                else:
                    exp[int(factor[1:]) - 1] += 1
            else:
                coeff *= Fraction(factor)
        if neg:
            coeff = -coeff
        e = tuple(exp)
        v = out.get(e, 0) + coeff
        if v:
            out[e] = exact(v)
        else:
            out.pop(e, None)
    return out


def poly_scale(p: Poly, c: int | Fraction) -> Poly:
    c = exact(c)
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def as_poly(f: LinearForm) -> Poly:
    p: Poly = {}
    for i, c in enumerate(f.coeffs):
        if c:
            e = [0] * f.n
            e[i] = 1
            p[tuple(e)] = c
    return p


def multiply_map(f: LinearForm, n: int, d: int) -> QMatrix:
    """Matrix of multiplication by f from A_d to A_{d+1} in monomial bases."""
    src = monomial_basis(n, d)
    dst = monomial_basis(n, d + 1)
    rows: list[Row] = [{} for _ in range(len(dst))]
    for j, e in enumerate(src.exponents):
        for i, c in enumerate(f.coeffs):
            if not c:
                continue
            e2 = list(e)
            e2[i] += 1
            row = rows[dst.index(tuple(e2))]
            row[j] = row.get(j, 0) + c
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    return QMatrix(len(dst), len(src), rows)


def quotient_reduce(q: LinearQuotient, coeffs: Sequence[int | Fraction], d: int) -> Vector:
    """Reduce a degree-d coefficient vector of A into the quotient's basis."""
    p = poly_from_coeffs(monomial_basis(q.n, d), coeffs)
    return poly_to_coeffs(q.basis(d), q.reduce(p))


def from_columns(cols: Sequence[Sequence[int | Fraction]], nrows: int) -> QMatrix:
    rows: list[Row] = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in enumerate(col):
            if v:
                rows[i][j] = exact(v)
    return QMatrix(nrows, len(cols), rows)


def apply(m: QMatrix, vec: Sequence[int | Fraction]) -> Vector:
    return tuple(sum(v * vec[j] for j, v in r.items()) for r in m.rows)


def image_basis(m: QMatrix) -> list[Vector]:
    """RREF basis of the column space, as vectors of length nrows."""
    _, rows = rref(m.transpose().rows, m.nrows)
    return [dense(r, m.nrows) for r in rows]


def finite_two_orbit_test(g: MomentGraph, x: int) -> bool:
    """True iff every three distinct edges at x going up span a
    3-dimensional space of directions (then polygon relations cut out the
    boundary image exactly)."""
    dirs = [g.edges[k].direction for k in g.up[x]]
    if len(dirs) <= 2:
        return True
    for triple in combinations(dirs, 3):
        span = Subspace(g.dim_t, triple)
        if span.dim != 3:
            return False
    return True


def section_dims(space: SectionSpace) -> list[int]:
    return [len(space.bases[d]) for d in sorted(space.bases)]


def transport_degree_matrix(sheaf: GammaSheaf, t: VPathTransport, d: int) -> QMatrix:
    """The degree-d matrix of a V-path transport (M_x)_V -> (M_y)_V."""
    src = (sheaf.vertex_modules[t.x].gens, t.quotient)
    dst = (sheaf.vertex_modules[t.y].gens, t.quotient)
    return degree_matrix(sheaf.n, t.entries, src, dst, d)


def reference_projective_cover(
    sheaf: GammaSheaf, image: SectionSpace, d_max: int
) -> tuple[list[int], list[tuple[int, Vector]]]:
    """sheaf.projective_cover the way it was first written: each degree-d
    vector is reduced against the Fraction-normalized RREF of
    t* . image_{d-1} (Subspace.reduce), and the RREF of the nonzero
    residues gives the coset representatives."""
    gen_degrees: list[int] = []
    lifts: list[tuple[int, Vector]] = []
    lower: list[Row] = []
    for d in range(d_max + 1):
        total = image.layouts[d].total
        span = _degree_span(sheaf, image.layouts, lower, d)
        old = Subspace(total, [dense(r, total) for r in span])
        residues = [dense(r, total) for r in map(old.reduce, image.bases[d]) if r]
        reps = Subspace(total, residues)
        lower = old.rows + reps.rows
        for rep in reps.basis_vectors():
            gen_degrees.append(d)
            lifts.append((d, rep))
    return gen_degrees, lifts
