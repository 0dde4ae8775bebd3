"""Reference helpers that only the tests call: matrix products, simple
reflections and inversion counts on a Weyl group, the rational root datum
(the invariant form and the fundamental weights), the reflection edges and
Bruhat order of a Schubert graph by brute force, R-polynomials, a parser for
`poly_str`'s format, the multiplication and quotient maps of the graded ring
as matrices, the quotient A/V by a span of linear forms as edge rings
applied in turn, the projective cover by reduction against a
Fraction-normalized RREF, the finite two-orbit test on a moment graph, the
planar image slice by slice, the boundary images verify_pure reads solved
directly, a build past the proven degree bound, and small accessors.

It also holds the paper's cross-checks that no command runs: the Bruhat
interval and planar slice subgraphs, the structure sheaf, the substitution
check of a section space, transports along every V-path, and the polygon
relations, which cut out the boundary image exactly where the finite
two-orbit test holds."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from momentsheaf.coxeter import (
    CartanDatum,
    Matrix,
    Reflection,
    WeylElement,
    WeylGroup,
    bruhat_leq,
    mat_vec,
    minimal_coset_reps,
)
from momentsheaf.exactalg import (
    LinearQuotient,
    Poly,
    QMatrix,
    Row,
    Subspace,
    Vector,
    _row_axpy,
    dense,
    edge_ring,
    exact,
    graded_dim,
    kernel_basis,
    monomial_basis,
    poly_const,
    poly_from_coeffs,
    poly_to_coeffs,
    primitive_integer,
    rref,
    sparse,
)
from momentsheaf.errors import ResourceCapError, ValidationError
from momentsheaf.hecke_oracle import IntPoly, _padd, _pmul, _pshift
from momentsheaf.klpoly import KLPolynomial
from momentsheaf.moment_graph import (
    MomentGraph,
    Subgraph,
    _h_edges,
    _induced,
    _slice,
    planar_family,
    up_edges,
)
from momentsheaf.sheaf import (
    GammaSheaf,
    GradedFreeModule,
    RhoMap,
    SectionSpace,
    _degree_span,
    _poly_dot,
    _restrict,
    boundary_image,
    dangling_edges,
    degree_bounds,
    degree_matrix,
    section_layout,
    sections,
    sheaf_dump,
    split,
)

# the cap on increasing paths enumerated between two vertices
PATH_CAP = 10_000

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
    return sum(all(c <= 0 for c in mat_vec(m, r.positive_root)) for r in W.reflections)


def gram(cartan: CartanDatum) -> list[list[Fraction]]:
    """The W-invariant form on t* in root coordinates, C[i][j] d_j, with the
    symmetrizers d_j/d_i = C[j][i]/C[i][j] along the Dynkin bonds."""
    c, n = cartan.cartan, cartan.rank
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if j != i and c[i][j] and d[j] == 0:
                d[j] = d[i] * c[j][i] / c[i][j]
                todo.append(j)
    assert all(d), "disconnected Dynkin diagram"
    return [[c[i][j] * d[j] for j in range(n)] for i in range(n)]


def pairing(form: Sequence[Sequence[Fraction]], x: Sequence, y: Sequence) -> Fraction:
    """(x, y) under a form from gram."""
    return sum(x[i] * row[j] * y[j] for i, row in enumerate(form) for j in range(len(row)))


def fundamental_weights(cartan: CartanDatum) -> list[list[Fraction]]:
    """The rows of C^-1 by Fraction Gauss-Jordan: <w_i, a_j^v> = delta_ij."""
    n = cartan.rank
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(cartan.cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def bruhat_bits(W: WeylGroup, reps: Sequence[WeylElement]) -> tuple[int, ...]:
    """The order as the Schubert builder once took it: a bruhat_leq call for
    every pair of vertices."""
    return tuple(
        sum(1 << j for j, z in enumerate(reps) if bruhat_leq(W, y, z)) for y in reps
    )


def matrix_edges(W: WeylGroup, w: WeylElement, J: Sequence[int]) -> list[tuple]:
    """The reflection edges as (lower, upper, direction), by applying the
    matrix of every reflection to every orbit point of the sum of the
    fundamental weights off J."""
    reps = [y for y in minimal_coset_reps(W, J) if bruhat_leq(W, y, w)]
    weights = fundamental_weights(W.cartan)
    v = [sum(col) for col in zip(*(weights[i - 1] for i in range(1, len(weights) + 1)
                                   if i not in J))]
    points = [mat_vec(y.matrix, v) for y in reps]
    index = {p: i for i, p in enumerate(points)}
    edges = set()
    for i, p in enumerate(points):
        for refl in W.reflections:
            q = mat_vec(reflection_element(W, refl).matrix, p)
            j = index.get(q)
            if q != p and j is not None:
                lo, hi = sorted((i, j), key=lambda t: reps[t].length)
                edges.add((lo, hi, primitive_integer([a - b for a, b in zip(p, q)])))
    return sorted(edges)


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


def as_poly(f: Sequence[int | Fraction]) -> Poly:
    """The linear form with coefficient vector f."""
    p: Poly = {}
    for i, c in enumerate(f):
        if c:
            e = [0] * len(f)
            e[i] = 1
            p[tuple(e)] = c
    return p


def multiply_map(f: Sequence[int | Fraction], n: int, d: int) -> QMatrix:
    """Matrix of multiplication by the linear form with coefficient vector f
    from A_d to A_{d+1} in monomial bases."""
    src = monomial_basis(n, d)
    dst = monomial_basis(n, d + 1)
    rows: list[Row] = [{} for _ in range(len(dst))]
    for j, e in enumerate(src.exponents):
        for i, c in enumerate(f):
            if not c:
                continue
            e2 = list(e)
            e2[i] += 1
            row = rows[dst.exponents.index(tuple(e2))]
            row[j] = row.get(j, 0) + c
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    return QMatrix(len(dst), len(src), rows)


class SpanQuotient:
    """A/V for the span V of independent linear forms, the model the
    V-path transports, the polygon relations and the reference
    monotonicity test read: one-form edge rings applied in turn, each form
    first reduced by the rings before it, so no later ring brings back an
    earlier ring's pivot."""

    def __init__(self, forms: Sequence[Sequence[int | Fraction]]):
        self.n = n = len(forms[0])
        self.rings: list[LinearQuotient] = []
        for form in forms:
            rest = self.reduce({tuple(int(i == j) for i in range(n)): c
                                for j, c in enumerate(form) if c})
            if not rest:
                raise ValueError("linear forms are dependent")
            alpha = [0] * n
            for e, c in rest.items():
                alpha[e.index(1)] = c
            self.rings.append(LinearQuotient(alpha))
        self.pivots = tuple(sorted(ring.pivot for ring in self.rings))

    def dim(self, d: int) -> int:
        return graded_dim(self.n - len(self.rings), d)

    def basis(self, d: int):
        return monomial_basis(self.n, d, self.pivots)

    def reduce(self, p: Poly) -> Poly:
        for ring in self.rings:
            p = ring.reduce(p)
        return p

    def reduce_monomial(self, mono: tuple[int, ...]) -> Poly:
        return self.reduce({mono: 1})


def quotient_reduce(
    q: LinearQuotient | SpanQuotient, coeffs: Sequence[int | Fraction], d: int
) -> Vector:
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


def vertex(g: MomentGraph, label: str) -> int:
    """The index of the vertex labelled label."""
    return g.labels.index(label)


def reflection_element(W: WeylGroup, refl: Reflection) -> WeylElement:
    """The group element of a reflection, s(l) = l - (coroot . l) beta,
    looked up by its matrix."""
    m = tuple(
        tuple(int(k == j) - b * c for j, c in enumerate(refl.coroot))
        for k, b in enumerate(refl.positive_root)
    )
    return W.elements[W.index_of[m]]


def set_rho_corner(sheaf: GammaSheaf, k: int, entry: Poly) -> None:
    """Replace the (0, 0) entry of rho at the lower end of edge k."""
    entries = [list(row) for row in sheaf.rho[k].entries]
    entries[0][0] = entry
    sheaf.rho[k] = RhoMap(tuple(tuple(row) for row in entries))


def zero_rho_corner(sheaf: GammaSheaf, x: int) -> None:
    """Set the (0, 0) entry of rho to zero on every up edge of x."""
    for k in sheaf.graph.up[x]:
        set_rho_corner(sheaf, k, {})


# -- subgraphs -----------------------------------------------------------------


def interval(g: MomentGraph, x: int, y: int) -> Subgraph:
    """The Bruhat interval [x, y] and the edges inside it."""
    return _induced(g, [j for j in range(g.n_vertices) if g.leq(x, j) and g.leq(j, y)])


def planar_slice(g: MomentGraph, x: int, h: Subspace) -> Subgraph:
    """The subgraph above x of the x-component of the graph of the edges
    with direction in the 2-plane h, together with its U_x edges (dangling)."""
    return _slice(g, x, _h_edges(g, h))


# -- the structure sheaf and a substitution check of sections -----------------


def structure_sheaf(g: MomentGraph) -> GammaSheaf:
    """The sheaf of rings: A at every vertex, A_L at every edge, quotient
    restrictions; its sections compute equivariant ordinary cohomology."""
    sheaf = GammaSheaf(graph=g)
    unit = GradedFreeModule((0,))
    for v in range(g.n_vertices):
        sheaf.vertex_modules[v] = unit
    for k in range(len(g.edges)):
        sheaf.rho[k] = RhoMap(((poly_const(g.dim_t, 1),),))
    return sheaf


def check_sections(sheaf: GammaSheaf, sub: Subgraph, space: SectionSpace) -> bool:
    """Re-verify, by direct polynomial substitution, that every stored basis
    vector of the sections over sub satisfies every incidence constraint
    exactly: rho of the value at the lower end, and the value at the upper
    end reduced into the edge ring."""
    g = sheaf.graph
    vset = set(sub.vertices)
    for d, vecs in space.bases.items():
        layout = space.layouts[d]
        for vec in vecs:
            values = {
                comp: split(sheaf.blocks(*comp, d), vec[off : off + size])
                for comp, off, size in zip(layout.components, layout.offsets, layout.sizes)
            }
            for k in sub.edges:
                e = g.edges[k]
                sides = []
                if e.lower in vset:
                    sides.append(_restrict(sheaf, k, values[("v", e.lower)]))
                if e.upper in vset:
                    ring = edge_ring(e.direction)
                    sides.append(tuple(ring.reduce(p) for p in values[("v", e.upper)]))
                if ("e", k) in values:
                    sides.append(values[("e", k)])
                if any(other != sides[0] for other in sides[1:]):
                    return False
    return True


# -- V-paths and transports ----------------------------------------------------


def increasing_paths(
    g: MomentGraph, start: int, goal: int, allowed: set[int], cap: int = PATH_CAP
) -> tuple[list[tuple[int, ...]], bool]:
    """All increasing edge paths start -> goal inside the allowed edge set,
    up to cap paths, in the order of a depth-first walk that takes the up
    edges of each vertex in reverse order; the flag reports truncation."""
    paths: list[tuple[int, ...]] = []
    truncated = False
    stack: list[tuple[int, tuple[int, ...]]] = [(start, ())]
    while stack:
        v, trail = stack.pop()
        if v == goal:
            if len(paths) >= cap:
                truncated = True
                break
            paths.append(trail)
            continue
        for k in g.up[v]:
            if k in allowed and g.leq(g.edges[k].upper, goal):
                stack.append((g.edges[k].upper, trail + (k,)))
    return paths, truncated


def _transport_entries(
    sheaf: GammaSheaf, quotient: SpanQuotient, start: int, path: Sequence[int]
) -> list[list[Poly]]:
    """Entries (over A_V) of the composite transport M_start -> M_end along
    an increasing path; the upper restrictions are quotient maps, so each
    step is rho at the lower end, its entries taken from edge-ring
    coordinates back to A (representative) and reduced into A_V."""
    rank = sheaf.vertex_modules[start].rank
    one = {(0,) * sheaf.n: 1}
    entries = [[one if i == j else {} for i in range(rank)] for j in range(rank)]
    v = start
    for k in path:
        e = sheaf.graph.edges[k]
        if e.lower != v:
            raise ValidationError("path is not increasing from the start vertex")
        ring = edge_ring(e.direction)
        step = [[quotient.reduce(ring.representative(p)) for p in row]
                for row in sheaf.rho[k].entries]
        entries = [
            [
                _poly_dot(step_row, [entries[t][i] for t in range(len(entries))])
                for i in range(rank)
            ]
            for step_row in step
        ]
        v = e.upper
    return entries


@dataclass
class VPathTransport:
    """The induced map (M_x)_V -> (M_y)_V along V-paths."""

    x: int
    y: int
    quotient: SpanQuotient
    entries: list[list[Poly]]
    path_independent: bool
    truncated: bool


def vpath_map(
    sheaf: GammaSheaf,
    x: int,
    y: int,
    v_span: Sequence[Sequence[int | Fraction]],
) -> VPathTransport:
    """Transport (M_x)_V -> (M_y)_V along V-paths (all edge directions in V),
    checking independence of the chosen path up to PATH_CAP paths."""
    g = sheaf.graph
    span = Subspace(g.dim_t, v_span)
    if span.dim == 0:
        raise ValidationError("V must be a nonzero subspace")
    quotient = SpanQuotient(span.basis_vectors())
    paths, truncated = increasing_paths(g, x, y, set(_h_edges(g, span)))
    if not paths:
        raise ValidationError(
            f"no V-path from {g.labels[x]} to {g.labels[y]} inside the subspace"
        )
    transports = [_transport_entries(sheaf, quotient, x, p) for p in paths]
    independent = all(t == transports[0] for t in transports[1:])
    return VPathTransport(x, y, quotient, transports[0], independent, truncated)


def transport_degree_matrix(sheaf: GammaSheaf, t: VPathTransport, d: int) -> QMatrix:
    """The degree-d matrix of a V-path transport (M_x)_V -> (M_y)_V."""
    src = (sheaf.vertex_modules[t.x].gens, t.quotient)
    dst = (sheaf.vertex_modules[t.y].gens, t.quotient)
    return degree_matrix(sheaf.n, t.entries, src, dst, d)


# -- polygon relations (path-transport upper bound for the boundary image) ----


def polygon_image(sheaf: GammaSheaf, x: int, d_max: int) -> SectionSpace:
    """Subspace of M(U_x) cut out by the path-transport relations only: for
    every pair of upward edges, transports into any common upper vertex
    modulo the span of the two directions must agree (over all V-paths).

    Contains the boundary image always; equals it when the finite-two-orbit
    criterion holds at x.
    """
    g = sheaf.graph
    target = up_edges(g, x)
    up = dangling_edges(g, target)
    layouts = {d: section_layout(sheaf, target, d) for d in range(d_max + 1)}
    rows_by_degree: dict[int, list[Row]] = {d: [] for d in range(d_max + 1)}

    for a in range(len(up)):
        for b in range(a + 1, len(up)):
            k1, k2 = up[a], up[b]
            span = Subspace(g.dim_t, [g.edges[k1].direction, g.edges[k2].direction])
            quotient = SpanQuotient(span.basis_vectors())
            allowed = set(_h_edges(g, span))
            starts = {k1: g.edges[k1].upper, k2: g.edges[k2].upper}
            # enumerate V-paths from x with first edge k1 or k2, grouped by target
            by_target: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
            truncated = False
            for k, y0 in starts.items():
                for t in (t for t in range(g.n_vertices) if g.leq(y0, t)):
                    paths, trunc = increasing_paths(g, y0, t, allowed)
                    truncated = truncated or trunc
                    for p in paths:
                        by_target.setdefault(t, []).append((k, p))
            if truncated:
                raise ResourceCapError("polygon path enumeration exceeded cap")
            for t, tagged in sorted(by_target.items()):
                if len(tagged) < 2:
                    continue
                mats = [(k, _transport_entries(sheaf, quotient, starts[k], p)) for k, p in tagged]
                for d in range(d_max + 1):
                    layout = layouts[d]
                    # take the edge value back to A, reduce it into A_V,
                    # then transport it to t
                    deg_mats = [
                        (
                            layout.slot("e", k)[0],
                            degree_matrix(
                                sheaf.n,
                                _from_ring_coordinates(sheaf.piece("e", k), entries, d),
                                sheaf.piece("e", k),
                                (sheaf.vertex_modules[t].gens, quotient),
                                d,
                            ),
                        )
                        for k, entries in mats
                    ]
                    off1, first_m = deg_mats[0]
                    for off2, other_m in deg_mats[1:]:
                        for r in range(first_m.nrows):
                            # two paths may leave x along the same edge
                            row = {off1 + c: v for c, v in first_m.rows[r].items()}
                            _row_axpy(row, 1, other_m.rows[r], off2)
                            if row:
                                rows_by_degree[d].append(row)
    bases = {
        d: kernel_basis(QMatrix(len(rows), layouts[d].total, rows))
        for d, rows in rows_by_degree.items()
    }
    return SectionSpace(layouts, bases)


def _from_ring_coordinates(piece, entries: list[list[Poly]], d: int) -> list[list[Poly]]:
    """entries, to be applied in degree d to a value of the edge piece read
    as a polynomial of A: a source block of generator degree g holds ring
    coordinates of degree d - g, each s^(d - g) times its representative's,
    so its column of entries is divided by that.  A block with g > d is
    empty and keeps its entries."""
    gens, ring = piece
    return [
        [{e: exact(Fraction(c, ring.scale ** max(d - g, 0))) for e, c in p.items()}
         for g, p in zip(gens, row)]
        for row in entries
    ]


def reference_planar_image(sheaf: GammaSheaf, x: int, d_max: int) -> dict[int, Subspace]:
    """sheaf.planar_image slice by slice: the sections over each planar
    slice, projected onto its dangling coordinates; the annihilator of that
    projection, moved into M(U_x); and, per degree, the kernel of all the
    slices' annihilators together."""
    g = sheaf.graph
    per_slice = [(sub, sections(sheaf, sub, d_max)) for sub in planar_family(g, x)]
    out = {}
    for d in range(d_max + 1):
        layout = section_layout(sheaf, up_edges(g, x), d)
        relations: list[Row] = []
        for sub, secs in per_slice:
            sub_layout = secs.layouts[d]
            n_vertices = len(sub.vertices)
            nv = sum(sub_layout.sizes[:n_vertices])
            projected = [sparse(vec[nv:]) for vec in secs.bases[d]]
            annihilator = kernel_basis(QMatrix(len(projected), sub_layout.total - nv, projected))
            edges = zip(sub_layout.components[n_vertices:], sub_layout.sizes[n_vertices:])
            to_full = [layout.slot(*comp)[0] + i for comp, size in edges for i in range(size)]
            relations += ({to_full[c]: v for c, v in sparse(a).items()} for a in annihilator)
        kernel = kernel_basis(QMatrix(len(relations), layout.total, relations))
        out[d] = Subspace(layout.total, kernel)
    return out


def reference_projective_cover(
    sheaf: GammaSheaf, layouts, bases, d_max: int
) -> tuple[list[int], list[tuple[int, Vector]]]:
    """sheaf.projective_cover the way it was first written: each degree-d
    vector is reduced against the Fraction-normalized RREF of
    t* . image_{d-1} (Subspace.reduce), and the RREF of the nonzero
    residues gives the coset representatives."""
    gen_degrees: list[int] = []
    lifts: list[tuple[int, Vector]] = []
    lower: list[Row] = []
    for d in range(d_max + 1):
        total = layouts[d].total
        span = _degree_span(sheaf, layouts, lower, d)
        old = Subspace(total, [dense(r, total) for r in span])
        residues = [dense(r, total) for r in map(old.reduce, bases[d]) if r]
        reps = Subspace(total, residues)
        lower = old.rows + reps.rows
        for rep in reps.basis_vectors():
            gen_degrees.append(d)
            lifts.append((d, rep))
    return gen_degrees, lifts


def solved_images(sheaf: GammaSheaf, degree_bound: int | None = None) -> dict[int, SectionSpace]:
    """boundary_image, solved directly to its bound at every vertex with up
    edges: the images verify_pure reads, without the certificate."""
    g = sheaf.graph
    bounds = degree_bounds(g, degree_bound)
    return {x: boundary_image(sheaf, x, bounds[x]) for x in range(g.n_vertices) if g.up[x]}


def built_past_the_bound(lab, family: str, rank: int, word: str = "longest") -> GammaSheaf:
    """The canonical sheaf of a Schubert graph built to the uniform bound one
    past its largest proven one, so that every vertex is computed at least
    one degree past its own: no stalk has a generator above its own KL bound,
    and the sheaf is the proven-bound build, byte for byte."""
    bounds = degree_bounds(lab.graph(family, rank, word))
    sheaf = lab.sheaf(family, rank, word, degree_bound=max(bounds) + 1)
    for x, bound in enumerate(bounds):
        assert all(d <= bound for d in sheaf.vertex_modules[x].gens), (x, bound)
    assert sheaf_dump(sheaf) == sheaf_dump(lab.sheaf(family, rank, word))
    return sheaf
