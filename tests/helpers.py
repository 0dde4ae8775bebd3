"""Reference helpers that only the tests call: matrix products, simple
reflections and inversion counts on a Weyl group, R-polynomials, a parser for
`poly_str`'s format, the multiplication and quotient maps of the graded ring
as matrices, the projective cover by reduction against a Fraction-normalized
RREF, the finite two-orbit test on a moment graph, the planar image slice by
slice, and small accessors.

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

from momentsheaf.coxeter import Matrix, Reflection, WeylElement, WeylGroup, bruhat_leq, mat_vec
from momentsheaf.exactalg import (
    LinearForm,
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
    kernel_basis,
    monomial_basis,
    poly_from_coeffs,
    poly_to_coeffs,
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
    EdgeModule,
    GammaSheaf,
    GradedFreeModule,
    RhoMap,
    SectionSpace,
    _assert_identity_upper,
    _degree_span,
    _identity_rho,
    _normal_form,
    _poly_dot,
    _restrict,
    dangling_edges,
    degree_matrix,
    section_layout,
    sections,
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
            row = rows[dst.exponents.index(tuple(e2))]
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


def zero_rho_corner(sheaf: GammaSheaf, x: int) -> None:
    """Set the (0, 0) entry of rho to zero on every up edge of x."""
    for k in sheaf.graph.up[x]:
        entries = [list(row) for row in sheaf.rho[(x, k)].entries]
        entries[0][0] = {}
        sheaf.rho[(x, k)] = RhoMap(tuple(tuple(row) for row in entries))


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
    for k, e in enumerate(g.edges):
        sheaf.edge_modules[k] = EdgeModule(unit, edge_ring(e.direction))
        sheaf.rho[(e.lower, k)] = _identity_rho(1, g.dim_t)
        sheaf.rho[(e.upper, k)] = _identity_rho(1, g.dim_t)
    return sheaf


def check_sections(sheaf: GammaSheaf, space: SectionSpace) -> bool:
    """Re-verify, by direct polynomial substitution, that every stored basis
    vector satisfies every incidence constraint exactly."""
    g = sheaf.graph
    sub = space.subgraph
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
                sides = [
                    _restrict(sheaf, v, k, values[("v", v)])
                    for v in (e.lower, e.upper)
                    if v in vset
                ]
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
    up to cap paths, in the order of sheaf._first_path's walk; the flag
    reports truncation."""
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
    sheaf: GammaSheaf, quotient: LinearQuotient, start: int, path: Sequence[int]
) -> list[list[Poly]]:
    """Entries (over A_V) of the composite transport M_start -> M_end along
    an increasing path; inverts the identity upper restrictions."""
    rank = sheaf.vertex_modules[start].rank
    entries = [list(row) for row in _identity_rho(rank, sheaf.n).entries]
    v = start
    for k in path:
        e = sheaf.graph.edges[k]
        if e.lower != v:
            raise ValidationError("path is not increasing from the start vertex")
        _assert_identity_upper(sheaf, e.upper, k)
        step = [[_normal_form(quotient, p) for p in row] for row in sheaf.rho[(v, k)].entries]
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
    quotient: LinearQuotient
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
    quotient = LinearQuotient([LinearForm(w) for w in span.basis_vectors()])
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
            quotient = LinearQuotient([LinearForm(w) for w in span.basis_vectors()])
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
                    # reduce the edge value into A_V, then transport it to t
                    deg_mats = [
                        (
                            layout.slot("e", k)[0],
                            degree_matrix(
                                sheaf.n,
                                entries,
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
    return SectionSpace(target, layouts, bases)


def reference_planar_image(sheaf: GammaSheaf, x: int, d_max: int) -> dict[int, Subspace]:
    """sheaf.planar_image slice by slice: the sections over each planar
    slice, projected onto its dangling coordinates; the annihilator of that
    projection, moved into M(U_x); and, per degree, the kernel of all the
    slices' annihilators together."""
    g = sheaf.graph
    per_slice = [sections(sheaf, sub, d_max) for sub in planar_family(g, x)]
    out = {}
    for d in range(d_max + 1):
        layout = section_layout(sheaf, up_edges(g, x), d)
        relations: list[Row] = []
        for secs in per_slice:
            sub_layout = secs.layouts[d]
            n_vertices = len(secs.subgraph.vertices)
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
