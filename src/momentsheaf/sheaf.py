"""Sheaves on moment graphs and the canonical top-down construction.

A sheaf assigns a free graded module M_x to each vertex (over A =
Q[x1..xn]), to each edge L from x up to y the module M_y / alpha_L M_y over
the edge ring A_L = A/(alpha_L), reached from M_y by the quotient map, and
the one stored restriction rho from M_x.  Sections over a subgraph are
tuples compatible under all restrictions; everything is computed degreewise
by exact linear algebra.  The edge ring (exactalg.edge_ring, one per
direction) owns every normal form: its memoized reduce_monomial, which
degree_matrix reads, and reduce, which sums it over a polynomial for
_restrict and the boundaries of sections (_section_boundary).  The ring is
integral: its coordinates in degree m are s^m times those of the rational
model, s the pivot coefficient's absolute value, so rho is stored in ring
coordinates, each generator lift rescaled at install (_install_lift_rho),
and sheaf_dump takes each entry back with LinearQuotient.representative.

The canonical sheaf is built in one sweep from the unique maximal vertex
downwards.  The sweep carries a generating set of the sections over the
upper set J of vertices already built.  At each vertex x the boundary image
(sections above x restricted to the upward edges) is the span of
t* . (image one degree lower) and the boundaries of the generators, because
the canonical sheaf is flabby on upper sets; the vertex module is the
projective cover of that image.  One elimination per degree then lifts
every generator to x and adds the generators of ker rho_x.  Generator lifts
are the reduced-echelon coset representatives of the image modulo the span
of (degree-one) times (image one degree lower), found on integer rows,
which makes two runs produce identical generator degrees and identical rho
matrices.

Up to the probe degree that lifting elimination keeps only the rows at the
pivot columns of the cover's echelon basis of the image V_d.  Projecting
onto those columns is injective on V_d, and every column of the system
lies in V_d, so the kernel, the lifts and the refusal of a stalk that
misses part of V_d are those of the full system.  The carried generators
have integer coefficients: a generator whose lift has denominators is
scaled by their lcm, which changes no span and so no artifact.

On a Schubert graph, global_hilbert reads the global sections off the
finished canonical sheaf: flabbiness makes dim Gamma_d the sum over the
vertices of dim (M_x)_d - rank rho_{x,d}, and Gamma is free, so (1 - q)^n
times that series is its Hilbert series modulo t*.

verify_pure compares every stalk image S with T, the image of the sections
over the punctured upper set {>x}, which its caller passes; verify reads T
without trusting the sweep's linear algebra.  certified_images replays the
sweep and checks every generator on the star of each vertex by substitution
(_restrict).  With S' the span of the generators' boundaries at x and P the
planar image, S' <= T <= P; where their dimensions meet, T = S' = P, and
verify reads S'.  Elsewhere boundary_image solves the sections over {>x}.
It and planar_image are one routine, _cut_out, over {>x} or over the planar
slices: eliminate each subgraph's vertex unknowns, and take the kernel of
the relations left on the up edges of x.  These stages reread the top sheaf's
rho matrices at many vertices, so verify sets the sheaf's matrices memo for
its own call, which builds each matrix once; nothing else keeps a matrix
between two reads.
direct_hilbert, the whole-graph solve, gives global_hilbert on loaded
graphs and is the reference the tests compare the sweep against.

monotonicity_check reads the map of fibres M_x / t* M_x -> M_y / t* M_y
along one edge off the constant terms of rho; it reduces no polynomial.
The paper's other shortcuts, the polygon relations and the transports over
A_V along every V-path, are cross-checks kept with the tests, as are the
structure sheaf and the substitution check of a section space.

Every vertex or edge carries one piece, (generator degrees, ring): a
vertex its stalk's degrees over A (ring None), an edge its upper stalk's
degrees over its edge ring.  GammaSheaf.piece is the one place that choice
is made.  In degree d a piece has block coordinates: one monomial basis of
degree d - g of its ring per generator degree g, laid end to end (blocks),
and split cuts a coordinate vector back into one polynomial per generator.

Degree bounds: on graphs of Schubert origin, new generators can only appear
in internal degrees d with 2d <= rank(top) - rank(x) - 1, so the builder
computes exactly that far (cohomological degree is twice the internal one).
Loaded graphs carry no such guarantee and require an explicit bound.
degree_bounds is the one place that rule is applied.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

from .errors import ConsistencyError, ValidationError
from .exactalg import (
    LinearQuotient,
    MonomialBasis,
    Poly,
    QMatrix,
    Row,
    Subspace,
    Vector,
    _int_row,
    _row_axpy,
    _row_step,
    dense,
    edge_ring,
    forward_eliminate,
    graded_dim,
    kernel_basis,
    kernel_echelon_basis,
    matrix_rank,
    monomial_basis,
    poly_add,
    poly_const,
    poly_from_coeffs,
    poly_mul,
    poly_str,
    poly_to_coeffs,
    rref,
    sparse,
)
from .klpoly import KLPolynomial, poincare_csv
from .moment_graph import (
    MomentGraph,
    Subgraph,
    above_punctured,
    planar_family,
    up_edges,
    whole,
)

# ---------------------------------------------------------------------------
# data model


class GradedFreeModule:
    """A free graded module recorded by its multiset of generator degrees."""

    __slots__ = ("gens",)

    def __init__(self, gens: Sequence[int]) -> None:
        if any(g < 0 for g in gens):
            raise ValidationError("generator degrees must be nonnegative")
        self.gens = tuple(sorted(gens))

    @property
    def rank(self) -> int:
        return len(self.gens)


class RhoMap(NamedTuple):
    """Matrix of a restriction map; entries[j][i] is a homogeneous element
    of A_L (in reduced, pivot-free form) of degree d_i - e_j."""

    entries: tuple[tuple[Poly, ...], ...]


def _diagonal(rank: int, entry: Poly) -> list[list[Poly]]:
    """The rank x rank matrix with entry on the diagonal and zero elsewhere."""
    return [[entry if i == j else {} for i in range(rank)] for j in range(rank)]


# (generator degrees, ring): ring None means A
Piece = tuple[tuple[int, ...], LinearQuotient | None]


class GammaSheaf:
    """A sheaf on a moment graph; may be partially defined mid-construction.

    It is its stalks (vertex_modules) and one restriction per edge, rho[k]
    from the stalk at the lower end of edge k; the edge module (piece) and
    the map from the upper stalk are its quotient, so neither is stored.

    rho_degree_matrix builds each degree-d matrix when it is read.  matrices
    is None except while one verify call rereads the finished sheaf: verify
    sets it to {} and back to None when it returns, and in between
    _rho_matrix builds each (vertex, edge, degree) matrix once into it.
    Nothing writes rho or a piece in that window; the certificate's replay
    writes only its own generators.  The edge rings (edge_ring) and the
    t*-span matrices of _degree_span depend on no sheaf and are shared by
    every sheaf in the process."""

    __slots__ = ("graph", "vertex_modules", "rho", "matrices")

    def __init__(self, graph: MomentGraph) -> None:
        self.graph = graph
        self.vertex_modules: dict[int, GradedFreeModule] = {}
        self.rho: dict[int, RhoMap] = {}
        self.matrices: dict[tuple[int, int, int], QMatrix] | None = None

    @property
    def n(self) -> int:
        return self.graph.dim_t

    def piece(self, kind: str, idx: int) -> Piece:
        """Generator degrees and ring of the module at vertex idx (kind "v",
        over A: ring None) or at edge idx (kind "e": the upper stalk's
        degrees over the edge ring)."""
        if kind == "v":
            return self.vertex_modules[idx].gens, None
        e = self.graph.edges[idx]
        return self.vertex_modules[e.upper].gens, edge_ring(e.direction)

    def blocks(self, kind: str, idx: int, d: int) -> list[MonomialBasis]:
        """The block coordinates of a piece in degree d."""
        return _blocks(self.n, self.piece(kind, idx), d)

    def piece_dim(self, kind: str, idx: int, d: int) -> int:
        gens, ring = self.piece(kind, idx)
        if ring is None:
            return sum(graded_dim(self.n, d - g) for g in gens)
        return sum(ring.dim(d - g) for g in gens)


def _blocks(n: int, piece: Piece, d: int) -> list[MonomialBasis]:
    gens, ring = piece
    if ring is None:
        return [monomial_basis(n, d - g) for g in gens]
    return [ring.basis(d - g) for g in gens]


def split(blocks: Sequence[MonomialBasis], vec: Sequence) -> tuple[Poly, ...]:
    """A coordinate vector in block coordinates, as one polynomial per
    generator."""
    out = []
    off = 0
    for basis in blocks:
        out.append(poly_from_coeffs(basis, vec[off : off + len(basis)]))
        off += len(basis)
    return tuple(out)


# ---------------------------------------------------------------------------
# degreewise layouts and restriction matrices


class Layout(NamedTuple):
    """Fixed component ordering of the product of module pieces in one
    degree: all subgraph vertices (by index), then dangling edges sorted by
    (upper-vertex id, direction)."""

    degree: int
    components: tuple[tuple[str, int], ...]
    offsets: tuple[int, ...]
    sizes: tuple[int, ...]
    total: int

    def slot(self, kind: str, idx: int) -> tuple[int, int]:
        pos = self.components.index((kind, idx))
        return self.offsets[pos], self.sizes[pos]


def _edge_sort_key(g: MomentGraph, k: int):
    e = g.edges[k]
    return (g.labels[e.upper], e.direction)


def dangling_edges(g: MomentGraph, sub: Subgraph) -> list[int]:
    vset = set(sub.vertices)
    out = [
        k
        for k in sub.edges
        if g.edges[k].lower not in vset or g.edges[k].upper not in vset
    ]
    return sorted(out, key=lambda k: _edge_sort_key(g, k))


def section_layout(sheaf: GammaSheaf, sub: Subgraph, d: int) -> Layout:
    comps: list[tuple[str, int]] = [("v", v) for v in sub.vertices]
    comps += [("e", k) for k in dangling_edges(sheaf.graph, sub)]
    sizes = [sheaf.piece_dim(kind, idx, d) for kind, idx in comps]
    offsets = []
    acc = 0
    for s in sizes:
        offsets.append(acc)
        acc += s
    return Layout(d, tuple(comps), tuple(offsets), tuple(sizes), acc)


def degree_matrix(
    n: int, entries: Sequence[Sequence[Poly]], src: Piece, dst: Piece, d: int
) -> QMatrix:
    """Degree-d matrix, in block coordinates, of the map between the free
    graded modules src and dst whose (j, i) entry is entries[j][i].

    Entries must already be in dst_ring normal form.  A source basis
    monomial is taken as it is when the source ring is dst_ring: it is
    already in ring coordinates there, and the integral edge ring's
    reduce_monomial is not the identity on them (LinearQuotient).  Otherwise
    it is a monomial of A, reduced into dst_ring (reduce_monomial, memoized
    on the ring, so an edge ring reduces each monomial once per process).
    Either way it is multiplied by the entry; the product of two normal
    forms is again one, so no second reduction runs.
    """
    src_ring, dst_ring = src[1], dst[1]
    # per target block, the row of each of its monomials
    where: list[dict[tuple[int, ...], int]] = []
    nrows = 0
    for tgt in _blocks(n, dst, d):
        where.append({e: nrows + pos for pos, e in enumerate(tgt.exponents)})
        nrows += len(tgt)
    rows: list[Row] = [{} for _ in range(nrows)]
    col = 0
    for i, src_basis in enumerate(_blocks(n, src, d)):
        for mono in src_basis.exponents:
            reduced = {mono: 1} if src_ring is dst_ring else dst_ring.reduce_monomial(mono)
            for j, row_of in enumerate(where):
                entry = entries[j][i]
                if entry and reduced:
                    for e, c in poly_mul(entry, reduced).items():
                        rows[row_of[e]][col] = c
            col += 1
    return QMatrix(nrows, col, rows)


def rho_degree_matrix(sheaf: GammaSheaf, v: int, e: int, d: int) -> QMatrix:
    """Matrix of the restriction from (M_v)_d to (M_e)_d in the fixed bases,
    built on every call from both pieces as they are then: from sheaf.rho[e]
    when v is the lower end of edge e, else from a diagonal of 1s, the
    quotient map of the upper stalk.  The build reads each matrix once;
    readers go through _rho_matrix, which keeps what this builds while
    sheaf.matrices is set."""
    src = sheaf.piece("v", v)
    lower = v == sheaf.graph.edges[e].lower
    entries = sheaf.rho[e].entries if lower else _diagonal(len(src[0]), poly_const(sheaf.n, 1))
    return degree_matrix(sheaf.n, entries, src, sheaf.piece("e", e), d)


def _rho_matrix(sheaf: GammaSheaf, v: int, e: int, d: int) -> QMatrix:
    """rho_degree_matrix, built once into sheaf.matrices while it is set."""
    memo = sheaf.matrices
    if memo is None:
        return rho_degree_matrix(sheaf, v, e, d)
    m = memo.get((v, e, d))
    if m is None:
        m = memo[(v, e, d)] = rho_degree_matrix(sheaf, v, e, d)
    return m


# ---------------------------------------------------------------------------
# sections


class SectionSpace(NamedTuple):
    """Degreewise bases of the space of sections over one subgraph."""

    layouts: dict[int, Layout]
    bases: dict[int, list[Vector]]

    def dim(self, d: int) -> int:
        return len(self.bases[d])

    def subspace(self, d: int) -> Subspace:
        return Subspace(self.layouts[d].total, self.bases[d])


def _sections_rows(sheaf: GammaSheaf, sub: Subgraph, layout: Layout) -> list[dict]:
    g = sheaf.graph
    vset = set(sub.vertices)
    d = layout.degree
    rows: list[Row] = []
    for k in sub.edges:
        e = g.edges[k]
        erows = sheaf.piece_dim("e", k, d)
        if erows == 0:
            continue
        lo_in, hi_in = e.lower in vset, e.upper in vset
        if lo_in and hi_in:
            a = _rho_matrix(sheaf, e.lower, k, d)
            b = _rho_matrix(sheaf, e.upper, k, d)
            lo_off, _ = layout.slot("v", e.lower)
            hi_off, _ = layout.slot("v", e.upper)
            for r in range(erows):
                # the two vertex blocks are disjoint, so nothing cancels
                row = {lo_off + c: val for c, val in a.rows[r].items()}
                row.update((hi_off + c, -val) for c, val in b.rows[r].items())
                if row:
                    rows.append(row)
        else:
            e_off, _ = layout.slot("e", k)
            for v in (e.lower, e.upper):
                if v not in vset:
                    continue
                a = _rho_matrix(sheaf, v, k, d)
                v_off, _ = layout.slot("v", v)
                for r in range(erows):
                    row = {e_off + r: -1}
                    row.update((v_off + c, val) for c, val in a.rows[r].items())
                    rows.append(row)
    return rows


def sections(sheaf: GammaSheaf, sub: Subgraph, d_max: int) -> SectionSpace:
    """Exact bases of the section space in every degree up to d_max.

    Edge values are eliminated when both endpoints are present (they are
    determined by either endpoint); edges with a missing endpoint contribute
    their own unknown block, so e.g. sections over the bare edge set U_x give
    the full product of the edge modules.
    """
    layouts = {}
    bases = {}
    for d in range(d_max + 1):
        layout = layouts[d] = section_layout(sheaf, sub, d)
        rows = _sections_rows(sheaf, sub, layout)
        bases[d] = kernel_basis(QMatrix(len(rows), layout.total, rows))
    return SectionSpace(layouts, bases)


def _restrict(sheaf: GammaSheaf, k: int, value: Sequence[Poly]) -> tuple[Poly, ...]:
    """rho[k] of a value at the lower end of edge k (one polynomial per
    stalk generator, an empty value being zero), by substitution: each
    polynomial is reduced into the edge ring (LinearQuotient.reduce) and
    multiplied into the entries, normal forms, so the result is one too."""
    ring = edge_ring(sheaf.graph.edges[k].direction)
    reduced = [ring.reduce(p) for p in value]
    return tuple(_poly_dot(row, reduced) for row in sheaf.rho[k].entries)


def _poly_dot(row: Sequence[Poly], col: Sequence[Poly]) -> Poly:
    acc: Poly = {}
    for a, b in zip(row, col):
        if a and b:
            acc = poly_add(acc, poly_mul(a, b))
    return acc


# ---------------------------------------------------------------------------
# boundary image and the canonical construction


def _cut_out(sheaf: GammaSheaf, x: int, subgraphs: list[Subgraph], d_max: int) -> SectionSpace:
    """The part of M(U_x) that meets every relation the sections over each
    subgraph impose on its dangling edges, all up edges of x, as RREF bases.

    A subgraph's vertex blocks come first, ordered by rank, highest first
    (ties by index), so the elimination works down from the top as the sweep
    does.  The forward phase over the vertex columns leaves rows in the
    dangling-edge columns alone, which span every relation there, whatever
    the vertex order.  They move to the matching columns of U_x; a subgraph
    with no dangling coordinates in a degree imposes nothing there.
    """
    ranks = sheaf.graph.ranks
    target = up_edges(sheaf.graph, x)
    subs = [
        Subgraph(tuple(sorted(s.vertices, key=lambda v: (-ranks[v], v))), s.edges)
        for s in subgraphs
    ]
    layouts, bases = {}, {}
    for d in range(d_max + 1):
        layout = layouts[d] = section_layout(sheaf, target, d)
        relations: list[Row] = []
        for sub in subs:
            sub_layout = section_layout(sheaf, sub, d)
            nvert = len(sub.vertices)
            nv = sum(sub_layout.sizes[:nvert])
            if sub_layout.total == nv:
                continue
            edges = zip(sub_layout.components[nvert:], sub_layout.sizes[nvert:])
            to_full = [layout.slot(*comp)[0] + i for comp, size in edges for i in range(size)]
            _, _, rest = forward_eliminate(_sections_rows(sheaf, sub, sub_layout), nv)
            relations += ({to_full[c - nv]: v for c, v in r.items()} for r in rest)
        bases[d] = kernel_echelon_basis(relations, layout.total)
    return SectionSpace(layouts, bases)


def boundary_image(sheaf: GammaSheaf, x: int, d_max: int) -> SectionSpace:
    """Image of the restriction from sections above x (with its upward
    edges) to the product of the upward edge modules, degree by degree,
    solved directly from the incidence equations over {>x} by _cut_out."""
    return _cut_out(sheaf, x, [above_punctured(sheaf.graph, x)], d_max)


# (dim_t, generator degrees, edge ring or None for A, degree) -> per
# source coordinate, the column of multiplication by each variable
_SPAN_MATRICES: dict[tuple, list[tuple[Row, ...]]] = {}


def _degree_span(
    sheaf: GammaSheaf, layouts: Sequence[Layout] | dict[int, Layout], lower: Sequence[Row], d: int
) -> list[Row]:
    """The nonzero rows x_var . v in layouts[d], for every variable and
    every sparse row v of lower in layouts[d - 1]: they span t* . lower.

    Multiplication by x_var is the degree-d matrix of the map from gens g+1
    to gens g with x_var on the diagonal, one per module type, variable and
    degree.  It depends on no sheaf, so it is cached for the process in
    _SPAN_MATRICES; the key carries dim_t, since a vertex block names no
    direction.  Integer rows times integer matrices give integer rows.
    """
    if not lower:
        return []
    src, dst = layouts[d - 1], layouts[d]
    n = sheaf.n
    columns: list[tuple[int, tuple[Row, ...]]] = []
    for pos, comp in enumerate(src.components):
        gens, ring = sheaf.piece(*comp)
        key = (n, gens, ring, d)
        if key not in _SPAN_MATRICES:
            per_var = []
            for var in range(n):
                mono = tuple(int(i == var) for i in range(n))
                x: Poly = {mono: 1} if ring is None else ring.reduce_monomial(mono)
                entries = _diagonal(len(gens), x)
                shifted = [g + 1 for g in gens]
                m = degree_matrix(n, entries, (shifted, ring), (gens, ring), d)
                per_var.append(m.transpose().rows)
            _SPAN_MATRICES[key] = list(zip(*per_var))
        columns += ((dst.offsets[pos], cols) for cols in _SPAN_MATRICES[key])
    out = []
    for v in lower:
        rows: list[Row] = [{} for _ in range(n)]
        for c, a in v.items():
            off, cols = columns[c]
            for row, col in zip(rows, cols):
                _row_axpy(row, -a, col, off)
        out += (row for row in rows if row)
    return out


def projective_cover(
    sheaf: GammaSheaf,
    layouts: Sequence[Layout] | dict[int, Layout],
    bases: Sequence[list[Vector]] | dict[int, list[Vector]],
    d_max: int,
) -> tuple[list[int], list[tuple[int, Vector]], list[list[Row]]]:
    """Minimal generators of an image module, with their canonical lifts,
    and per degree an echelon basis of the image.

    In each degree d up to d_max the image is given by the vectors bases[d]
    in layouts[d], the layout its lifts come back in, indexed by degree;
    they need only span image_d modulo t* . image_{d-1}.  In each degree the
    new generators are the reduced-echelon coset representatives of image_d
    modulo t* . image_{d-1}.  They are found on integer rows:
    each vector is reduced fraction-free against the echelon form of the
    t*-span rows, which leaves a multiple of its residue modulo the RREF of
    that span, and the RREF of these residues, unique, gives them.  The
    echelon rows and the representatives span image_d, which is all the
    next degree reads.

    The residues vanish at every pivot of the echelon rows, so these rows
    and the representatives lead at distinct columns, dim image_d of them:
    together they are the echelon basis returned, and projecting onto their
    leading columns is injective on image_d.
    """
    gen_degrees: list[int] = []
    lifts: list[tuple[int, Vector]] = []
    echelons: list[list[Row]] = []
    lower: list[Row] = []
    for d in range(d_max + 1):
        total = layouts[d].total
        pivots, echelon, _ = forward_eliminate(_degree_span(sheaf, layouts, lower, d), total)
        residues = []
        for vec in bases[d]:
            r = _int_row(sparse(vec))
            for col, piv in zip(pivots, echelon):
                if col in r:
                    r = _row_step(r, piv, col)
                    if not r:
                        break
            if r:
                residues.append(r)
        reps = rref(residues, total)[1]
        lower = echelon + reps
        echelons.append(lower)
        for rep in reps:
            gen_degrees.append(d)
            lifts.append((d, dense(rep, total)))
    return gen_degrees, lifts, echelons


def kl_degree_bound(g: MomentGraph, x: int, top: int) -> int:
    """The proven internal-degree bound for generators at x on a Schubert
    graph with top vertex top."""
    return max((g.ranks[top] - g.ranks[x] - 1) // 2, 0)


def degree_bounds(g: MomentGraph, degree_bound: int | None = None) -> list[int]:
    """Per vertex, the internal degree up to which stalks are computed: the
    explicit bound, else the proven KL bound of a Schubert graph."""
    if degree_bound is not None:
        return [degree_bound] * g.n_vertices
    if not g.schubert_origin:
        raise ValidationError(
            "generic graphs need an explicit degree bound; only Schubert "
            "graphs carry a proven one"
        )
    top = g.unique_maximal()
    return [kl_degree_bound(g, x, top) for x in range(g.n_vertices)]


def stacked_rho(sheaf: GammaSheaf, x: int, layout: Layout) -> QMatrix:
    """rho_x in one degree: the up-edge restriction matrices of x stacked at
    their slots of the up-edge layout, from (M_x)_d to M(U_x)_d."""
    d = layout.degree
    rows: list[Row] = [{} for _ in range(layout.total)]
    for k in sheaf.graph.up[x]:
        off, size = layout.slot("e", k)
        rows[off : off + size] = _rho_matrix(sheaf, x, k, d).rows
    return QMatrix(layout.total, sheaf.piece_dim("v", x, d), rows)


def sweep_order(g: MomentGraph, top: int) -> list[int]:
    """The vertices below top in the order the sweep builds them: rank
    downwards, ties by label."""
    return sorted(
        (v for v in range(g.n_vertices) if v != top),
        key=lambda v: (-g.ranks[v], g.labels[v]),
    )


def _integral(vec: Vector) -> tuple[int, list[int]]:
    """The positive lcm L of the denominators of vec, and L * vec."""
    scale = lcm(*(c.denominator for c in vec))
    return scale, [c.numerator * (scale // c.denominator) for c in vec]


class _SectionSweep:
    """Generators of Gamma(J), J the upper set of vertices built so far,
    carried down the canonical construction.

    A generator is (degree, {vertex: one polynomial per stalk generator});
    a vertex left out carries zero.  Only degrees up to d_max are kept, and
    forget(x), called after extend(x), drops a vertex's values once every
    vertex below it along an edge is built, since no later boundary reads
    them.

    The canonical sheaf is flabby on upper sets, so Gamma(J) maps onto the
    sections over {>x} and the boundary image at x is the A-span of the
    boundaries of the generators.  Gamma(J + x) is generated by one lift of
    each old generator together with the generators of ker rho_x.

    Every generator has integer coefficients: a lift with denominators
    scales its whole generator by their positive lcm, and each ker rho_x
    generator is scaled the same way.  A nonzero multiple of a generator
    generates the same module, and everything read off the sweep depends
    on spans only.
    """

    def __init__(self, sheaf: GammaSheaf, top: int, d_max: int):
        g = sheaf.graph
        self.sheaf = sheaf
        self.d_max = d_max
        self.gens: list[tuple[int, dict[int, tuple[Poly, ...]]]] = [
            (0, {top: (poly_const(g.dim_t, 1),)})
        ]
        self.pending = [len(g.down[v]) for v in range(g.n_vertices)]
        self._at = -1
        self._layouts: list[Layout] = []
        self._live: list[list[tuple[dict[int, tuple[Poly, ...]], Vector]]] = []
        self._pivot_rows: list[list[int]] = []

    def _load(self, x: int) -> None:
        """The up-edge layouts of x and, in every degree up to d_max, the
        generators whose boundary is not zero, each with its boundary, read
        by both cover(x) and extend(x).  No pivot rows are known yet."""
        self._at = x
        target = up_edges(self.sheaf.graph, x)
        self._layouts = [section_layout(self.sheaf, target, d) for d in range(self.d_max + 1)]
        self._live = []
        for d, layout in enumerate(self._layouts):
            pairs = [
                (vals, _section_boundary(self.sheaf, layout, vals))
                for dg, vals in self.gens
                if dg == d
            ]
            self._live.append([(vals, b) for vals, b in pairs if any(b)])
        self._pivot_rows = []

    def cover(
        self, x: int, probe: int
    ) -> tuple[list[int], list[tuple[int, Vector]], list[Layout]]:
        """The stalk at x: projective_cover of the boundary image in degrees
        up to probe, returned with the up-edge layouts its lifts are given
        in.  The image is given in each degree d by the nonzero boundaries
        of the degree-d generators, which span image_d modulo
        t* . image_{d-1}.  The leading columns of the cover's echelon basis
        are kept for extend(x) as its pivot rows."""
        self._load(x)
        bases = [[b for _, b in live] for live in self._live[: probe + 1]]
        gens, lifts, echelons = projective_cover(self.sheaf, self._layouts, bases, probe)
        self._pivot_rows = [sorted(min(r) for r in rows) for rows in echelons]
        return gens, lifts, self._layouts

    def extend(self, x: int) -> None:
        """Extend the generators from J to J + x once M_x and rho_x exist.

        One elimination per degree on [R_x | -B], R_x the stacked rho_x and
        B the nonzero generator boundaries: each B column is free, and its
        kernel vector carries the generator's value at x; the free R_x
        columns give ker rho_x.  A zero boundary would be a zero column,
        which lifts to zero and changes no other kernel vector.  A B column
        that is a pivot means rho_x misses part of the boundary image, which
        the construction rules out.

        In the degrees cover(x) read, the elimination keeps only the rows
        at the cover's pivot columns P.  The image V_d has a basis leading
        at the distinct columns P, so projecting onto P is injective on
        V_d.  Every column of R_x lies in V_d, a monomial times a
        representative, and so does every column of B, a boundary the cover
        read.  So the rows at P have the same kernel as all rows, hence the
        same canonical kernel basis, and a boundary outside rho_x(M_x)
        stays outside on P.  The certificate's replay (no cover) and the
        degrees above the probe eliminate on every row.
        """
        if self._at != x:
            self._load(x)
        sheaf, g = self.sheaf, self.sheaf.graph
        kernel_bases: dict[int, list[Vector]] = {}
        for d, (layout, live) in enumerate(zip(self._layouts, self._live)):
            r_x = stacked_rho(sheaf, x, layout)
            ncx = r_x.ncols
            keep = self._pivot_rows[d] if d < len(self._pivot_rows) else range(layout.total)
            rows = [dict(r_x.rows[i]) for i in keep]
            for j, (_, b) in enumerate(live):
                for row, i in zip(rows, keep):
                    if b[i]:
                        row[ncx + j] = -b[i]
            kernel = kernel_basis(QMatrix(len(rows), ncx + len(live), rows))
            lifts = [v[:ncx] for v in kernel if any(v[ncx:])]
            if len(lifts) != len(live):
                raise ConsistencyError(
                    f"the stalk at {g.labels[x]} does not reach the boundary "
                    f"image of the sections above it in degree {d}"
                )
            kernel_bases[d] = [v[:ncx] for v in kernel if not any(v[ncx:])]
            blocks = sheaf.blocks("v", x, d)
            for (values, _), m in zip(live, lifts):
                if any(m):
                    scale, m = _integral(m)
                    if scale > 1:
                        for v, value in values.items():
                            values[v] = tuple({e: c * scale for e, c in p.items()} for p in value)
                    values[x] = split(blocks, m)
        point = Subgraph((x,), ())
        layouts = [section_layout(sheaf, point, d) for d in kernel_bases]
        for d, vec in projective_cover(sheaf, layouts, kernel_bases, self.d_max)[1]:
            self.gens.append((d, {x: split(sheaf.blocks("v", x, d), _integral(vec)[1])}))

    def forget(self, x: int) -> None:
        """After extend(x): forget the values at x and at its upper
        neighbours once every vertex below them along an edge is built, and
        drop the generators left with no value."""
        g = self.sheaf.graph
        uppers = [g.edges[k].upper for k in g.up[x]]
        for y in uppers:
            self.pending[y] -= 1
        done = [v for v in [x, *uppers] if not self.pending[v]]
        for _, values in self.gens:
            for v in done:
                values.pop(v, None)
        self.gens = [gen for gen in self.gens if gen[1]]


def canonical_sheaf(g: MomentGraph, degree_bound: int | None = None) -> GammaSheaf:
    """The canonical sheaf, built from the top vertex downwards.

    The boundary image at each vertex is read off a generating set of the
    sections over the vertices already built, carried down the sweep, so
    it is exact on every graph.  The paper's shortcuts to that image are
    kept as checks, not builders: planar_image is proven equal to it only
    on graphs of projective origin, and verify reads it as an upper bound.
    The polygon relations, exact only under the finite-two-orbit
    criterion, and the V-path transports are cross-checks in the tests.
    """
    top = g.unique_maximal()
    bounds = degree_bounds(g, degree_bound)
    sheaf = GammaSheaf(g)
    sheaf.vertex_modules[top] = GradedFreeModule((0,))
    order = sweep_order(g, top)
    d_max = max((bounds[x] for x in order), default=0)
    sweep = _SectionSweep(sheaf, top, d_max)
    for x in order:
        gens, lifts, layouts = sweep.cover(x, bounds[x])
        sheaf.vertex_modules[x] = GradedFreeModule(tuple(gens))
        _install_lift_rho(sheaf, x, lifts, layouts)
        sweep.extend(x)
        sweep.forget(x)
    if g.schubert_origin:
        for v in range(g.n_vertices):
            if sum(1 for d in sheaf.vertex_modules[v].gens if d == 0) != 1:
                raise ConsistencyError(
                    f"stalk at {g.labels[v]} does not have a unique degree-0 generator"
                )
    return sheaf


def _install_lift_rho(
    sheaf: GammaSheaf,
    x: int,
    lifts: list[tuple[int, Vector]],
    layouts: list[Layout],
) -> None:
    """Split each generator lift, given in the up-edge layouts of x, into
    per-edge polynomial columns: rho on every up edge of x.

    A lift is a reduced-echelon representative in ring coordinates, 1 at
    its leading coordinate.  A term of degree m of an edge ring with scale
    s has s^m times its rational-model coordinates (LinearQuotient): a
    diagonal change of coordinates D, which keeps leading columns and sends
    the rational model's representative r to D r / D_lead.  So each lift is
    multiplied by D_lead, and rho is D r, the rational model's map in ring
    coordinates; sheaf_dump takes each entry back with representative."""
    lifts = [(dg, _rescaled_lift(sheaf, layouts[dg], vec)) for dg, vec in lifts]
    for k in sheaf.graph.up[x]:
        columns = []
        for dg, vec in lifts:
            off, size = layouts[dg].slot("e", k)
            columns.append(split(sheaf.blocks("e", k, dg), vec[off : off + size]))
        rank = len(sheaf.piece("e", k)[0])
        sheaf.rho[k] = RhoMap(tuple(tuple(c[j] for c in columns) for j in range(rank)))


def _rescaled_lift(sheaf: GammaSheaf, layout: Layout, vec: Vector) -> Vector:
    """vec, a vector of the up-edge layout with a 1 at its leading
    coordinate, times the scale of that coordinate: s^(d - g) for a block of
    generator degree g of an edge ring with scale s."""
    d = layout.degree
    lead = next(c for c, v in enumerate(vec) if v)
    end = 0
    for _, k in layout.components:
        gens, ring = sheaf.piece("e", k)
        for g, basis in zip(gens, _blocks(sheaf.n, (gens, ring), d)):
            end += len(basis)
            if lead < end:
                scale = ring.scale ** (d - g)
                return vec if scale == 1 else tuple(c * scale for c in vec)
    raise ValueError("the lift lies outside its layout")


# ---------------------------------------------------------------------------
# outputs


def stalk_poincare(sheaf: GammaSheaf, x: int) -> KLPolynomial:
    """Generator-degree generating polynomial of the stalk at x."""
    return KLPolynomial.from_degree_counts(sheaf.vertex_modules[x].gens)


def stalk_table_csv(sheaf: GammaSheaf) -> str:
    """Poincare table (x, top, P) for every vertex, diffable against the
    Hecke oracle's table."""
    g = sheaf.graph
    top = g.unique_maximal()
    rows = [
        (g.labels[x], g.labels[top], stalk_poincare(sheaf, x))
        for x in range(g.n_vertices)
    ]
    return poincare_csv(rows)


def global_hilbert(sheaf: GammaSheaf, d_max: int) -> list[int]:
    """Dimensions of the global sections modulo t* times sections, i.e. the
    ungraded-coefficient cohomology of the underlying variety.

    For the canonical sheaf on a graph of Schubert origin two facts give
    them from the finished sheaf alone.  The sheaf is flabby on upper sets,
    so every step 0 -> ker rho_x -> Gamma(J + x) -> Gamma(J) -> 0 of the
    sweep is exact and dim Gamma_d is the sum over all vertices, the top
    included, of dim (M_x)_d - rank rho_{x,d}.  Gamma is free, so the answer
    is that series times (1 - q)^n: n passes of first differences, n the
    rank of the graph's torus.  On a generic rank-2 subtorus
    (moment_graph.generic_subtorus) n = 2: Gamma is free over the smaller
    ring too, with the same quotient by its augmentation ideal, so the
    table is the full torus's.  So a sheaf on a Schubert graph must be its
    canonical sheaf, as every sheaf the commands pass is.  A loaded graph's
    canonical sheaf need not have a free Gamma, so it takes direct_hilbert.
    """
    g = sheaf.graph
    if not g.schubert_origin:
        return direct_hilbert(sheaf, d_max)
    dims = [0] * (d_max + 1)
    for x in range(g.n_vertices):
        target = up_edges(g, x)
        for d in range(d_max + 1):
            rho = stacked_rho(sheaf, x, section_layout(sheaf, target, d))
            dims[d] += rho.ncols - matrix_rank(rho)
    for _ in range(sheaf.n):
        dims = [a - b for a, b in zip(dims, [0] + dims)]
    return dims


def direct_hilbert(sheaf: GammaSheaf, d_max: int) -> list[int]:
    """global_hilbert by solving the sections over the whole graph: the
    generator degrees of their projective cover; any sheaf, any graph."""
    space = sections(sheaf, whole(sheaf.graph), d_max)
    gens = projective_cover(sheaf, space.layouts, space.bases, d_max)[0]
    return [gens.count(d) for d in range(d_max + 1)]


# ---------------------------------------------------------------------------
# monotonicity: the maps of the fibres M_x / t* M_x along the edges


def monotonicity_check(sheaf: GammaSheaf, k: int) -> dict[int, bool]:
    """Surjectivity, degree by degree, of the map of fibres
    M_x / t* M_x -> M_y / t* M_y along edge k from x up to y.  On the fibres
    rho acts by the constant terms of its entries, and the upper map is the
    quotient map by construction, so the map is the constant-term matrix of
    rho at x, one block per generator degree of M_y.  For x <= y the map of
    fibres is the composite of these edge maps along an increasing path; it
    keeps degree, surjections compose, and the order of a Schubert graph is
    the closure of its edges, so every edge passing proves every pair x <= y.
    The order of a loaded graph need not be, so verify runs this check on
    Schubert graphs only."""
    e = sheaf.graph.edges[k]
    const = (0,) * sheaf.n
    step = sheaf.rho[k].entries
    src = sheaf.vertex_modules[e.lower].gens
    dst = sheaf.vertex_modules[e.upper].gens
    out: dict[int, bool] = {}
    for d in sorted(set(dst)):
        rows = [j for j, eg in enumerate(dst) if eg == d]
        cols = [i for i, dg in enumerate(src) if dg == d]
        block = [{c: a for c, i in enumerate(cols) if (a := step[j][i].get(const, 0))} for j in rows]
        out[d] = matrix_rank(QMatrix(len(rows), len(cols), block)) == len(rows)
    return out


# ---------------------------------------------------------------------------
# planar image


def planar_image(sheaf: GammaSheaf, x: int, d_max: int) -> SectionSpace:
    """Intersection over all 2-planes H (with more than one edge above x in
    the H-component) of the pullbacks of the planar boundary images, cut out
    of all the planar slices at once; equals the boundary image for graphs
    of projective origin.  The graph keeps its planes, and the rho matrices
    go through _rho_matrix, so under verify what one vertex builds serves
    the next."""
    return _cut_out(sheaf, x, planar_family(sheaf.graph, x), d_max)


# ---------------------------------------------------------------------------
# certified sections image


def certified_images(
    sheaf: GammaSheaf, planar: dict[int, SectionSpace]
) -> dict[int, SectionSpace]:
    """The image T of the sections over {>x} at each vertex x of planar,
    which maps x to its planar image P in the degrees wanted, wherever a
    certificate proves it; the vertices left out need boundary_image.

    Right after the replayed sweep's extend(x), every generator is checked
    on the star of x by substitution: on every up edge k, rho[k] of its
    value at x equals its value at the upper end under the quotient map.
    Each value is set once, so these checks cover every edge of J, and every
    generator is a section over J; its restriction to {>x} witnesses that
    its boundary lies in T.  So S' <= T, and T <= P since each plane slice
    is a subgraph of {>x} with the same up edges.  Where dim S' = dim P in
    every degree, S' = T = P.  The planar theorem of Braden-MacPherson makes
    the dimensions meet on Schubert graphs, so the speed rests on it and
    soundness never does.  A failed star check, or a ConsistencyError in
    the replay, ends the certificate there.  The replay writes only its own
    generators, never rho, so it may run while sheaf.matrices is set.
    """
    if not planar:
        return {}
    g = sheaf.graph
    top = g.unique_maximal()
    sweep = _SectionSweep(sheaf, top, max(max(p.layouts) for p in planar.values()))
    out = {}
    for x in sweep_order(g, top):
        try:
            sweep.extend(x)
        except ConsistencyError:
            return out
        boundaries = []
        for dg, values in sweep.gens:
            # the up-edge layouts of x, which extend(x) has just loaded
            layout = sweep._layouts[dg]
            boundary = _section_boundary(sheaf, layout, values)
            if not _lift_holds(sheaf, x, layout, values, boundary):
                return out
            if any(boundary):
                boundaries.append((dg, boundary))
        image = _witnessed_image(sheaf, planar[x], boundaries) if x in planar else None
        if image is not None:
            out[x] = image
        sweep.forget(x)
    return out


def _section_boundary(
    sheaf: GammaSheaf, layout: Layout, values: dict[int, tuple[Poly, ...]]
) -> Vector:
    """A section's boundary at x, read by the sweep and the certificate
    alike: its value at the upper end of each up edge of x under the
    quotient map, reduced into the edge ring, in the up-edge layout of x in
    one degree.  An edge whose upper end has no value is zero, and skipped."""
    vec = [0] * layout.total
    for (_, k), off in zip(layout.components, layout.offsets):
        value = values.get(sheaf.graph.edges[k].upper)
        if value is None:
            continue
        piece = sheaf.piece("e", k)
        for p, basis in zip(value, _blocks(sheaf.n, piece, layout.degree)):
            if p:
                vec[off : off + len(basis)] = poly_to_coeffs(basis, piece[1].reduce(p))
            off += len(basis)
    return tuple(vec)


def _lift_holds(
    sheaf: GammaSheaf,
    x: int,
    layout: Layout,
    values: dict[int, tuple[Poly, ...]],
    boundary: Vector,
) -> bool:
    """Whether rho of the value at x, by substitution (_restrict), equals
    the boundary on every up edge of x, i.e. every incidence of the star of
    x holds; both are compared in the up-edge layout of x."""
    value = values.get(x, ())
    vec = [0] * layout.total
    for (_, k), off in zip(layout.components, layout.offsets):
        for p, basis in zip(_restrict(sheaf, k, value), sheaf.blocks("e", k, layout.degree)):
            if p:
                vec[off : off + len(basis)] = poly_to_coeffs(basis, p)
            off += len(basis)
    return tuple(vec) == boundary


def _witnessed_image(
    sheaf: GammaSheaf,
    planar: SectionSpace,
    boundaries: list[tuple[int, Vector]],
) -> SectionSpace | None:
    """S', the A-span of the (degree, boundary) pairs, in the degrees of
    the planar image P, as the echelon basis projective_cover builds of
    it; None unless dim S'_d = dim P_d in every degree."""
    layouts = planar.layouts
    generators = {d: [b for dg, b in boundaries if dg == d] for d in layouts}
    echelons = projective_cover(sheaf, layouts, generators, max(layouts))[2]
    if any(len(rows) != planar.dim(d) for d, rows in enumerate(echelons)):
        return None
    bases = {d: [dense(r, layouts[d].total) for r in rows] for d, rows in enumerate(echelons)}
    return SectionSpace(layouts, bases)


# ---------------------------------------------------------------------------
# purity verification


class PurityViolation(NamedTuple):
    vertex: int
    degree: int


class PurityReport(NamedTuple):
    violations: list[PurityViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> PurityViolation | None:
        return self.violations[0] if self.violations else None


def verify_pure(
    sheaf: GammaSheaf, degree_bound: int | None, images: dict[int, SectionSpace]
) -> PurityReport:
    """Check purity axiom 3 degreewise: the stalk restriction and the
    sections above have the same image in M(U_x).  Axioms 1 (free stalks)
    and 2 (each edge carries the quotient of its upper stalk) hold by
    construction of the model.

    images maps each vertex with up edges to the image of the sections
    over {>x}, to at least its bound: boundary_image, or what
    certified_images proves equal to it."""
    g = sheaf.graph
    g.unique_maximal()  # raises unless the graph has one top
    bounds = degree_bounds(g, degree_bound)
    violations: list[PurityViolation] = []
    for x, bound in enumerate(bounds):
        if not g.up[x]:
            continue
        image = images[x]
        for d in range(bound + 1):
            layout = image.layouts[d]
            stacked = stacked_rho(sheaf, x, layout)
            cols = (stacked.column(j) for j in range(stacked.ncols))
            stalk_image = Subspace(layout.total, cols)
            section_image = image.subspace(d)
            if stalk_image != section_image:
                violations.append(PurityViolation(x, d))
                break
    return PurityReport(violations)


# ---------------------------------------------------------------------------
# serialization


def sheaf_dump(sheaf: GammaSheaf) -> dict:
    """JSON document: generator degrees per vertex and edge, the edge forms,
    and the rho matrices as polynomial strings in the surviving variables,
    each entry in the rational model of its edge ring (representative)."""
    g = sheaf.graph
    doc: dict = {"dim_t": g.dim_t, "vertices": [], "edges": [], "rho": []}
    for v in range(g.n_vertices):
        doc["vertices"].append(
            {
                "id": g.labels[v],
                "generator_degrees": list(sheaf.vertex_modules[v].gens),
            }
        )
    one = poly_const(g.dim_t, 1)
    rho = {}  # by (vertex, edge): rho at the lower end, the quotient map above
    for k, e in enumerate(g.edges):
        upper = sheaf.vertex_modules[e.upper]
        doc["edges"].append(
            {
                "lower": g.labels[e.lower],
                "upper": g.labels[e.upper],
                "alpha": [str(c) for c in e.direction],
                "generator_degrees": list(upper.gens),
            }
        )
        ring = edge_ring(e.direction)
        rho[(e.lower, k)] = [list(map(ring.representative, row)) for row in sheaf.rho[k].entries]
        rho[(e.upper, k)] = _diagonal(upper.rank, one)
    for (v, k), entries in sorted(rho.items()):
        doc["rho"].append(
            {
                "vertex": g.labels[v],
                "edge": k,
                "matrix": [[poly_str(p) for p in row] for row in entries],
            }
        )
    return doc
