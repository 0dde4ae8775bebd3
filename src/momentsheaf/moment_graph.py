"""Moment graphs: a finite graph with a vertex partial order and a direction
line in t* for each edge, plus builders from Bruhat intervals, subgraph
constructors, and JSON/DOT serialization.

The order is always the closure of a generating relation, taken by
`order_closure`: the reflection edges of a Schubert graph (they generate the
Bruhat order on W^J, graded by length, so its covers are the rank-one edges)
or the cover pairs of a graph document.  `save_graph_json` writes a document
straight from the graph, so writing a Schubert graph is linear in its edges.
The `MomentGraph` constructor is the one validator of the order, the ranks and
the edges, and the one place edge directions are normalized.

A graph built from a Weyl group interval carries `schubert_origin=True`;
only for those does the sheaf layer derive Kazhdan-Lusztig degree bounds
automatically.  Generic loaded graphs are fully supported but require an
explicit degree bound downstream.

The sheaf layer works on a few fixed pieces of a graph, each a `Subgraph`
from one constructor: `whole`, `above` (the vertices strictly above x),
`above_punctured` (the same with the up edges of x dangling), `up_edges`
(the star U_x alone) and, from `planar_family`, the planar slices (the
part above x of the x-component of the edges with direction in a 2-plane,
with the up edges of x in that plane dangling).  The sheaf layer cuts the
images at x out of the slices and of `above_punctured` alike.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from json.encoder import encode_basestring_ascii
from operator import mul, sub
from typing import Iterable, NamedTuple

from .coxeter import WeylElement, WeylGroup, bruhat_leq, is_minimal_rep, mat_vec, minimal_coset_reps
from .errors import ValidationError
from .exactalg import Subspace, primitive_integer

Direction = tuple[int, ...]


class Edge(NamedTuple):
    lower: int
    upper: int
    direction: Direction


class Subgraph(NamedTuple):
    """A subset of vertices and edges; edges may dangle (miss endpoints)."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]


class MomentGraph:
    """Finite moment graph with order stored as a reachability bitmatrix;
    planes is its GraphPlanes, made by the first planar_family call."""

    __slots__ = (
        "dim_t", "labels", "edges", "leq_bits", "ranks", "schubert_origin", "up", "down", "planes"
    )

    def __init__(
        self,
        dim_t: int,
        labels: tuple[str, ...],
        edges: tuple[Edge, ...],
        leq_bits: tuple[int, ...],  # bit j of leq_bits[i] set iff i <= j
        ranks: tuple[int, ...],
        schubert_origin: bool = False,
    ) -> None:
        self.dim_t = dim_t
        self.labels = labels
        self.leq_bits = leq_bits
        self.ranks = ranks
        self.schubert_origin = schubert_origin
        self.planes: GraphPlanes | None = None
        n = len(labels)
        if len(set(self.labels)) != n:
            raise ValidationError("duplicate vertex ids")
        if len(self.leq_bits) != n or len(self.ranks) != n:
            raise ValidationError("order/rank tables have the wrong size")
        # at_most[r]: the vertices of rank <= r.  A vertex above i other than
        # i itself must have a larger rank; that also rules out cycles.
        by_rank: dict[int, int] = {}
        for i, r in enumerate(self.ranks):
            by_rank[r] = by_rank.get(r, 0) | 1 << i
        at_most, acc = {}, 0
        for r in sorted(by_rank):
            acc = at_most[r] = acc | by_rank[r]
        for i, bits in enumerate(self.leq_bits):
            if not (bits >> i) & 1:
                raise ValidationError("order is not reflexive")
            bad = bits & at_most[self.ranks[i]] & ~(1 << i)
            if bad:
                j = (bad & -bad).bit_length() - 1
                raise ValidationError(
                    "vertex ranks must strictly increase along the order "
                    f"({self.labels[i]} vs {self.labels[j]})"
                )
        # the edge's name is formatted only for the message of a failed check;
        # a direction is checked and normalized at its first edge, the edges
        # along it after that reuse the result, and an edge whose direction
        # already is its normal form (all int and primitive) is kept as it is
        seen_pairs = set()
        normal: dict[Direction, Direction] = {}
        normalized = []
        for e in edges:
            lo, hi, direction = e
            if lo == hi or not (leq_bits[lo] >> hi) & 1:
                raise ValidationError(
                    f"{self._edge_name(e)} joins order-incomparable or misordered vertices"
                )
            if (lo, hi) in seen_pairs:
                raise ValidationError(f"duplicate {self._edge_name(e)}")
            seen_pairs.add((lo, hi))
            unit = normal.get(direction)
            if unit is None:
                if len(direction) != dim_t:
                    raise ValidationError(f"{self._edge_name(e)} has a direction of wrong length")
                if not any(direction):
                    raise ValidationError(f"{self._edge_name(e)} has zero direction")
                unit = primitive_integer(direction)
                keep = unit == direction and all(type(c) is int for c in direction)
                unit = normal[direction] = direction if keep else unit
            normalized.append(e if unit is direction else Edge(lo, hi, unit))
        self.edges = tuple(normalized)
        self.up = [[] for _ in range(n)]
        self.down = [[] for _ in range(n)]
        for k, e in enumerate(self.edges):
            self.up[e.lower].append(k)
            self.down[e.upper].append(k)

    def _edge_name(self, e: Edge) -> str:
        return f"edge {self.labels[e.lower]}--{self.labels[e.upper]}"

    # -- order queries --------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool((self.leq_bits[i] >> j) & 1)

    def less(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def maximal_vertices(self) -> list[int]:
        return [i for i, bits in enumerate(self.leq_bits) if bits == 1 << i]

    def unique_maximal(self) -> int:
        tops = self.maximal_vertices()
        if len(tops) != 1:
            raise ValidationError(
                f"graph has {len(tops)} maximal vertices; the canonical-sheaf "
                "construction requires exactly one"
            )
        return tops[0]

    def covers(self) -> list[tuple[int, int]]:
        """Cover relations (transitive reduction of the order), sorted.

        On a Schubert graph they are the edges whose ranks differ by one: the
        Bruhat order on W^J is graded by length and generated by the
        reflection edges (Deodhar).  A loaded graph's order comes from its
        document's covers, not its edges; there i < j is a cover iff j lies
        strictly above i but not strictly above any vertex strictly above i,
        found with one OR per comparable pair i < k, walking set bits.
        """
        if self.schubert_origin:
            r = self.ranks
            return sorted((e.lower, e.upper) for e in self.edges if r[e.upper] - r[e.lower] == 1)
        above = [bits & ~(1 << i) for i, bits in enumerate(self.leq_bits)]
        out = []
        for i, bits in enumerate(above):
            higher, rest = 0, bits
            while rest:
                low = rest & -rest
                higher |= above[low.bit_length() - 1]
                rest ^= low
            minimal = bits & ~higher
            while minimal:
                low = minimal & -minimal
                out.append((i, low.bit_length() - 1))
                minimal ^= low
        return out


def order_closure(
    n: int, pairs: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """The order generated by the relations lo <= hi over vertices 0..n-1.

    Returns the reflexive-transitive closure as bitmasks (bit j of
    leq_bits[i] set iff i <= j) and each vertex's longest-chain rank, the
    length of the longest path of pairs that ends at it.  Vertices are taken
    bottom up once all their lower pairs are done; those never taken lie on
    a cycle.
    """
    ups: list[list[int]] = [[] for _ in range(n)]
    waiting = [0] * n
    for lo, hi in pairs:
        ups[lo].append(hi)
        waiting[hi] += 1
    ranks = [0] * n
    ready = [i for i in range(n) if not waiting[i]]
    done = []
    while ready:
        i = ready.pop()
        done.append(i)
        for j in ups[i]:
            ranks[j] = max(ranks[j], ranks[i] + 1)
            waiting[j] -= 1
            if not waiting[j]:
                ready.append(j)
    if len(done) < n:
        raise ValidationError("order has a cycle")
    leq_bits = [0] * n
    for i in reversed(done):
        acc = 1 << i
        for j in ups[i]:
            acc |= leq_bits[j]
        leq_bits[i] = acc
    return leq_bits, ranks


# ---------------------------------------------------------------------------
# Schubert builder


def schubert_moment_graph(
    W: WeylGroup, w: WeylElement, J: tuple[int, ...] = ()
) -> MomentGraph:
    """Moment graph of the Schubert variety indexed by w in G/P_J.

    Vertices are the minimal coset representatives y in W^J with y <= w;
    y and z are joined when z = Ry (as cosets) for a reflection R, with
    direction spanned by the difference of the orbit points y(v), z(v)
    for v = the sum of the positive roots whose support is not inside J
    (2 rho - 2 rho_J).  Each s_i with i in J permutes those roots, so
    <v, a_i^v> = 0, and <v, a_i^v> >= 2 off J: the stabilizer of v is W_J.
    The difference is a multiple of the reflection's root, and each edge is
    taken from the one end where that root pairs positively with the point.
    """
    J = tuple(sorted(set(J)))
    reps = minimal_coset_reps(W, J)  # validates J first
    if not is_minimal_rep(W, w, J):
        raise ValidationError(
            f"{w.word_str()} is not a minimal coset representative for J={J}"
        )
    n = W.cartan.rank
    v = [0] * n
    for r in W.reflections:
        if any(b for i, b in enumerate(r.positive_root, 1) if i not in J):
            v = [a + b for a, b in zip(v, r.positive_root)]
    reps = [y for y in reps if bruhat_leq(W, y, w)]
    points = [mat_vec(y.matrix, v) for y in reps]
    point_index = {p: i for i, p in enumerate(points)}
    if len(point_index) != len(reps):
        raise ValidationError("orbit points are not distinct; J-stabilizer mismatch")

    edges = []
    roots = [(r.coroot, r.positive_root) for r in W.reflections]
    for i, p in enumerate(points):
        for coroot, beta in roots:
            # s_beta(p) = p - k beta with k = <p, beta^v>.  At q = s_beta(p)
            # the pairing is -k, and two positive roots never send p to the
            # same point, so taking k > 0 finds each edge once.
            k = sum(map(mul, coroot, p))
            if k <= 0:
                continue
            j = point_index.get(tuple(map(sub, p, [k * b for b in beta])))
            if j is None:
                continue
            lo, hi = (i, j) if reps[i].length < reps[j].length else (j, i)
            # p - s_beta(p) = k beta: beta spans the edge's line
            edges.append(Edge(lo, hi, beta))
    edges.sort(key=lambda e: (e.lower, e.upper))
    # the reflection edges generate the Bruhat order on W^J (Deodhar)
    leq_bits, _ = order_closure(len(reps), [(e.lower, e.upper) for e in edges])

    g = MomentGraph(
        dim_t=n,
        labels=tuple(y.word_str() for y in reps),
        edges=tuple(edges),
        leq_bits=tuple(leq_bits),
        ranks=tuple(y.length for y in reps),
        schubert_origin=True,
    )
    if g.unique_maximal() != reps.index(w):
        raise ValidationError("top vertex is not the requested word")
    return g


# the largest base k that generic_subtorus tries
SEPARATING_BASE_CAP = 16


def separating_base(W: WeylGroup) -> int | None:
    """The first integer k >= 2 for which the restrictions
    (sum c_i k^(i-1), ht beta) of the positive roots beta = sum c_i a_i of W
    have pairwise distinct slopes, or None when no k up to
    SEPARATING_BASE_CAP does.  Every positive root is checked, not only the
    edges of some graph."""
    roots = [r.positive_root for r in W.reflections]
    for k in range(2, SEPARATING_BASE_CAP + 1):
        powers = [k**i for i in range(W.cartan.rank)]
        slopes = {primitive_integer((sum(map(mul, powers, b)), sum(b))) for b in roots}
        if len(slopes) == len(roots):
            return k
    return None


def generic_subtorus(W: WeylGroup, g: MomentGraph) -> MomentGraph:
    """The Schubert graph g of W on a generic 2-dimensional subtorus T' of
    T: each direction beta = sum c_i a_i becomes its restriction
    (sum c_i k^(i-1), ht beta), k = separating_base(W).  g itself when W has
    rank below 3 or no k separates the roots.

    Why this keeps the stalks.  The canonical sheaf needs only a torus with
    finitely many fixed points and one-dimensional orbits.  Take T' in T of
    dimension 2 on which no two positive roots restrict to proportional
    weights; separating_base checks exactly that, on every root of W, since
    at a singular point the Zariski tangent space holds more root spaces
    than the graph has edges there.  Then T' contains a regular cocharacter,
    so the fixed points of T' are those of T; each T'-weight space of the
    tangent space at a fixed point is a single root space, so the T'-curves
    are the T-curves (the subtorus principle of Goresky, Kottwitz and
    MacPherson, Invent. Math. 131, 1998).  So the T'-moment graph is g with
    each direction restricted.  IH_T of a Schubert variety is free over H_T,
    so IH_T' = IH_T tensor H_T': every stalk keeps its generator degrees,
    and the global sections, free over the smaller ring, keep their
    quotient by the augmentation ideal, which global_hilbert counts with
    n = 2.  The degree bounds come from the variety, not the torus.

    The height comes last, so the pivot of each edge ring is the height
    coordinate, with coefficient ht beta over the gcd of the two coordinates
    (LinearQuotient).  The graph keeps its vertices, order and edges, and
    stays of Schubert origin."""
    k = separating_base(W) if W.cartan.rank >= 3 else None
    if k is None:
        return g
    powers = [k**i for i in range(W.cartan.rank)]
    edges = tuple(
        Edge(e.lower, e.upper, (sum(map(mul, powers, e.direction)), sum(e.direction)))
        for e in g.edges
    )
    return MomentGraph(2, g.labels, edges, g.leq_bits, g.ranks, schubert_origin=True)


# ---------------------------------------------------------------------------
# subgraphs


def _check_vertex(g: MomentGraph, x: int) -> int:
    if not 0 <= x < g.n_vertices:
        raise ValidationError(f"unknown vertex index {x}")
    return x


def _induced(g: MomentGraph, verts: list[int]) -> Subgraph:
    """verts with every edge that has both endpoints among them."""
    vset = set(verts)
    return Subgraph(
        tuple(verts),
        tuple(k for k, e in enumerate(g.edges) if e.lower in vset and e.upper in vset),
    )


def whole(g: MomentGraph) -> Subgraph:
    return Subgraph(tuple(range(g.n_vertices)), tuple(range(len(g.edges))))


def above(g: MomentGraph, x: int) -> Subgraph:
    """The vertices strictly above x and the edges among them."""
    _check_vertex(g, x)
    return _induced(g, [j for j in range(g.n_vertices) if g.less(x, j)])


def above_punctured(g: MomentGraph, x: int) -> Subgraph:
    """above(g, x) with the up edges of x dangling."""
    base = above(g, x)
    return Subgraph(base.vertices, tuple(sorted(set(base.edges) | set(g.up[x]))))


def up_edges(g: MomentGraph, x: int) -> Subgraph:
    """The up-edge star U_x: no vertices, every edge dangling."""
    return Subgraph((), tuple(g.up[_check_vertex(g, x)]))


def _h_edges(g: MomentGraph, h: Subspace) -> list[int]:
    """The edges whose direction lies in h: all of them when h is the whole
    of t*.  Directions are normalized, so each distinct one is tested
    against a smaller h once."""
    if h.dim == g.dim_t:
        return list(range(len(g.edges)))
    inside: dict[Direction, bool] = {}
    out = []
    for k, e in enumerate(g.edges):
        hit = inside.get(e.direction)
        if hit is None:
            hit = inside[e.direction] = h.contains(e.direction)
        if hit:
            out.append(k)
    return out


def _component(g: MomentGraph, x: int, edge_ids: Iterable[int]) -> set[int]:
    adj: dict[int, list[int]] = {}
    for k in edge_ids:
        e = g.edges[k]
        adj.setdefault(e.lower, []).append(e.upper)
        adj.setdefault(e.upper, []).append(e.lower)
    seen = {x}
    todo = [x]
    while todo:
        i = todo.pop()
        for j in adj.get(i, ()):
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def _slice(g: MomentGraph, x: int, h_edges: list[int]) -> Subgraph:
    """The planar slice above x: the vertices above x of x's component in
    the graph of the edges h_edges (those with direction in a 2-plane H),
    the edges among them, and the up edges of x among h_edges, dangling."""
    comp = _component(g, x, h_edges)
    verts = tuple(sorted(j for j in comp if g.less(x, j)))
    vset = set(verts)
    up = set(g.up[x])
    edges = {
        k
        for k in h_edges
        if k in up or (g.edges[k].lower in vset and g.edges[k].upper in vset)
    }
    return Subgraph(verts, tuple(sorted(edges)))


class GraphPlanes:
    """The 2-planes of t* spanned by pairs of edge directions of one graph,
    each with the edges whose direction lies in it, filled in as
    planar_family asks.  The graph keeps one (MomentGraph.planes), and
    nothing changes its edges after construction, so each pair of directions
    is spanned once and each plane's edges are listed once, however many
    vertices planar_family reads them for."""

    def __init__(self, g: MomentGraph):
        self.graph = g
        self._pairs: dict[tuple[Direction, Direction], tuple | None] = {}
        self.edges: dict[tuple, list[int]] = {}

    def key(self, d1: Direction, d2: Direction) -> tuple | None:
        """The plane spanned by d1 and d2, as the primitive integer form of
        its RREF basis, or None if they are parallel."""
        pair = (d1, d2) if d1 < d2 else (d2, d1)
        if pair not in self._pairs:
            h = Subspace(self.graph.dim_t, pair)
            key = None
            if h.dim == 2:
                key = tuple(primitive_integer(v) for v in h.basis_vectors())
                if key not in self.edges:
                    self.edges[key] = _h_edges(self.graph, h)
            self._pairs[pair] = key
        return self._pairs[pair]


def planar_family(g: MomentGraph, x: int) -> list[Subgraph]:
    """The planar slices above x (see _slice), one for each 2-plane spanned
    by a pair of edge directions in the closure above x whose slice has
    more than one edge, in the order of the planes' keys; the dangling
    edges of a slice are the up edges of x in its plane.  The planes come
    from g.planes, made here on the first call.

    With a single edge (or none) the restriction onto the upward edge
    modules is automatically surjective, so such planes impose nothing.
    Counting must include the upward (dangling) edges: a 2-dimensional orbit
    family can close into a triangle over x, which has only one edge
    strictly above x but still constrains the two upward edge values.
    """
    _check_vertex(g, x)
    planes = g.planes
    if planes is None:
        planes = g.planes = GraphPlanes(g)
    closure = {j for j in range(g.n_vertices) if g.leq(x, j)}
    dirs = {e.direction for e in g.edges if e.lower in closure and e.upper in closure}
    keys = {planes.key(d1, d2) for d1, d2 in combinations(dirs, 2)} - {None}
    slices = (_slice(g, x, planes.edges[key]) for key in sorted(keys))
    return [sub for sub in slices if len(sub.edges) > 1]


# ---------------------------------------------------------------------------
# JSON and DOT serialization


def save_graph(g: MomentGraph) -> dict:
    """JSON document for a graph; rationals are canonical 'p/q' strings."""
    return {
        "dim_t": g.dim_t,
        "vertices": [{"id": label, "rank": r} for label, r in zip(g.labels, g.ranks)],
        "order": {"covers": [[g.labels[i], g.labels[j]] for i, j in g.covers()]},
        "edges": [
            {
                "lower": g.labels[e.lower],
                "upper": g.labels[e.upper],
                "direction": [str(c) for c in e.direction],
            }
            for e in g.edges
        ],
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_schema(doc) -> None:
    """The shape of a graph document, checked before anything reads it."""

    def fail(msg: str) -> None:
        raise ValidationError(f"malformed graph document: {msg}")

    if not isinstance(doc, dict):
        fail("the document must be an object")
    for key in ("dim_t", "vertices", "order", "edges"):
        if key not in doc:
            fail(f"missing {key!r}")
    if not _is_int(doc["dim_t"]):
        fail("dim_t must be an integer")
    order = doc["order"]
    if not isinstance(order, dict) or not isinstance(order.get("covers"), list):
        fail("order must be an object with a covers list")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        fail("vertices and edges must be lists")
    for vd in doc["vertices"]:
        if not isinstance(vd, dict) or "id" not in vd:
            fail(f"vertex {vd!r} is not an object with an id")
        if vd.get("rank") is not None and not _is_int(vd["rank"]):
            fail(f"vertex {vd['id']!r} has a rank that is not an integer")
    for pair in order["covers"]:
        if not isinstance(pair, list) or len(pair) != 2:
            fail(f"cover {pair!r} is not a pair of vertex ids")
    for ed in doc["edges"]:
        if not isinstance(ed, dict) or not {"lower", "upper", "direction"} <= ed.keys():
            fail(f"edge {ed!r} is not an object with lower, upper and direction")
        if not isinstance(ed["direction"], list):
            fail(f"edge {ed['lower']}--{ed['upper']} direction is not a list")


def _rational(value, where: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{where}: {value!r} is not a rational number") from exc


def load_graph(doc: dict) -> MomentGraph:
    """Parse and validate a graph document (inverse of save_graph)."""
    _check_schema(doc)
    dim_t = doc["dim_t"]
    if dim_t <= 0:
        raise ValidationError("dim_t must be positive")
    labels = tuple(str(vd["id"]) for vd in doc["vertices"])
    index = {lab: i for i, lab in enumerate(labels)}
    covers = []
    for lo, hi in doc["order"]["covers"]:
        lo, hi = str(lo), str(hi)
        if lo not in index or hi not in index:
            raise ValidationError(f"cover [{lo}, {hi}] references unknown vertices")
        covers.append((index[lo], index[hi]))
    leq_bits, chain_ranks = order_closure(len(labels), covers)

    edges = []
    for ed in doc["edges"]:
        lo, hi = str(ed["lower"]), str(ed["upper"])
        if lo not in index or hi not in index:
            raise ValidationError(f"edge {lo}--{hi} references unknown vertices")
        where = f"edge {lo}--{hi} direction"
        direction = tuple(_rational(c, where) for c in ed["direction"])
        edges.append(Edge(index[lo], index[hi], direction))

    ranks = [vd.get("rank") for vd in doc["vertices"]]
    return MomentGraph(
        dim_t=dim_t,
        labels=labels,
        edges=tuple(edges),
        leq_bits=tuple(leq_bits),
        ranks=tuple(chain_ranks if None in ranks else ranks),
        schubert_origin=False,
    )


def save_graph_json(g: MomentGraph) -> str:
    """save_graph's document, byte for byte as json.dumps(doc, indent=2,
    sort_keys=True) writes it, formatted straight from the graph into one
    list joined once: each label is escaped once by json's (C) encoder, and
    each distinct direction (dim_t > 0 ints) is laid out once, unescaped."""
    q = [encode_basestring_ascii(label) for label in g.labels]
    blocks: dict[Direction, str] = {}
    out = ['{\n  "dim_t": ', str(g.dim_t), ',\n  "edges": [']
    sep = "\n    "
    for e in g.edges:
        block = blocks.get(e.direction)
        if block is None:
            entries = '",\n        "'.join(map(str, e.direction))
            block = blocks[e.direction] = (
                f'{{\n      "direction": [\n        "{entries}"\n      ],\n      "lower": '
            )
        out += (sep, block, q[e.lower], ',\n      "upper": ', q[e.upper], "\n    }")
        sep = ",\n    "
    out += ("\n  ]" if g.edges else "]", ',\n  "order": {\n    "covers": [')
    sep = "\n      [\n        "
    covers = g.covers()
    for i, j in covers:
        out += (sep, q[i], ",\n        ", q[j], "\n      ]")
        sep = ",\n      [\n        "
    out += ("\n    ]" if covers else "]", '\n  },\n  "vertices": [')
    sep = '\n    {\n      "id": '
    for label, rank in zip(q, g.ranks):
        out += (sep, label, ',\n      "rank": ', str(rank), "\n    }")
        sep = ',\n    {\n      "id": '
    out += ("\n  ]" if q else "]", "\n}\n")
    return "".join(out)


def to_dot(g: MomentGraph) -> str:
    """DOT rendering: vertices grouped by poset rank, edges labelled with
    their direction vectors.  Each label is quoted once as a DOT string
    (\\ and " escaped) and each distinct direction's label is formatted
    once, into one list joined once."""
    q = ['"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"' for label in g.labels]
    out = ["digraph moment_graph {\n  rankdir=BT;\n  node [shape=ellipse];\n"]
    by_rank: dict[int, list[int]] = {}
    for i in range(g.n_vertices):
        by_rank.setdefault(g.ranks[i], []).append(i)
    for r in sorted(by_rank):
        ids = " ".join(f"{q[i]};" for i in by_rank[r])
        out.append(f"  {{ rank=same; {ids} }}\n")
    tails: dict[Direction, str] = {}
    for e in g.edges:
        tail = tails.get(e.direction)
        if tail is None:
            tail = tails[e.direction] = f' [label="({",".join(map(str, e.direction))})"];\n'
        out += ("  ", q[e.lower], " -> ", q[e.upper], tail)
    out.append("}\n")
    return "".join(out)
