"""Tests for moment-graph construction, selection, and serialization."""

import json
import random
from itertools import combinations

import pytest

from momentsheaf.coxeter import bruhat_leq, mat_vec, minimal_coset_reps, weyl_group
from momentsheaf.errors import ValidationError
from momentsheaf.exactalg import primitive_integer
from momentsheaf.moment_graph import (
    Edge,
    MomentGraph,
    above,
    above_punctured,
    load_graph,
    order_closure,
    planar_family,
    save_graph,
    save_graph_json,
    schubert_moment_graph,
    to_dot,
    up_edges,
    whole,
)
from helpers import finite_two_orbit_test, reflection_element, vertex


def full_flag_graph(family, rank):
    W = weyl_group(family, rank)
    return W, schubert_moment_graph(W, W.longest)


def test_a1_graph():
    W, g = full_flag_graph("A", 1)
    assert g.n_vertices == 2
    assert len(g.edges) == 1
    assert g.edges[0].direction == (1,)  # the simple root, primitive


def test_a2_graph_shape():
    W, g = full_flag_graph("A", 2)
    assert g.n_vertices == 6
    assert len(g.edges) == 9
    e = vertex(g, "e")
    assert len(g.up[e]) == 3  # three lines through the bottom vertex
    top = g.unique_maximal()
    assert g.labels[top] == "121"


def test_a3_graph_edge_count():
    W, g = full_flag_graph("A", 3)
    assert g.n_vertices == 24
    assert len(g.edges) == 6 * 24 // 2


def test_down_degree_equals_length():
    for family, rank in [("A", 2), ("B", 2), ("A", 3)]:
        W, g = full_flag_graph(family, rank)
        for i in range(g.n_vertices):
            assert len(g.down[i]) == g.ranks[i]


def test_schubert_requires_minimal_rep():
    W = weyl_group("A", 2)
    s1 = W.element_of_word([1])
    with pytest.raises(ValidationError):
        schubert_moment_graph(W, s1, J=(1,))


def test_parabolic_quotient_graph():
    W = weyl_group("A", 3)
    reps = minimal_coset_reps(W, (1, 3))
    top = max(reps, key=lambda r: r.length)
    g = schubert_moment_graph(W, top, J=(1, 3))
    assert g.n_vertices == 6
    assert g.unique_maximal() == vertex(g, top.word_str())


def test_interval_graph_not_whole_group():
    W = weyl_group("A", 3)
    w = W.element_of_word([2, 1, 3, 2])
    g = schubert_moment_graph(W, w)
    assert g.n_vertices == sum(1 for y in W.elements if bruhat_leq(W, y, w))
    assert g.labels[g.unique_maximal()] == "2132"


def test_select_whole_and_up_edges():
    W, g = full_flag_graph("A", 2)
    everything = whole(g)
    assert len(everything.vertices) == 6 and len(everything.edges) == 9
    st = vertex(g, "12")
    assert len(up_edges(g, st).edges) == 1
    s = vertex(g, "1")
    assert len(up_edges(g, s).edges) == 2


def test_select_above_sets():
    W, g = full_flag_graph("A", 2)
    e = vertex(g, "e")
    strictly_above = above(g, e)
    assert set(strictly_above.vertices) == {i for i in range(6) if i != e}
    punctured = above_punctured(g, e)
    assert set(punctured.edges) - set(strictly_above.edges) == set(g.up[e])
    with pytest.raises(ValidationError):
        above(g, 99)


def test_direction_normalization_idempotent():
    W, g = full_flag_graph("B", 2)
    from momentsheaf.exactalg import primitive_integer

    for e in g.edges:
        assert primitive_integer(e.direction) == e.direction
        first = next(c for c in e.direction if c != 0)
        assert first > 0


@pytest.mark.parametrize("family,rank", [("B", 3), ("F", 4)])
def test_each_edge_direction_is_normalized_once(monkeypatch, family, rank):
    """The constructor normalizes each distinct direction once, not once per
    edge, on a Schubert graph and on its saved document loaded back."""
    import momentsheaf.moment_graph as mg

    W, g = full_flag_graph(family, rank)
    doc = save_graph(g)
    calls = []

    def counted(vec):
        calls.append(tuple(vec))
        return primitive_integer(vec)

    monkeypatch.setattr(mg, "primitive_integer", counted)
    for build in (lambda: schubert_moment_graph(W, W.longest), lambda: load_graph(doc)):
        calls.clear()
        h = build()
        assert len(calls) == len(set(calls)) == len({e.direction for e in h.edges})
        assert len(h.edges) > len(calls)
        assert h.edges == g.edges


def test_json_roundtrip_identity():
    for family, rank in [("A", 2), ("B", 2)]:
        W, g = full_flag_graph(family, rank)
        doc = save_graph(g)
        g2 = load_graph(json.loads(json.dumps(doc)))
        assert save_graph(g2) == doc
        assert g2.labels == g.labels
        assert g2.edges == g.edges
        assert g2.leq_bits == g.leq_bits


def test_load_rejects_incomparable_edge():
    doc = {
        "dim_t": 1,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "order": {"covers": [["a", "b"]]},
        "edges": [{"lower": "a", "upper": "c", "direction": ["1"]}],
    }
    with pytest.raises(ValidationError) as err:
        load_graph(doc)
    assert "a--c" in str(err.value)


def test_load_rejects_zero_direction_and_cycles():
    base = {
        "dim_t": 1,
        "vertices": [{"id": "a"}, {"id": "b"}],
        "order": {"covers": [["a", "b"]]},
        "edges": [{"lower": "a", "upper": "b", "direction": ["0"]}],
    }
    with pytest.raises(ValidationError):
        load_graph(base)
    cyclic = {
        "dim_t": 1,
        "vertices": [{"id": "a"}, {"id": "b"}],
        "order": {"covers": [["a", "b"], ["b", "a"]]},
        "edges": [],
    }
    with pytest.raises(ValidationError):
        load_graph(cyclic)


def test_load_closes_a_chain_deeper_than_the_recursion_limit():
    n = 1100
    labels = [f"v{i}" for i in range(n)]
    doc = {
        "dim_t": 1,
        "vertices": [{"id": lab, "rank": i} for i, lab in enumerate(labels)],
        "order": {"covers": [[a, b] for a, b in zip(labels, labels[1:])]},
        "edges": [],
    }
    g = load_graph(doc)
    assert g.leq(0, n - 1) and not g.leq(n - 1, 0)
    assert g.leq_bits[0] == (1 << n) - 1


def test_multiple_maximal_allowed_in_model():
    doc = {
        "dim_t": 1,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "order": {"covers": [["a", "b"], ["a", "c"]]},
        "edges": [{"lower": "a", "upper": "b", "direction": ["1"]}],
    }
    g = load_graph(doc)
    assert len(g.maximal_vertices()) == 2
    with pytest.raises(ValidationError):
        g.unique_maximal()


def test_planar_family_a1_empty():
    W, g = full_flag_graph("A", 1)
    assert planar_family(g, vertex(g, "e")) == []


def test_planar_family_a2_single_plane():
    W, g = full_flag_graph("A", 2)
    fam = planar_family(g, vertex(g, "e"))
    assert len(fam) == 1
    slice_ = fam[0]
    assert set(slice_.vertices) == {i for i in range(6) if g.labels[i] != "e"}
    assert len(slice_.edges) == 9  # six above the bottom vertex plus its three up edges


def test_planar_family_a3_rank2_subsystems():
    W, g = full_flag_graph("A", 3)
    e = vertex(g, "e")
    fam = planar_family(g, e)
    # spans of pairs of the 6 positive roots of A3, deduplicated
    from itertools import combinations

    from fractions import Fraction
    from momentsheaf.exactalg import Subspace, primitive_integer

    def plane(directions):
        h = Subspace(3, [[Fraction(c) for c in d] for d in directions])
        return tuple(primitive_integer(v) for v in h.basis_vectors()) if h.dim == 2 else None

    roots = [r.positive_root for r in W.reflections]
    keys = {plane(pair) for pair in combinations(roots, 2)} - {None}
    # each slice's edge directions span one of the root-pair planes
    assert {plane([g.edges[k].direction for k in s.edges]) for s in fam} <= keys
    assert all(len(s.edges) > 1 for s in fam)


def test_finite_two_orbit():
    W, g2 = full_flag_graph("A", 2)
    assert not finite_two_orbit_test(g2, vertex(g2, "e"))
    st = vertex(g2, "12")
    assert finite_two_orbit_test(g2, st)  # only one up edge
    # Grassmannian-type quotient: true at every vertex
    W3 = weyl_group("A", 3)
    reps = minimal_coset_reps(W3, (1, 2))
    top = max(reps, key=lambda r: r.length)
    gq = schubert_moment_graph(W3, top, J=(1, 2))
    for x in range(gq.n_vertices):
        assert finite_two_orbit_test(gq, x)


def test_dot_export_mentions_every_vertex_and_rank():
    W, g = full_flag_graph("A", 2)
    dot = to_dot(g)
    for lab in g.labels:
        assert f'"{lab}"' in dot
    assert dot.count("rank=same") == 4  # ranks 0..3
    assert "->" in dot and "label=" in dot


def test_save_graph_json_stable():
    W, g = full_flag_graph("A", 2)
    assert save_graph_json(g) == save_graph_json(g)


def test_save_graph_json_writes_the_bytes_of_json_dumps():
    """The schema-specific writer matches json.dumps(indent=2, sort_keys=True)
    on Schubert graphs, on a graph with no edges and on labels that need
    escaping."""
    graphs = [full_flag_graph(f, r)[1] for f, r in (("A", 1), ("A", 3), ("B", 3), ("G", 2))]
    W = weyl_group("B", 3)
    top = max(minimal_coset_reps(W, (1,)), key=lambda r: r.length)
    graphs.append(schubert_moment_graph(W, top, (1,)))
    graphs.append(load_graph({
        "dim_t": 2,
        "vertices": [{"id": 'a"\\\u00e9', "rank": 0}, {"id": "b\n\u2603", "rank": 1}],
        "order": {"covers": [['a"\\\u00e9', "b\n\u2603"]]},
        "edges": [{"lower": 'a"\\\u00e9', "upper": "b\n\u2603", "direction": ["1/2", "-3"]}],
    }))
    graphs.append(load_graph({
        "dim_t": 1, "vertices": [{"id": "x"}], "order": {"covers": []}, "edges": [],
    }))
    for g in graphs:
        assert save_graph_json(g) == json.dumps(save_graph(g), indent=2, sort_keys=True) + "\n"


def test_random_document_roundtrip():
    import random
    from fractions import Fraction

    rng = random.Random(20260810)
    for _ in range(10):
        n = rng.randint(2, 8)
        dim = rng.randint(1, 3)
        labels = [f"v{i}" for i in range(n)]
        covers = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    covers.append([labels[i], labels[j]])
        doc = {
            "dim_t": dim,
            "vertices": [{"id": l} for l in labels],
            "order": {"covers": covers},
            "edges": [],
        }
        g = load_graph(doc)
        # attach a random edge along each cover relation
        edges = []
        for lo, hi in covers:
            direction = [0] * dim
            while all(c == 0 for c in direction):
                direction = [rng.randint(-3, 3) for _ in range(dim)]
            edges.append(
                {
                    "lower": lo,
                    "upper": hi,
                    "direction": [str(Fraction(c, rng.randint(1, 3))) for c in direction],
                }
            )
        doc["edges"] = edges
        g = load_graph(doc)
        doc2 = save_graph(g)
        assert save_graph(load_graph(doc2)) == doc2


def _bruhat_bits(W, reps):
    """The order as the Schubert builder once took it: a bruhat_leq call for
    every pair of vertices."""
    return tuple(
        sum(1 << j for j, z in enumerate(reps) if bruhat_leq(W, y, z)) for y in reps
    )


def _matrix_edges(W, w, J):
    """The reflection edges as (lower, upper, direction), by applying the
    matrix of every reflection to every orbit point of the sum of the
    fundamental weights off J."""
    reps = [y for y in minimal_coset_reps(W, J) if bruhat_leq(W, y, w)]
    weights = W.cartan.fundamental_weights
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


@pytest.mark.parametrize(
    "family, rank, sampled",
    [("A", 1, None), ("A", 2, None), ("B", 2, None), ("G", 2, None),
     ("A", 3, None), ("B", 3, None), ("C", 3, None),
     ("B", 4, 3), ("D", 4, 3), ("F", 4, 2)],
)
def test_reflection_edges_close_to_the_bruhat_order(family, rank, sampled):
    """Every proper J, with every w in W^J or a seeded sample of them: the
    order is the Bruhat order, and the edges are those of the reflection
    matrices."""
    W = weyl_group(family, rank)
    rng = random.Random(f"{family}{rank}")
    for k in range(rank):
        for J in combinations(range(1, rank + 1), k):
            reps = minimal_coset_reps(W, J)
            ws = reps
            if sampled is not None:
                # short enough that the pairwise reference stays cheap
                ws = rng.sample([y for y in reps if y.length <= 12], sampled)
            for w in ws:
                g = schubert_moment_graph(W, w, J)
                below = [y for y in reps if bruhat_leq(W, y, w)]
                assert g.labels == tuple(y.word_str() for y in below)
                assert g.leq_bits == _bruhat_bits(W, below)
                assert [(e.lower, e.upper, e.direction) for e in g.edges] \
                    == _matrix_edges(W, w, J)


def _poset_ranks(leq_bits, n):
    """Longest-chain ranks by the formula order_closure replaced: each vertex
    after all vertices with smaller down-sets, one above the highest rank
    strictly below it."""

    def downset_size(i):
        return sum(1 for j in range(n) if (leq_bits[j] >> i) & 1)

    rank = [0] * n
    for i in sorted(range(n), key=downset_size):
        below = [j for j in range(n) if j != i and (leq_bits[j] >> i) & 1]
        rank[i] = 1 + max((rank[j] for j in below), default=-1)
    return rank


def test_order_closure_on_random_posets():
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)  # so that index order is not a linear extension
        pairs = [(perm[i], perm[j]) for i, j in combinations(range(n), 2) if rng.random() < 0.3]
        leq_bits, ranks = order_closure(n, pairs)
        reach = [[i == j for j in range(n)] for i in range(n)]
        for lo, hi in pairs:
            reach[lo][hi] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        assert leq_bits == [sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)]
        assert ranks == _poset_ranks(leq_bits, n)
        # covers() against the transitive reduction of the reach table
        g = MomentGraph(
            dim_t=1, labels=tuple(map(str, range(n))), edges=(),
            leq_bits=tuple(leq_bits), ranks=tuple(ranks),
        )
        strict = [[i != j and reach[i][j] for j in range(n)] for i in range(n)]
        assert g.covers() == [
            (i, j) for i in range(n) for j in range(n)
            if strict[i][j] and not any(strict[i][k] and strict[k][j] for k in range(n))
        ]
    for pairs in ([(0, 0)], [(0, 1), (1, 2), (2, 0)]):
        with pytest.raises(ValidationError, match="cycle"):
            order_closure(3, pairs)


@pytest.mark.parametrize(
    "leq_bits, ranks, message",
    [
        ((0b10, 0b10), (0, 1), "order is not reflexive"),
        ((0b11, 0b11), (0, 1), r"strictly increase along the order \(b vs a\)"),
        ((0b11, 0b10), (1, 0), r"strictly increase along the order \(a vs b\)"),
        ((0b11, 0b10), (0, 0), r"strictly increase along the order \(a vs b\)"),
    ],
)
def test_constructor_validates_the_order(leq_bits, ranks, message):
    with pytest.raises(ValidationError, match=message):
        MomentGraph(dim_t=1, labels=("a", "b"), edges=(), leq_bits=leq_bits, ranks=ranks)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([Edge(0, 0, (1,))], "edge a--a joins order-incomparable or misordered"),
        ([Edge(1, 0, (1,))], "edge b--a joins order-incomparable or misordered"),
        ([Edge(0, 1, (1,)), Edge(0, 1, (2,))], "duplicate edge a--b"),
        ([Edge(0, 1, (1, 0))], "edge a--b has a direction of wrong length"),
        ([Edge(0, 1, (0,))], "edge a--b has zero direction"),
    ],
)
def test_constructor_validates_the_edges(edges, message):
    with pytest.raises(ValidationError, match=message):
        MomentGraph(dim_t=1, labels=("a", "b"), edges=tuple(edges),
                    leq_bits=(0b11, 0b10), ranks=(0, 1))


@pytest.mark.parametrize("with_ranks", [True, False])
def test_load_a_2000_vertex_chain(with_ranks):
    n = 2000
    labels = [f"v{i}" for i in range(n)]
    doc = {
        "dim_t": 1,
        "vertices": [{"id": lab, "rank": i} if with_ranks else {"id": lab}
                     for i, lab in enumerate(labels)],
        "order": {"covers": [[a, b] for a, b in zip(labels, labels[1:])]},
        "edges": [{"lower": a, "upper": b, "direction": ["-2"]}
                  for a, b in zip(labels, labels[1:])],
    }
    g = load_graph(doc)
    assert g.ranks == tuple(range(n))
    assert g.leq_bits == tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n))
    assert g.maximal_vertices() == [n - 1]
    assert {e.direction for e in g.edges} == {(1,)}


def _per_edge_h_edges(g, h):
    """The H-edges with one membership test per edge: the reference for the
    per-direction test in moment_graph._h_edges."""
    from fractions import Fraction

    return [
        k for k, e in enumerate(g.edges) if h.contains([Fraction(c) for c in e.direction])
    ]


def _planar_family_graphs():
    import random

    W3 = weyl_group("A", 3)
    a3 = schubert_moment_graph(W3, W3.longest)
    G2 = weyl_group("G", 2)
    B3 = weyl_group("B", 3)
    top_j1 = max(minimal_coset_reps(B3, (1,)), key=lambda r: r.length)
    # A3 poset with directions drawn from a small pool, so lines repeat and
    # the graph is not GKM
    rng = random.Random(20261018)
    pool = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(5)]
    pool = [p for p in pool if any(p)] or [[1, 0, 0]]
    doc = save_graph(a3)
    for edge in doc["edges"]:
        edge["direction"] = [str(c) for c in rng.choice(pool)]
    return {
        "A3": a3,
        "G2": schubert_moment_graph(G2, G2.longest),
        "B3/J1": schubert_moment_graph(B3, top_j1, (1,)),
        "B3/213213": schubert_moment_graph(B3, B3.element_of_word([2, 1, 3, 2, 1, 3])),
        "generic-A3": load_graph(doc),
    }


def test_planar_family_matches_per_edge_reference(monkeypatch):
    import momentsheaf.moment_graph as mg

    for name, g in _planar_family_graphs().items():
        got = [planar_family(g, x) for x in range(g.n_vertices)]
        with monkeypatch.context() as m:
            m.setattr(mg, "_h_edges", _per_edge_h_edges)
            expected = [planar_family(g, x) for x in range(g.n_vertices)]
        assert got == expected, name
