"""Tests for moment-graph construction, selection, and serialization."""

import json

import pytest

from momentsheaf.coxeter import bruhat_leq, minimal_coset_reps, weyl_group
from momentsheaf.errors import ValidationError
from momentsheaf.moment_graph import (
    SubgraphSelector,
    finite_two_orbit_test,
    load_graph,
    planar_family,
    save_graph,
    save_graph_json,
    schubert_moment_graph,
    select,
    to_dot,
)


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
    e = g.vertex("e")
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
    assert g.unique_maximal() == g.vertex(top.word_str())


def test_interval_graph_not_whole_group():
    W = weyl_group("A", 3)
    w = W.element_of_word([2, 1, 3, 2])
    g = schubert_moment_graph(W, w)
    assert g.n_vertices == sum(1 for y in W.elements if bruhat_leq(W, y, w))
    assert g.labels[g.unique_maximal()] == "2132"


def test_select_whole_and_up_edges():
    W, g = full_flag_graph("A", 2)
    whole = select(g, SubgraphSelector.whole())
    assert len(whole.vertices) == 6 and len(whole.edges) == 9
    st = g.vertex("12")
    assert len(select(g, SubgraphSelector.up_edges(st)).edges) == 1
    s = g.vertex("1")
    assert len(select(g, SubgraphSelector.up_edges(s)).edges) == 2


def test_select_above_sets():
    W, g = full_flag_graph("A", 2)
    e = g.vertex("e")
    above = select(g, SubgraphSelector.above(e))
    assert set(above.vertices) == {i for i in range(6) if i != e}
    punctured = select(g, SubgraphSelector.above_punctured(e))
    assert set(punctured.edges) - set(above.edges) == set(g.up[e])
    with pytest.raises(ValidationError):
        select(g, SubgraphSelector.above(99))


def test_direction_normalization_idempotent():
    W, g = full_flag_graph("B", 2)
    from momentsheaf.exactalg import primitive_integer

    for e in g.edges:
        assert primitive_integer(e.direction) == e.direction
        first = next(c for c in e.direction if c != 0)
        assert first > 0


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
    assert planar_family(g, g.vertex("e")) == []


def test_planar_family_a2_single_plane():
    W, g = full_flag_graph("A", 2)
    fam = planar_family(g, g.vertex("e"))
    assert len(fam) == 1
    slice_ = fam[0]
    assert set(slice_.subgraph.vertices) == {i for i in range(6) if g.labels[i] != "e"}
    assert slice_.edge_count == 9  # six above the bottom vertex plus its three up edges


def test_planar_family_a3_rank2_subsystems():
    W, g = full_flag_graph("A", 3)
    e = g.vertex("e")
    fam = planar_family(g, e)
    # spans of pairs of the 6 positive roots of A3, deduplicated
    from itertools import combinations

    from fractions import Fraction
    from momentsheaf.exactalg import Subspace, primitive_integer

    keys = set()
    for d1, d2 in combinations(W.positive_roots, 2):
        h = Subspace(3, [[Fraction(c) for c in d1], [Fraction(c) for c in d2]])
        if h.dim == 2:
            keys.add(tuple(primitive_integer(v) for v in h.basis_vectors()))
    assert {s.basis for s in fam} <= keys
    assert all(s.edge_count > 1 for s in fam)


def test_finite_two_orbit():
    W, g2 = full_flag_graph("A", 2)
    assert not finite_two_orbit_test(g2, g2.vertex("e"))
    st = g2.vertex("12")
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
