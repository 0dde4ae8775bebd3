"""Tests for section spaces, the canonical construction, transports, the
planar and polygon images, and purity."""

import json
from fractions import Fraction as Q

import pytest

from momentsheaf.errors import ValidationError
from momentsheaf.exactalg import QMatrix, edge_ring, graded_dim, matrix_rank
from momentsheaf.hecke_oracle import _padd, _pshift, kl_polynomial
from momentsheaf.klpoly import KLPolynomial
from momentsheaf.coxeter import bruhat_leq
from momentsheaf.moment_graph import (
    Subgraph,
    above_punctured,
    load_graph,
    save_graph,
    up_edges,
    whole,
)
from momentsheaf.sheaf import (
    RhoMap,
    GammaSheaf,
    GradedFreeModule,
    SectionSpace,
    boundary_image,
    canonical_sheaf,
    degree_bounds,
    global_hilbert,
    monotonicity_check,
    planar_image,
    rho_degree_matrix,
    sections,
    sheaf_dump,
    stalk_poincare,
    stalk_table_csv,
    sweep_order,
    verify_pure,
)
from helpers import (
    KL_ONE,
    SpanQuotient,
    _transport_entries,
    built_past_the_bound,
    check_sections,
    increasing_paths,
    polygon_image,
    poly_scale,
    reference_planar_image,
    section_dims,
    set_rho_corner,
    solved_images,
    structure_sheaf,
    transport_degree_matrix,
    vertex,
    vpath_map,
    zero_rho_corner,
)
from test_certificate import _kl_battery_generic_graph
from test_coxeter import INVENTORY
from test_golden import _generic_a3_doc


def expected_section_dims(lengths, n, d_max):
    """Free-module Hilbert oracle: dims of a free module with generators in
    the given degrees over Q[x1..xn]."""
    return [
        sum(graded_dim(n, d - l) for l in lengths) for d in range(d_max + 1)
    ]


# -- structure sheaf ---------------------------------------------------------


def test_structure_sheaf_a1_inventory(lab):
    g = lab.graph("A", 1)
    sh = structure_sheaf(g)
    assert all(m.gens == (0,) for m in sh.vertex_modules.values())
    assert len(sh.rho) == len(g.edges) == 1
    secs = sections(sh, whole(g), 1)
    # pairs of linear forms congruent mod alpha: automatic in one variable
    assert section_dims(secs) == [1, 2]


def test_structure_sheaf_a2_section_dims(lab):
    # equivariant cohomology of SL3/B is free with generators in the Bruhat
    # lengths; degreewise dims follow the free-module Hilbert oracle
    g = lab.graph("A", 2)
    sh = structure_sheaf(g)
    secs = sections(sh, whole(g), 3)
    assert section_dims(secs) == expected_section_dims([0, 1, 1, 2, 2, 3], 2, 3)
    assert section_dims(secs)[0] == 1  # constants only, the graph is connected
    assert check_sections(sh, whole(g), secs)


def test_sections_single_vertex_is_free_module(lab):
    g = lab.graph("A", 2)
    sh = structure_sheaf(g)
    sub = Subgraph((vertex(g, "12"),), ())
    secs = sections(sh, sub, 3)
    assert section_dims(secs) == [graded_dim(2, d) for d in range(4)]


def test_sections_up_edges_is_full_product(lab):
    g = lab.graph("A", 2)
    sh = structure_sheaf(g)
    e = vertex(g, "e")
    secs = sections(sh, up_edges(g, e), 2)
    # three edge rings in one variable each
    assert section_dims(secs) == [3, 3, 3]


def test_check_sections_rejects_a_flipped_coordinate(lab):
    # above e in A2: five vertices, six interior edges and the three up
    # edges of e dangling, so the checker compares vertex values with each
    # other and with free edge values
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    sub = above_punctured(g, vertex(g, "e"))
    secs = sections(sh, sub, 1)
    assert check_sections(sh, sub, secs)
    layout = secs.layouts[1]
    assert {kind for kind, _ in layout.components} == {"v", "e"}
    for vec in secs.bases[1]:
        for c in range(layout.total):
            bad = list(vec)
            bad[c] += 1
            flipped = SectionSpace(secs.layouts, {1: [tuple(bad)]})
            assert not check_sections(sh, sub, flipped)


# -- canonical sheaf ---------------------------------------------------------

# every INVENTORY group at its longest element but F4, whose longest element
# does not build in tier-1 time, at a Coxeter element
SHAPE_SHEAVES = [
    (f, r, "4321" if (f, r) == ("F", 4) else "longest") for f, r, *_ in INVENTORY
]


@pytest.mark.parametrize(
    "family,rank,word", SHAPE_SHEAVES + [("generic", 3, "bound2")],
    ids=[f"{f}{r}-{w}" for f, r, w in SHAPE_SHEAVES] + ["generic-A3-bound2"],
)
def test_a_sheaf_is_its_stalks_and_one_restriction_per_edge(lab, family, rank, word):
    if family == "generic":
        sh = canonical_sheaf(load_graph(_generic_a3_doc()), degree_bound=2)
    else:
        sh = lab.sheaf(family, rank, word)
    g = sh.graph
    assert GammaSheaf.__slots__ == ("graph", "vertex_modules", "rho", "matrices")
    assert sorted(sh.rho) == list(range(len(g.edges)))
    for k, e in enumerate(g.edges):
        gens, ring = sh.piece("e", k)
        assert ring is edge_ring(e.direction)
        assert gens == sh.vertex_modules[e.upper].gens



def test_canonical_a1_smooth(lab):
    sh = lab.sheaf("A", 1)
    assert all(m.gens == (0,) for m in sh.vertex_modules.values())


def test_canonical_a2_all_stalks_trivial(lab):
    sh = lab.sheaf("A", 2)
    for v in range(6):
        assert stalk_poincare(sh, v) == KL_ONE


def test_canonical_a2_matches_structure_sheaf(lab):
    # the full flag variety is smooth, so the canonical sheaf is the
    # structure sheaf, including the normalization of the lifts
    g = lab.graph("A", 2)
    assert sheaf_dump(lab.sheaf("A", 2)) == sheaf_dump(structure_sheaf(g))


def test_canonical_a2_boundary_modules(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    # one up edge at st: boundary module is the full edge ring A_L
    st = vertex(g, "12")
    assert section_dims(boundary_image(sh, st, 2)) == [1, 1, 1]
    # two up edges at s: pairs with matching constants, A/(V_L V_L') shape
    s = vertex(g, "1")
    assert section_dims(boundary_image(sh, s, 3)) == [1, 2, 2, 2]
    # at the bottom the degree-1 image has dimension 2, not 3
    e = vertex(g, "e")
    assert section_dims(boundary_image(sh, e, 1)) == [1, 2]


def test_canonical_a3_singular_stalk_matches_oracle(lab):
    W = lab.group("A", 3)
    g = lab.graph("A", 3, "2132")
    sh = lab.sheaf("A", 3, "2132")
    assert stalk_poincare(sh, vertex(g, "e")) == KLPolynomial((1, 1))
    w = lab.element("A", 3, "2132")
    for v in range(g.n_vertices):
        x = lab.element("A", 3, g.labels[v])
        assert stalk_poincare(sh, v) == kl_polynomial(W, x, w)


@pytest.mark.parametrize("gens, expected", [((2, 0, 1, 0), (0, 0, 1, 2)), ((), ()), ((1, -1), None)])
def test_graded_free_module_sorts_its_degrees(gens, expected):
    if expected is None:
        with pytest.raises(ValidationError, match="nonnegative"):
            GradedFreeModule(gens)
        return
    module = GradedFreeModule(gens)
    assert (module.gens, module.rank) == (expected, len(expected))


def test_canonical_requires_unique_maximal():
    doc = {
        "dim_t": 1,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "order": {"covers": [["a", "b"], ["a", "c"]]},
        "edges": [
            {"lower": "a", "upper": "b", "direction": ["1"]},
            {"lower": "a", "upper": "c", "direction": ["1"]},
        ],
    }
    g = load_graph(doc)
    with pytest.raises(ValidationError):
        canonical_sheaf(g, degree_bound=1)


def test_canonical_generic_graph_needs_bound(lab):
    g = load_graph(save_graph(lab.graph("A", 2)))
    with pytest.raises(ValidationError):
        canonical_sheaf(g)
    sh = canonical_sheaf(g, degree_bound=1)
    for v in range(6):
        assert stalk_poincare(sh, v) == KL_ONE


def test_canonical_extra_degree_check_clean(lab):
    # computed one degree past the KL bound at every vertex, the sweep finds
    # no generator above a vertex's own bound and builds the same sheaf
    for family, rank, word in [("A", 2, "longest"), ("B", 2, "longest"), ("A", 3, "2132"),
                               ("A", 3, "longest")]:
        built_past_the_bound(lab, family, rank, word)


def test_deterministic_rebuild(lab):
    g = lab.graph("B", 2)
    assert sheaf_dump(canonical_sheaf(g)) == sheaf_dump(canonical_sheaf(g))


# -- outputs -----------------------------------------------------------------


def test_stalk_table_shape(lab):
    table = stalk_table_csv(lab.sheaf("A", 2))
    lines = table.strip().split("\n")
    assert lines[0] == "x,y,P"
    assert len(lines) == 7
    assert lines[1] == "e,121,1"


def test_global_hilbert_a1_a2(lab):
    assert global_hilbert(lab.sheaf("A", 1), 1) == [1, 1]
    assert global_hilbert(lab.sheaf("A", 2), 3) == [1, 2, 2, 1]


def test_global_hilbert_matches_oracle_on_singular_graph(lab):
    W = lab.group("A", 3)
    w = lab.element("A", 3, "2132")
    sh = lab.sheaf("A", 3, "2132")
    expected = ()
    for y in W.elements:
        if bruhat_leq(W, y, w):
            expected = _padd(
                expected, _pshift(kl_polynomial(W, y, w).coeffs, y.length)
            )
    assert tuple(global_hilbert(sh, w.length)) == expected


# -- transports --------------------------------------------------------------


def _full_basis(n):
    return [[Q(int(i == j)) for j in range(n)] for i in range(n)]


def test_vpath_identity(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    t = vpath_map(sh, vertex(g, "1"), vertex(g, "1"), _full_basis(2))
    assert t.path_independent
    assert t.entries[0][0] == {(0, 0): Q(1)}


def test_vpath_bottom_to_top_is_identity_in_degree_zero(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    t = vpath_map(sh, vertex(g, "e"), vertex(g, "121"), _full_basis(2))
    # both reduced stalks are one-dimensional in degree 0
    const = t.entries[0][0].get((0, 0))
    assert const == Q(1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2)])
def test_vpath_independence_exhaustive(lab, family, rank):
    g = lab.graph(family, rank)
    sh = lab.sheaf(family, rank)
    for x in range(g.n_vertices):
        for y in range(g.n_vertices):
            if g.less(x, y):
                t = vpath_map(sh, x, y, _full_basis(rank))
                assert t.path_independent and not t.truncated


def test_vpath_two_dim_subspace(lab):
    # transport inside the plane of the first two simple roots of A3
    g = lab.graph("A", 3)
    sh = lab.sheaf("A", 3)
    v_span = [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]]
    t = vpath_map(sh, vertex(g, "e"), vertex(g, "121"), v_span)
    assert t.path_independent


def test_vpath_requires_a_path(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    with pytest.raises(ValidationError):
        # no V-path from e in a direction line that is not an edge direction
        vpath_map(sh, vertex(g, "1"), vertex(g, "121"), [[Q(5), Q(7)]])


def _edge_verdicts(sh):
    return [monotonicity_check(sh, k) for k in range(len(sh.graph.edges))]


def _edge_verdict(sh):
    return all(all(r.values()) for r in _edge_verdicts(sh))


def test_monotonicity_trivial_and_exhaustive(lab):
    g = lab.graph("B", 2)
    sh = lab.sheaf("B", 2)
    verdicts = _edge_verdicts(sh)
    assert len(verdicts) == 16
    for e, r in zip(g.edges, verdicts):
        # one verdict per generator degree of the upper stalk, every one true
        assert set(r) == set(sh.vertex_modules[e.upper].gens)
        assert all(r.values())


def _reference_monotonicity(sh, x, y, path=None):
    """The surjectivity test on the transport over A/(all coordinate forms)
    along path, by default the first increasing path that increasing_paths
    enumerates, computed with polynomial arithmetic: per degree, the rank of
    the constant terms between the generators of that degree."""
    n = sh.n
    if path is None:
        path = increasing_paths(sh.graph, x, y, set(range(len(sh.graph.edges))), cap=1)[0][0]
    whole_space = SpanQuotient([[int(i == j) for j in range(n)] for i in range(n)])
    entries = _transport_entries(sh, whole_space, x, path)
    src, dst = sh.vertex_modules[x].gens, sh.vertex_modules[y].gens
    out = {}
    for d in sorted(set(dst)):
        rows = [j for j, eg in enumerate(dst) if eg == d]
        cols = [i for i, dg in enumerate(src) if dg == d]
        block = [{c: v for c, i in enumerate(cols) if (v := entries[j][i].get((0,) * n, 0))}
                 for j in rows]
        out[d] = matrix_rank(QMatrix(len(rows), len(cols), block)) == len(rows)
    return out


def _comparable_pairs(g):
    return [(x, y) for x in range(g.n_vertices) for y in range(g.n_vertices) if g.leq(x, y)]


def _all_pairs_verdict(sh):
    """The verdict of the per-pair walk the edge check replaces: the
    reference transport of every comparable pair is surjective."""
    return all(all(_reference_monotonicity(sh, x, y).values())
               for x, y in _comparable_pairs(sh.graph))


@pytest.mark.parametrize(
    "family,rank,J", [("A", 3, ()), ("G", 2, ()), ("B", 3, (1,))], ids=["A3", "G2", "B3-J1"]
)
def test_monotonicity_equals_the_polynomial_transport(lab, family, rank, J):
    sh = lab.sheaf(family, rank, J=J)
    for k, e in enumerate(sh.graph.edges):
        expected = _reference_monotonicity(sh, e.lower, e.upper, (k,))
        assert monotonicity_check(sh, k) == expected, k


# every INVENTORY group whose longest element builds in seconds (F4 does not),
# and three parabolic graphs
EDGE_CLOSURE_GRAPHS = [
    (f, r, ()) for f, r, *_ in INVENTORY if (f, r) != ("F", 4)
] + [("B", 3, (1,)), ("A", 4, (1, 3)), ("G", 2, (2,))]


@pytest.mark.parametrize(
    "family,rank,J", EDGE_CLOSURE_GRAPHS,
    ids=[f"{f}{r}" + ("-J" + "".join(map(str, J)) if J else "") for f, r, J in EDGE_CLOSURE_GRAPHS],
)
def test_the_edge_verdict_equals_the_all_pairs_verdict(lab, family, rank, J):
    sh = lab.sheaf(family, rank, J=J)
    assert _edge_verdict(sh) and _all_pairs_verdict(sh)


@pytest.mark.parametrize("family,rank,n_edges", [("A", 3, 72), ("G", 2, 36), ("B", 2, 16)])
def test_a_zeroed_constant_term_on_any_edge_fails(lab, family, rank, n_edges):
    g = lab.graph(family, rank)
    good = lab.sheaf(family, rank)
    caught = 0
    for k, e in enumerate(g.edges):
        sh = GammaSheaf(g)
        sh.vertex_modules = good.vertex_modules
        sh.rho = dict(good.rho)
        set_rho_corner(sh, k, {})
        edge_ok = _edge_verdict(sh)
        assert edge_ok == _all_pairs_verdict(sh), k
        caught += not edge_ok
    assert caught == len(g.edges) == n_edges


def test_monotonicity_sees_a_zeroed_constant_term(lab):
    g = lab.graph("A", 3)
    sh = canonical_sheaf(g)
    order = sweep_order(g, g.unique_maximal())
    x = order[len(order) // 2]
    assert g.labels[x] == "213"
    zero_rho_corner(sh, x)
    results = _edge_verdicts(sh)
    assert len(results) == 72
    failed = [k for k, r in enumerate(results) if not all(r.values())]
    assert failed == list(g.up[x]) and len(failed) == 3
    assert all(results[k] == {0: False} for k in failed)
    for k, (r, e) in enumerate(zip(results, g.edges)):
        assert r == _reference_monotonicity(sh, e.lower, e.upper, (k,)), k
    assert not _all_pairs_verdict(sh)


# -- polygon and planar images ----------------------------------------------


def test_polygon_single_edge_is_everything(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    st = vertex(g, "12")
    poly = polygon_image(sh, st, 2)
    assert section_dims(poly) == [1, 1, 1]  # all of the edge ring


def test_polygon_pappus_defect(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    e = vertex(g, "e")
    assert section_dims(polygon_image(sh, e, 1)) == [1, 3]
    assert section_dims(boundary_image(sh, e, 1)) == [1, 2]


def test_polygon_contains_boundary_image(lab):
    g = lab.graph("A", 3, "2132")
    sh = lab.sheaf("A", 3, "2132")
    for label in ("e", "2", "21"):
        x = vertex(g, label)
        bi = boundary_image(sh, x, 2)
        po = polygon_image(sh, x, 2)
        for d in range(3):
            assert all(po.subspace(d).contains(v) for v in bi.bases[d])


def test_polygon_exact_on_grassmannian(lab):
    g = lab.graph("A", 3, "longest", J=(1, 3))
    sh = lab.sheaf("A", 3, "longest", J=(1, 3))
    top = g.unique_maximal()
    for x in range(g.n_vertices):
        bound = max((g.ranks[top] - g.ranks[x] - 1) // 2, 0) + 1
        bi = boundary_image(sh, x, bound)
        po = polygon_image(sh, x, bound)
        for d in range(bound + 1):
            assert bi.subspace(d) == po.subspace(d)


def test_planar_empty_family_is_everything(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    st = vertex(g, "12")
    assert section_dims(planar_image(sh, st, 2)) == [1, 1, 1]


def test_planar_equals_sections_b2_everywhere(lab):
    g = lab.graph("B", 2)
    sh = lab.sheaf("B", 2)
    top = g.unique_maximal()
    for x in range(g.n_vertices):
        bound = max((g.ranks[top] - g.ranks[x] - 1) // 2, 0) + 1
        bi = boundary_image(sh, x, bound)
        pl = planar_image(sh, x, bound)
        for d in range(bound + 1):
            assert bi.subspace(d) == pl.subspace(d)


@pytest.mark.parametrize("case", ["generic-A3", "B3-J1"])
def test_planar_image_equals_the_slice_by_slice_reference(lab, tmp_path, monkeypatch, case):
    """planar_image at every vertex, against the sections over each slice
    projected and intersected, on the kl-battery seed-1 generic A3 graph
    (degree bound 2), where P differs from the sections image T at 44 of
    the 69 (vertex, degree) pairs, and on B3/J={1}, where P = T."""
    if case == "generic-A3":
        path = _kl_battery_generic_graph(tmp_path, monkeypatch)
        sh = canonical_sheaf(load_graph(json.loads(path.read_text())), degree_bound=2)
        bounds = [2] * sh.graph.n_vertices
    else:
        sh = lab.sheaf("B", 3, J=(1,))
        bounds = [bound + 1 for bound in degree_bounds(sh.graph)]
    g = sh.graph
    pairs = differ = 0
    for x in (x for x in range(g.n_vertices) if g.up[x]):
        pl = planar_image(sh, x, bounds[x])
        reference = reference_planar_image(sh, x, bounds[x])
        bi = boundary_image(sh, x, bounds[x])
        for d in range(bounds[x] + 1):
            assert pl.subspace(d) == reference[d]
            pairs += 1
            differ += pl.subspace(d) != bi.subspace(d)
    if case == "generic-A3":
        assert (pairs, differ) == (69, 44)
    else:
        assert differ == 0


# -- purity ------------------------------------------------------------------


def test_verify_pure_passes(lab):
    for family, rank, word in [("A", 1, "longest"), ("A", 2, "longest"),
                               ("B", 2, "longest"), ("A", 3, "2132")]:
        sheaf = lab.sheaf(family, rank, word)
        report = verify_pure(sheaf, None, solved_images(sheaf))
        assert report.ok, report.violations


def test_verify_pure_structure_sheaf_a2(lab):
    # the structure sheaf on the smooth full-flag graph is the canonical one
    g = lab.graph("A", 2)
    sheaf = structure_sheaf(g)
    report = verify_pure(sheaf, 2, solved_images(sheaf, 2))
    assert report.ok


def test_verify_pure_detects_dropped_generator(lab):
    g = lab.graph("A", 3, "2132")
    good = lab.sheaf("A", 3, "2132")
    e = vertex(g, "e")
    mutated = GammaSheaf(g)
    mutated.vertex_modules = dict(good.vertex_modules)
    mutated.rho = dict(good.rho)
    # drop the degree-1 generator of the bottom stalk and the matching
    # column of every outgoing restriction
    assert good.vertex_modules[e].gens == (0, 1)
    mutated.vertex_modules[e] = GradedFreeModule((0,))
    for k in g.up[e]:
        rho = good.rho[k]
        mutated.rho[k] = type(rho)(tuple((row[0],) for row in rho.entries))
    report = verify_pure(mutated, None, solved_images(mutated))
    assert not report.ok
    first = report.first_violation
    assert first.vertex == e and first.degree == 1


def test_rho_degree_matrix_follows_a_replaced_rho_entry(lab):
    g = lab.graph("A", 3)
    sheaf = canonical_sheaf(g)
    x = next(v for v in range(g.n_vertices) if len(g.up[v]) > 1)
    k = g.up[x][0]
    before = rho_degree_matrix(sheaf, x, k, 0)
    again = rho_degree_matrix(sheaf, x, k, 0)
    # built afresh on every read: equal, but no object is kept between reads
    assert again.rows == before.rows
    assert again is not before and again.rows is not before.rows
    entries = [list(row) for row in sheaf.rho[k].entries]
    entries[0][0] = poly_scale(entries[0][0], 2)
    sheaf.rho[k] = RhoMap(tuple(tuple(row) for row in entries))
    after = rho_degree_matrix(sheaf, x, k, 0)
    assert after.rows != before.rows
    assert after.rows[0][0] == 2 * before.rows[0][0]


# -- dump --------------------------------------------------------------------


def test_sheaf_dump_fields(lab):
    doc = sheaf_dump(lab.sheaf("A", 3, "2132"))
    assert set(doc) == {"dim_t", "vertices", "edges", "rho"}
    by_id = {v["id"]: v["generator_degrees"] for v in doc["vertices"]}
    assert by_id["e"] == [0, 1]
    assert by_id["2132"] == [0]
    for ed in doc["edges"]:
        assert set(ed) == {"lower", "upper", "alpha", "generator_degrees"}
    for entry in doc["rho"]:
        assert isinstance(entry["matrix"], list)


def test_vpath_independence_line_subspaces(lab):
    # one-dimensional V: paths are chains in a single direction line
    for family, rank in [("A", 2), ("B", 2)]:
        g = lab.graph(family, rank)
        sh = lab.sheaf(family, rank)
        lines = {e.direction for e in g.edges}
        for line in lines:
            v_span = [[Q(c) for c in line]]
            for e in g.edges:
                if e.direction == line:
                    t = vpath_map(sh, e.lower, e.upper, v_span)
                    assert t.path_independent and not t.truncated


def test_vpath_degree_matrix(lab):
    g = lab.graph("A", 2)
    sh = lab.sheaf("A", 2)
    t = vpath_map(sh, vertex(g, "e"), vertex(g, "121"), _full_basis(2))
    m = transport_degree_matrix(sh, t, 0)
    assert (m.nrows, m.ncols) == (1, 1)
    assert m.rows[0] == {0: Q(1)}
    # in positive degrees both reduced stalks vanish
    assert transport_degree_matrix(sh, t, 1).nrows == 0
