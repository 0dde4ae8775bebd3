"""Property tests of the section sweep behind canonical_sheaf, and of the
direct solver that checks it.

The sweep reads each boundary image off a generating set of the sections
over the vertices already built.  verify_pure compares every stalk's image
with boundary_image, the direct solver over the punctured upper set, so a
passing report checks the sweep against an independent route.  The random
graphs keep a Schubert poset but draw their edge directions, so most of
them are not GKM and nothing about them is known in advance.

global_hilbert counts a Schubert sheaf's global sections from the stalk
dimensions and the ranks of each rho_x, and builds no sweep; it is compared
with direct_hilbert, the whole-graph solve, and with the Hecke oracle, on
singular graphs and on edge rings that run on Fraction too.  boundary_image
eliminates only the vertex unknowns; it is compared with the
kernel-then-project route kept here.

projective_cover reduces on integer echelon rows; it is compared with the
reduction against a Fraction-normalized RREF (helpers), on drawn image
bases and at every vertex of canonical builds.

In the degrees the cover read, extend(x) solves its lifts on the cover's
pivot rows only; at every vertex of the kl-battery graphs it is compared
with a copy of the sweep that eliminates on every row, and a stalk made too
small is refused there.  The sweep's generators keep integer coefficients.
"""

import copy
import json
import re
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import momentsheaf.sheaf as sheaf_mod
from momentsheaf.coxeter import bruhat_leq, minimal_coset_reps, weyl_group
from momentsheaf.errors import ConsistencyError
from momentsheaf.exactalg import Subspace, edge_ring, exact, poly_to_coeffs, sparse
from momentsheaf.hecke_oracle import parabolic_kl
from momentsheaf.moment_graph import (
    Subgraph,
    above_punctured,
    load_graph,
    save_graph,
    schubert_moment_graph,
    whole,
)
from momentsheaf.sheaf import (
    EdgeModule,
    GammaSheaf,
    GradedFreeModule,
    RhoMap,
    SectionSpace,
    _degree_span,
    boundary_image,
    canonical_sheaf,
    degree_bounds,
    direct_hilbert,
    global_hilbert,
    kl_degree_bound,
    projective_cover,
    section_layout,
    sections,
    sheaf_dump,
    stacked_rho,
    verify_pure,
)
from helpers import built_past_the_bound, check_sections, reference_projective_cover
from test_certificate import _kl_battery_generic_graph
from test_golden import _generic_a3_doc


@lru_cache(maxsize=None)
def _poset_doc(family: str, rank: int, word: str = "longest") -> str:
    W = weyl_group(family, rank)
    w = W.longest if word == "longest" else W.element_of_word([int(c) for c in word])
    return json.dumps(save_graph(schubert_moment_graph(W, w)))


@st.composite
def generic_graphs(draw):
    """A random A2, B2 or A3 Schubert poset with small-integer directions,
    and a degree bound of 1 or 2."""
    family, rank = draw(st.sampled_from([("A", 2), ("B", 2), ("A", 3)]))
    doc = json.loads(_poset_doc(family, rank))
    direction = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).filter(any)
    for edge in doc["edges"]:
        edge["direction"] = [str(c) for c in draw(direction)]
    return load_graph(doc), draw(st.integers(1, 2))


def _kernel_then_project(sheaf, x, d_max):
    """boundary_image the long way: one kernel vector per section over {>x},
    cut down to the up-edge coordinates, and the RREF basis of their span."""
    secs = sections(sheaf, above_punctured(sheaf.graph, x), d_max)
    bases = {}
    for d, layout in secs.layouts.items():
        nv = sum(
            size for (kind, _), size in zip(layout.components, layout.sizes) if kind == "v"
        )
        projected = [vec[nv:] for vec in secs.bases[d]]
        bases[d] = Subspace(layout.total - nv, projected).basis_vectors()
    return bases


def _boundary_images_checked(sheaf, bound_at):
    """boundary_image at every vertex with up edges, each asserted equal to
    the kernel-then-project route."""
    g = sheaf.graph
    images = {}
    for x in range(g.n_vertices):
        if g.up[x]:
            bound = bound_at(x)
            images[x] = boundary_image(sheaf, x, bound)
            assert images[x].bases == _kernel_then_project(sheaf, x, bound)
    return images


# no shrink phase: each example builds a sheaf and every boundary image, so
# shrinking a failure reruns that for minutes before it reports
@settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.generate],
)
@given(generic_graphs())
def test_sweep_agrees_with_direct_solver(case):
    g, bound = case
    sheaf = canonical_sheaf(g, degree_bound=bound)
    images = _boundary_images_checked(sheaf, lambda x: bound)
    assert verify_pure(sheaf, degree_bound=bound, images=images).ok
    assert check_sections(sheaf, sections(sheaf, whole(g), bound))


def test_extra_degree_check_is_byte_identical_on_b3(lab):
    checked = built_past_the_bound(lab, "B", 3)
    assert json.dumps(sheaf_dump(checked)) == json.dumps(sheaf_dump(lab.sheaf("B", 3)))


def test_sweep_refuses_a_stalk_below_its_boundary_image():
    # a non-GKM graph passed off as Schubert gets the KL degree bounds, which
    # do not hold for it: its stalks miss part of the boundary image, and the
    # sweep stops instead of dropping the sections it cannot lift
    doc = json.loads(_poset_doc("A", 3, "2132"))
    for k, edge in enumerate(doc["edges"]):
        edge["direction"] = [str((k * a) % 7 - 3) for a in (1, 3, 5)]
    g = load_graph(doc)
    g.schubert_origin = True
    with pytest.raises(ConsistencyError, match="does not reach the boundary image"):
        canonical_sheaf(g)


@pytest.mark.parametrize(
    "family,rank,word,J",
    [
        ("A", 2, "longest", ()),
        ("B", 2, "longest", ()),
        ("G", 2, "longest", ()),
        ("A", 3, "longest", ()),
        ("A", 3, "2132", ()),
        ("A", 3, "longest", (2,)),
    ],
)
def test_sweep_hilbert_equals_direct_solve(lab, family, rank, word, J):
    sheaf = lab.sheaf(family, rank, word, J)
    d_max = max(sheaf.graph.ranks)
    assert global_hilbert(sheaf, d_max) == direct_hilbert(sheaf, d_max)


@pytest.mark.parametrize("word,J", [("2132", ()), ("longest", (2,))])
def test_sweep_hilbert_above_the_dimension(lab, word, J):
    # a singular and a parabolic Schubert graph, two degrees past dim X
    sheaf = lab.sheaf("A", 3, word, J)
    top = max(sheaf.graph.ranks)
    hilbert = global_hilbert(sheaf, top + 2)
    assert hilbert == direct_hilbert(sheaf, top + 2)
    assert hilbert[top + 1 :] == [0, 0]


# (family, rank, word, J): B3/213213 and B3/321323 are singular, and the
# edge rings of B3 and G2 run on Fraction
ORACLE_SUM_INPUTS = [
    ("B", 3, "longest", (1,)),
    ("B", 3, "213213", ()),
    ("B", 3, "321323", ()),
    ("G", 2, "longest", ()),
    ("A", 4, "longest", (1, 3)),
]


def test_sweep_hilbert_equals_oracle_sum_on_b3_parabolic(lab):
    # sum over x <= w in W^J of q^l(x) P^J_{x,w}; the direct solve takes
    # about a minute on B3/J={1}
    for family, rank, word, J in ORACLE_SUM_INPUTS:
        W = lab.group(family, rank)
        reps = minimal_coset_reps(W, J)
        if word == "longest":
            w = max(reps, key=lambda r: r.length)
        else:
            w = lab.element(family, rank, word)
        expected = [0] * (w.length + 1)
        for x in reps:
            if bruhat_leq(W, x, w):
                for i, c in enumerate(parabolic_kl(W, J, x, w).coeffs):
                    expected[x.length + i] += c
        sheaf = lab.sheaf(family, rank, word, J)
        assert global_hilbert(sheaf, w.length) == expected, (family, rank, word, J)


@pytest.mark.parametrize("family,rank,J", [("A", 3, ()), ("B", 3, (1,))])
def test_global_hilbert_replays_no_sweep(lab, monkeypatch, family, rank, J):
    """global_hilbert reads the finished sheaf only.  Both varieties are
    smooth, so the dimensions add up to the number of Schubert cells."""
    sheaf = lab.sheaf(family, rank, J=J)

    def refused(*args, **kwargs):
        raise AssertionError("global_hilbert built a _SectionSweep")

    monkeypatch.setattr(sheaf_mod._SectionSweep, "__init__", refused)
    dims = global_hilbert(sheaf, max(sheaf.graph.ranks))
    assert sum(dims) == sheaf.graph.n_vertices


def test_boundary_image_equals_kernel_then_project_on_b3(lab):
    sheaf = lab.sheaf("B", 3, "213213")
    top = sheaf.graph.unique_maximal()
    _boundary_images_checked(sheaf, lambda x: kl_degree_bound(sheaf.graph, x, top) + 1)


# edge directions of A3 whose pivot (last nonzero) coefficient is 1, -1, 2 or
# 3, so that the edge rings run on ints or on Fractions
COVER_DIRECTIONS = [(1, 0, 0), (1, -1, 0), (0, 1, 1), (1, 1, 2), (1, 2, 2), (0, 1, 3), (2, -1, 3)]


@lru_cache(maxsize=None)
def _a3_graph():
    W = weyl_group("A", 3)
    return schubert_moment_graph(W, W.longest)


@st.composite
def cover_inputs(draw):
    """A vertex piece and up to three edge pieces of drawn generator degrees
    and edge rings on the A3 graph, and image bases of integer or rational
    vectors, some of them t* times the degree below plus a drawn vector."""
    g = _a3_graph()
    gens = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)
    sheaf = GammaSheaf(graph=g)
    ks = draw(st.lists(st.integers(0, len(g.edges) - 1), min_size=1, max_size=3, unique=True))
    for k in ks:
        ring = edge_ring(draw(st.sampled_from(COVER_DIRECTIONS)))
        sheaf.edge_modules[k] = EdgeModule(GradedFreeModule(draw(gens)), ring)
    vertices = (g.edges[ks[0]].lower,) if draw(st.booleans()) else ()
    for v in vertices:
        sheaf.vertex_modules[v] = GradedFreeModule(draw(gens))
    target = Subgraph(vertices, tuple(ks))
    d_max = draw(st.integers(0, 3))
    layouts = {d: section_layout(sheaf, target, d) for d in range(d_max + 1)}
    small = st.integers(-3, 3)
    scalar = (small | st.fractions(-3, 3, max_denominator=3)) if draw(st.booleans()) else small
    rng = draw(st.randoms(use_true_random=False))
    bases = {}
    for d, layout in layouts.items():
        lower = [sparse(vec) for vec in bases.get(d - 1, [])]
        span = _degree_span(sheaf, layouts, lower, d)
        vecs = []
        for _ in range(draw(st.integers(0, 4))):
            vec = [draw(scalar) if rng.random() < 0.4 else 0 for _ in range(layout.total)]
            if span and draw(st.booleans()):
                row = rng.choice(span)
                c = draw(scalar)
                for j, v in row.items():
                    vec[j] += c * v
            vecs.append(tuple(map(exact, vec)))
        bases[d] = vecs
    return sheaf, SectionSpace(target, layouts, bases), d_max


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cover_inputs())
def test_integer_cover_matches_the_reference(case):
    sheaf, image, d_max = case
    args = (sheaf, image.layouts, image.bases, d_max)
    assert projective_cover(*args)[:2] == reference_projective_cover(*args)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "generic-A3"])
def test_integer_cover_matches_the_reference_at_every_vertex(lab, monkeypatch, name):
    """Every projective_cover call of a build, the stalks and each ker rho_x,
    against the reference on the same input."""
    calls = []

    def checked(sheaf, layouts, bases, d_max):
        out = projective_cover(sheaf, layouts, bases, d_max)
        assert out[:2] == reference_projective_cover(sheaf, layouts, bases, d_max)
        calls.append(out)
        return out

    monkeypatch.setattr(sheaf_mod, "projective_cover", checked)
    if name == "generic-A3":
        g = load_graph(_generic_a3_doc())
        canonical_sheaf(g, degree_bound=2)
    else:
        g = lab.graph(name[0], int(name[1:]))
        canonical_sheaf(g)
    # one cover for the stalk and one for ker rho at each vertex below the top
    assert len(calls) == 2 * (g.n_vertices - 1)
    assert any(gens for gens, *_ in calls)


# -- the lifting elimination on the cover's pivot rows ------------------------

KL_BATTERY = ["A3", "G2", "B3", "C3", "A4/J=13", "generic-A3-seed1"]


def _kl_battery_graph(lab, tmp_path, monkeypatch, name):
    """A kl-battery graph and the degree bound its job passes."""
    if name == "generic-A3-seed1":
        path = _kl_battery_generic_graph(tmp_path, monkeypatch)
        return load_graph(json.loads(path.read_text(encoding="utf-8"))), 2
    if name == "A4/J=13":
        return lab.graph("A", 4, J=(1, 3)), None
    return lab.graph(name[0], int(name[1:])), None


@pytest.mark.parametrize("name", KL_BATTERY)
def test_pivot_rows_solve_as_the_full_elimination(lab, tmp_path, monkeypatch, name):
    """Each extend(x) of the build runs next to a copy of the sweep that has
    no cover, so it eliminates on every row: the two give the same
    generators, ker rho_x's included with their degrees (the same kernel has
    the same canonical basis).  Every lift meets its boundary on every row,
    dropped rows included."""
    g, bound = _kl_battery_graph(lab, tmp_path, monkeypatch, name)
    bounds = degree_bounds(g, bound)
    extend = sheaf_mod._SectionSweep.extend
    dropped = []

    def both(self, x):
        assert len(self._pivot_rows) == bounds[x] + 1
        full = copy.copy(self)
        full.gens = [(d, dict(values)) for d, values in self.gens]
        full._at = -1
        live = self._live
        extend(self, x)
        extend(full, x)
        assert full.gens == self.gens
        sheaf = self.sheaf
        for d, keep in enumerate(self._pivot_rows):
            layout = self._layouts[d]
            dropped.append(layout.total - len(keep))
            r_x = stacked_rho(sheaf, x, layout)
            blocks = sheaf.blocks("v", x, d)
            for values, _ in live[d]:
                m = [c for p, basis in zip(values[x], blocks) for c in poly_to_coeffs(basis, p)]
                image = [sum(c * m[j] for j, c in row.items()) for row in r_x.rows]
                assert image == list(self._boundary(layout, values))

    monkeypatch.setattr(sheaf_mod._SectionSweep, "extend", both)
    canonical_sheaf(g, degree_bound=bound)
    assert sum(dropped) > 0


def test_the_pivot_rows_refuse_a_stalk_below_its_boundary_image(monkeypatch):
    """A representative's column of rho_x zeroed after the cover leaves a
    boundary outside rho_x(M_x); the refusal comes in that generator's
    degree, which is at or below the probe, so on the pivot rows."""
    g = load_graph(_generic_a3_doc())
    install = sheaf_mod._install_lift_rho
    extend = sheaf_mod._SectionSweep.extend
    victim = {}
    pivot_degrees = {}

    def zeroed(sheaf, x, lifts, layouts):
        install(sheaf, x, lifts, layouts)
        if victim or not any(d for d, _ in lifts):
            return
        i = next(i for i, (d, _) in enumerate(lifts) if d)
        victim.update(x=x, degree=lifts[i][0])
        for k in sheaf.graph.up[x]:
            entries = sheaf.rho[(x, k)].entries
            sheaf.rho[(x, k)] = RhoMap(tuple(row[:i] + ({},) + row[i + 1 :] for row in entries))

    def spy(self, x):
        pivot_degrees[x] = len(self._pivot_rows)
        extend(self, x)

    monkeypatch.setattr(sheaf_mod, "_install_lift_rho", zeroed)
    monkeypatch.setattr(sheaf_mod._SectionSweep, "extend", spy)
    with pytest.raises(ConsistencyError, match="does not reach the boundary image") as err:
        canonical_sheaf(g, degree_bound=2)
    x = victim["x"]
    assert f"the stalk at {g.labels[x]} " in str(err.value)
    degree = int(re.search(r"in degree (\d+)", str(err.value)).group(1))
    assert degree == victim["degree"] >= 1
    assert degree < pivot_degrees[x]


@pytest.mark.parametrize("name", KL_BATTERY)
def test_sweep_generators_stay_integral(lab, tmp_path, monkeypatch, name):
    g, bound = _kl_battery_graph(lab, tmp_path, monkeypatch, name)
    extend = sheaf_mod._SectionSweep.extend

    def checked(self, x):
        extend(self, x)
        for _, values in self.gens:
            for value in values.values():
                assert all(type(c) is int for p in value for c in p.values())

    monkeypatch.setattr(sheaf_mod._SectionSweep, "extend", checked)
    canonical_sheaf(g, degree_bound=bound)
