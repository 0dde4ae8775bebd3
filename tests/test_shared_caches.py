"""The process-level caches of the sheaf engine, and guards on the work they
save.

Edge rings (`edge_ring`), their memoized monomial reductions and the
t*-span matrices of `_degree_span` outlive any one sheaf.  These tests build
sheaves of different `dim_t` in one process and check the artifacts against
the golden digests, and they count, without timing anything, the work a
`verify` run does on B3/J={1}.
"""

import hashlib
from collections import Counter

import momentsheaf.moment_graph as moment_graph
import momentsheaf.sheaf as sheaf_mod
from momentsheaf.cli import main
from momentsheaf.exactalg import LinearQuotient, Subspace, edge_ring
from momentsheaf.moment_graph import load_graph
from momentsheaf.sheaf import canonical_sheaf
from test_golden import GOLDEN, _dump, _generic_a3_doc, _polygon_images


def _clear_shared_caches():
    edge_ring.cache_clear()
    sheaf_mod._SPAN_MATRICES.clear()


def _snapshot(sheaves):
    """Every memoized monomial reduction of the sheaves' edge rings, copied."""
    rings = {id(em.quotient): em.quotient for sh in sheaves for em in sh.edge_modules.values()}
    return {
        key: (ring, {mono: dict(p) for mono, p in ring._monomials.items()})
        for key, ring in rings.items()
    }


def test_interleaved_dim_t_builds_match_the_golden_digests(lab):
    builds = [
        ("sheaf-G2", lambda: canonical_sheaf(lab.graph("G", 2))),
        ("sheaf-A3", lambda: canonical_sheaf(lab.graph("A", 3))),
        ("sheaf-A4-J13", lambda: canonical_sheaf(lab.graph("A", 4, J=(1, 3)))),
        ("sheaf-B3-J1", lambda: canonical_sheaf(lab.graph("B", 3, J=(1,)))),
        ("sheaf-generic-A3-bound2",
         lambda: canonical_sheaf(load_graph(_generic_a3_doc()), degree_bound=2)),
        # its artifact is the polygon images, which read the edge rings too
        ("polygon-A3-2132", lambda: canonical_sheaf(lab.graph("A", 3, "2132"))),
    ]
    _clear_shared_caches()
    built = []
    # twice through, the second pass on warm caches in a different order
    for name, build in builds + builds[::-1]:
        sh = build()
        text = _polygon_images(sh) if name.startswith("polygon") else _dump(sh)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name], name
        for k, e in enumerate(sh.graph.edges):
            assert sh.edge_modules[k].quotient is edge_ring(e.direction)
        built.append(sh)
        if len(built) == len(builds):
            before = _snapshot(built)
    assert edge_ring((1, -1, 0)) is edge_ring((1, -1, 0))
    assert edge_ring((1, -1, 0)) is not edge_ring((1, -1))
    # no caller mutated a shared reduction, nor replaced one
    for ring, memo in before.values():
        for mono, p in memo.items():
            assert ring._monomials[mono] == p


def test_verify_work_counts_on_b3_parabolic(tmp_path, monkeypatch):
    """verify --type B3 --parabolic 1, with counters on the shared caches."""
    _clear_shared_caches()
    rings = Counter()
    direction_of = {}
    quotient_init = LinearQuotient.__init__

    def counted_quotient_init(self, alpha):
        rings[tuple(alpha)] += 1
        direction_of[id(self)] = tuple(alpha)
        quotient_init(self, alpha)

    contains_calls = [0]
    contains = Subspace.contains

    def counted_contains(self, vec):
        contains_calls[0] += 1
        return contains(self, vec)

    over_budget = []
    planes = Counter()
    h_edges = moment_graph._h_edges

    def counted_h_edges(g, h):
        planes[tuple(map(tuple, h.basis_vectors()))] += 1
        start = contains_calls[0]
        out = h_edges(g, h)
        tests = contains_calls[0] - start
        if tests > len({e.direction for e in g.edges}):
            over_budget.append(tests)
        return out

    substitutions = Counter()
    reduce_monomial = LinearQuotient.reduce_monomial

    def counted_reduce_monomial(self, mono):
        substitutions[(direction_of[id(self)], mono)] += mono not in self._monomials
        return reduce_monomial(self, mono)

    builds = Counter()
    sheaves = []  # kept alive, so that no two sheaves share an id
    rho_degree_matrix = sheaf_mod.rho_degree_matrix

    def counted_rho_degree_matrix(sh, v, e, d):
        sheaves.append(sh)
        builds[(id(sh), v, e, d)] += 1
        return rho_degree_matrix(sh, v, e, d)

    monkeypatch.setattr(sheaf_mod, "rho_degree_matrix", counted_rho_degree_matrix)
    monkeypatch.setattr(LinearQuotient, "__init__", counted_quotient_init)
    monkeypatch.setattr(Subspace, "contains", counted_contains)
    monkeypatch.setattr(moment_graph, "_h_edges", counted_h_edges)
    monkeypatch.setattr(LinearQuotient, "reduce_monomial", counted_reduce_monomial)
    out = tmp_path / "verify.txt"
    assert main(["verify", "--type", "B3", "--parabolic", "1", "--out", str(out)]) == 0
    assert "FAIL" not in out.read_text(encoding="utf-8")

    # one edge ring per direction
    assert rings and max(rings.values()) == 1
    # one membership test per distinct direction per plane
    assert contains_calls[0] > 0 and over_budget == []
    # each plane's edges listed once for the graph, not once per vertex
    assert planes and max(planes.values()) == 1
    # each (direction, monomial) pair substituted at most once
    assert substitutions and max(substitutions.values()) == 1
    # each rho matrix built at most once by a build and once into the top
    # sheaf's memo, which verify clears when it returns
    assert builds and max(builds.values()) <= 2
    assert all(sh.matrices is None for sh in sheaves)


def test_a_b3_build_reduces_each_monomial_once(lab, monkeypatch):
    """canonical_sheaf(B3) substitutes each (edge ring, monomial) pair at
    most once, in reduce_monomial, and every later call returns that same
    normal form; LinearQuotient.reduce substitutes nothing itself: it looks
    up each of its terms once, in reduce_monomial."""
    _clear_shared_caches()
    first = {}
    substitutions = Counter()
    in_reduce, lookups, terms = [0], [0], [0]
    reduce, reduce_monomial = LinearQuotient.reduce, LinearQuotient.reduce_monomial

    def counted_reduce_monomial(self, mono):
        lookups[0] += in_reduce[0]
        key = (id(self), mono)
        substitutions[key] += mono not in self._monomials
        out = reduce_monomial(self, mono)
        assert first.setdefault(key, out) is out
        return out

    def counted_reduce(self, p):
        terms[0] += len(p)
        in_reduce[0] += 1
        try:
            return reduce(self, p)
        finally:
            in_reduce[0] -= 1

    monkeypatch.setattr(LinearQuotient, "reduce_monomial", counted_reduce_monomial)
    monkeypatch.setattr(LinearQuotient, "reduce", counted_reduce)
    canonical_sheaf(lab.graph("B", 3))
    assert substitutions and max(substitutions.values()) == 1
    assert 0 < terms[0] == lookups[0]
