"""Cross-cutting guarantees: route independence, diffable outputs, selector
coverage, and canonical-word minimality."""

import ast
import inspect
from itertools import permutations

from fractions import Fraction as Q

from momentsheaf import hecke_oracle
from momentsheaf.coxeter import weyl_group
from momentsheaf.exactalg import Subspace
from momentsheaf.hecke_oracle import kl_table_csv
from momentsheaf.sheaf import sections, stalk_table_csv
from helpers import check_sections, interval, planar_slice, structure_sheaf, vertex


def test_oracle_imports_only_the_group_layer():
    # the verification path must not share engine code with the sheaf side
    tree = ast.parse(inspect.getsource(hecke_oracle))
    banned = {"sheaf", "exactalg", "moment_graph", "cli"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert not (set(node.module.split(".")) & banned), node.module
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not (set(alias.name.split(".")) & banned), alias.name


def test_stalk_table_diffable_against_oracle_table(lab):
    for family, rank, word in [("A", 2, "longest"), ("A", 3, "2132")]:
        W = lab.group(family, rank)
        g = lab.graph(family, rank, word)
        sheaf_csv = stalk_table_csv(lab.sheaf(family, rank, word))
        w = lab.element(family, rank, word)
        vertices = [lab.element(family, rank, lbl) for lbl in g.labels]
        assert kl_table_csv(W, w, vertices) == sheaf_csv


def test_interval_selector(lab):
    g = lab.graph("A", 3)
    x, y = vertex(g, "1"), vertex(g, "121")
    sub = interval(g, x, y)
    assert set(sub.vertices) == {vertex(g, l) for l in ("1", "12", "21", "121")}
    for k in sub.edges:
        e = g.edges[k]
        assert e.lower in sub.vertices and e.upper in sub.vertices


def test_planar_selector_sections(lab):
    # the plane of the first two simple roots in A3 cuts out the hexagon of
    # the rank-2 subsystem: five vertices above e, six interior edges, and
    # the three dangling edges at e
    g = lab.graph("A", 3)
    sh = structure_sheaf(g)
    e = vertex(g, "e")
    sub = planar_slice(
        g, e, Subspace(g.dim_t, [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)]])
    )
    assert {g.labels[v] for v in sub.vertices} == {"1", "2", "12", "21", "121"}
    dangling = [k for k in sub.edges if g.edges[k].lower == e]
    assert len(dangling) == 3 and len(sub.edges) == 9
    secs = sections(sh, sub, 1)
    assert secs.dim(0) == 1  # the slice is connected, constants glue
    assert check_sections(sh, sub, secs)


def test_canonical_words_shortlex_brute_force():
    # enumerate every reduced word of every B2 element; the stored word
    # must be the ShortLex minimum
    W = weyl_group("B", 2)
    for w in W.elements:
        if w.length > 5:
            continue
        reduced = [
            word
            for word in permutations([1, 2] * w.length, w.length)
            if W.element_of_word(word).index == w.index
        ]
        if reduced:
            assert min(reduced) == w.word


def test_verify_reports_comparable_pair_count(capsys):
    from momentsheaf.cli import main

    code = main(["verify", "--type", "A2"])
    out = capsys.readouterr().out
    assert code == 0
    # sum over z <= w0 of the interval sizes: 1+2+2+4+4+6
    assert "19/19 KL values match" in out
