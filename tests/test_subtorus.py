"""kl and hilbert on a generic rank-2 subtorus (moment_graph.generic_subtorus).

The projected graph must give the full torus's stalk table and global
sections table, the separating base k is checked on every positive root, and
a group no k up to the module's cap separates stays on the full torus.
"""

import pytest

import momentsheaf.moment_graph as moment_graph
from momentsheaf.cli import main
from momentsheaf.coxeter import minimal_coset_reps
from momentsheaf.exactalg import primitive_integer
from momentsheaf.moment_graph import generic_subtorus, schubert_moment_graph, separating_base
from momentsheaf.sheaf import canonical_sheaf, global_hilbert, stalk_table_csv
from test_coxeter import INVENTORY, _e6

# every INVENTORY group at its longest element but F4, whose full-torus
# sheaf does not build in tier-1 time, and the parabolic graphs (B4/J={2} at
# an element of length 10 with 24 nontrivial stalks); the words are top
# words, "longest" the longest minimal coset representative
CASES = [
    (f, r, "321323" if (f, r) == ("F", 4) else "longest", ()) for f, r, *_ in INVENTORY
] + [
    ("B", 3, "longest", (1,)),
    ("C", 3, "longest", (2,)),
    ("A", 4, "longest", (1, 3)),
    ("B", 4, "1213243214", (2,)),
    ("D", 4, "longest", (1,)),
    ("G", 2, "longest", (2,)),
]


def _graph(lab, family, rank, word, J):
    W = lab.group(family, rank)
    if word == "longest":
        w = max(minimal_coset_reps(W, J), key=lambda r: r.length)
    else:
        w = W.element_of_word(int(c) for c in word)
    return W, schubert_moment_graph(W, w, J)


def _tables(g, d_max):
    sheaf = canonical_sheaf(g)
    return stalk_table_csv(sheaf), global_hilbert(sheaf, d_max)


# the graphs whose full-torus global sections take 10 s to a minute to count
# to the top degree: there the tables are compared to half the dimension
HALF = {("D", 4, "longest", ()), ("D", 4, "longest", (1,)), ("B", 4, "1213243214", (2,))}


@pytest.mark.parametrize("family,rank,word,J", CASES)
def test_the_projected_tables_equal_the_full_torus(lab, family, rank, word, J):
    """Stalk table and global sections table, on both tori.  On the graphs
    in HALF the full-torus table is counted to half the dimension only; the
    global sections table is that of IH*, which satisfies Poincare duality,
    so the projected table is a palindrome, which gives the other half."""
    W, g = _graph(lab, family, rank, word, J)
    projected = generic_subtorus(W, g)
    if rank < 3:
        assert projected is g
        return
    assert projected.dim_t == 2 and projected.schubert_origin
    assert (projected.labels, projected.leq_bits) == (g.labels, g.leq_bits)
    assert projected.ranks == g.ranks
    assert [(e.lower, e.upper) for e in projected.edges] == [(e.lower, e.upper) for e in g.edges]
    d_max = max(g.ranks)
    table, hilbert = _tables(projected, d_max)
    assert hilbert == hilbert[::-1]
    if (family, rank, word, J) in HALF:
        d_max //= 2
        hilbert = hilbert[: d_max + 1]
    assert (table, hilbert) == _tables(g, d_max)


@pytest.mark.parametrize(
    "family,rank,k", [("A", 3, 2), ("B", 3, 2), ("D", 4, 2), ("E", 6, 2), ("C", 3, 3), ("F", 4, 4)]
)
def test_the_separating_base(lab, monkeypatch, family, rank, k):
    """k is the first base >= 2 under which the positive roots have pairwise
    distinct slopes, every root counted, not only some graph's edges."""
    W = _e6(lab, monkeypatch) if family == "E" else lab.group(family, rank)
    assert separating_base(W) == k
    roots = [r.positive_root for r in W.reflections]

    def slopes(base):
        return {
            primitive_integer((sum(c * base**i for i, c in enumerate(b)), sum(b))) for b in roots
        }

    assert len(slopes(k)) == len(roots)
    assert all(len(slopes(base)) < len(roots) for base in range(2, k))


@pytest.mark.parametrize("family,rank,word", [("C", 3, "longest"), ("F", 4, "321323")])
def test_no_separating_base_under_the_cap_keeps_the_full_torus(
    lab, monkeypatch, capsys, family, rank, word
):
    """With the cap below the separating base, generic_subtorus returns the
    graph itself, and kl prints the table it prints on the projected graph."""
    W, g = _graph(lab, family, rank, word, ())
    argv = ["kl", "--type", f"{family}{rank}", "--word", word]
    assert main(argv) == 0
    projected_table = capsys.readouterr().out
    assert generic_subtorus(W, g).dim_t == 2
    monkeypatch.setattr(moment_graph, "SEPARATING_BASE_CAP", separating_base(W) - 1)
    assert separating_base(W) is None
    assert generic_subtorus(W, g) is g
    assert main(argv) == 0
    assert capsys.readouterr().out == projected_table == stalk_table_csv(canonical_sheaf(g))
