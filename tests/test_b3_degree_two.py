"""B3 intervals are the smallest cases whose stalks need degree-2
generators (1+q^2 and 1+q+q^2); they stress the boundary computation one
degree deeper than anything in rank 2 or A3."""

from momentsheaf.coxeter import bruhat_leq
from momentsheaf.hecke_oracle import _padd, _pshift, kl_polynomial
from momentsheaf.klpoly import KLPolynomial
from momentsheaf.sheaf import global_hilbert, stalk_poincare, verify_pure
from helpers import built_past_the_bound, solved_images, vertex


def test_b3_q_squared_interval(lab):
    W = lab.group("B", 3)
    w = lab.element("B", 3, "321323")
    g = lab.graph("B", 3, "321323")
    sheaf = built_past_the_bound(lab, "B", 3, "321323")
    assert stalk_poincare(sheaf, vertex(g, "e")) == KLPolynomial((1, 0, 1))
    for v in range(g.n_vertices):
        x = lab.element("B", 3, g.labels[v])
        assert stalk_poincare(sheaf, v) == kl_polynomial(W, x, w)
    assert verify_pure(sheaf, None, solved_images(sheaf)).ok


def test_b3_q_squared_global_sections(lab):
    W = lab.group("B", 3)
    w = lab.element("B", 3, "321323")
    sheaf = built_past_the_bound(lab, "B", 3, "321323")
    expected = ()
    for y in W.elements:
        if bruhat_leq(W, y, w):
            expected = _padd(
                expected, _pshift(kl_polynomial(W, y, w).coeffs, y.length)
            )
    assert tuple(global_hilbert(sheaf, w.length)) == expected


def test_b3_three_term_stalk(lab):
    # the length-7 interval has the stalk 1+q+q^2 at the bottom (its
    # degree-7 global-sections solve is heavyweight, so only stalks here)
    W = lab.group("B", 3)
    w = lab.element("B", 3, "2132132")
    g = lab.graph("B", 3, "2132132")
    sheaf = lab.sheaf("B", 3, "2132132")
    assert stalk_poincare(sheaf, vertex(g, "e")) == KLPolynomial((1, 1, 1))
    for v in range(g.n_vertices):
        x = lab.element("B", 3, g.labels[v])
        assert stalk_poincare(sheaf, v) == kl_polynomial(W, x, w)


def test_c3_same_kl_different_geometry(lab):
    # C3 is the same abstract Coxeter group as B3 but its moment graph has
    # the dual root directions, so the sheaf computation runs over genuinely
    # different linear algebra and must land on the same KL table
    W = lab.group("C", 3)
    w = lab.element("C", 3, "321323")
    g = lab.graph("C", 3, "321323")
    gb = lab.graph("B", 3, "321323")
    assert {e.direction for e in g.edges} != {e.direction for e in gb.edges}
    sheaf = lab.sheaf("C", 3, "321323")
    assert str(stalk_poincare(sheaf, vertex(g, "e"))) == "1+q^2"
    for v in range(g.n_vertices):
        x = lab.element("C", 3, g.labels[v])
        assert stalk_poincare(sheaf, v) == kl_polynomial(W, x, w)
