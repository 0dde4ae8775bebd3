"""Tests for Weyl group enumeration, lengths, Bruhat order, and quotients."""

import ast
import inspect
from fractions import Fraction
from itertools import combinations

import pytest

from momentsheaf import coxeter
from momentsheaf.coxeter import (
    CartanDatum,
    bruhat_leq,
    build_weyl_group,
    cartan_matrix,
    identity_matrix,
    longest_element,
    mat_vec,
    minimal_coset_reps,
    parabolic_subgroup,
    weyl_group,
    weyl_order,
)
from momentsheaf.errors import ConsistencyError, ResourceCapError, ValidationError
from helpers import (
    bruhat_bits,
    fundamental_weights,
    gram,
    identity,
    inversions,
    mat_mul,
    matrix_edges,
    pairing,
    reflection_element,
    simple_matrices,
)


def subword_leq(W, x, y):
    """Independent Bruhat oracle: x <= y iff x is a product of a subword of
    a fixed reduced word for y (products of arbitrary subwords of a reduced
    word enumerate exactly the lower interval)."""
    reachable = set()
    word = y.word
    for k in range(len(word) + 1):
        for positions in combinations(range(len(word)), k):
            reachable.add(W.element_of_word(word[p] for p in positions).index)
    return x.index in reachable


INVENTORY = [
    ("A", 1, 2, 1, 1),
    ("A", 2, 6, 3, 3),
    ("A", 3, 24, 6, 6),
    ("B", 2, 8, 4, 4),
    ("B", 3, 48, 9, 9),
    ("G", 2, 12, 6, 6),
    ("D", 4, 192, 12, 12),
    ("C", 3, 48, 9, 9),
    ("D", 3, 24, 6, 6),
    ("F", 4, 1152, 24, 24),
]


@pytest.mark.parametrize("family,rank,order,n_refl,max_len", INVENTORY)
def test_group_inventory(family, rank, order, n_refl, max_len):
    W = weyl_group(family, rank)
    assert len(W) == order
    assert len(W.reflections) == n_refl
    assert len({r.positive_root for r in W.reflections}) == n_refl
    assert W.longest.length == max_len


def test_a3_brute_force_word_enumeration():
    # enumerate words up to length 6, dedup by matrix: must give all 24
    W = weyl_group("A", 3)
    seen = {identity(W).matrix}
    frontier = [identity(W).matrix]
    for _ in range(6):
        nxt = []
        for m in frontier:
            for s in simple_matrices(W):
                m2 = mat_mul(m, s)
                if m2 not in seen:
                    seen.add(m2)
                    nxt.append(m2)
        frontier = nxt
    assert len(seen) == 24


def test_cap_exceeded_names_order():
    datum = CartanDatum.build("E", 6)
    with pytest.raises(ResourceCapError) as err:
        build_weyl_group(datum)
    assert "51840" in str(err.value)


def test_a_wrong_cartan_matrix_fails_the_order_check():
    # nothing checks the Cartan tables up front; the group's order does
    with pytest.raises(ConsistencyError, match=r"enumerated 6 elements, not \|W\| = 8"):
        build_weyl_group(CartanDatum("B", 2, cartan_matrix("A", 2)))


def test_unsupported_family_rank():
    with pytest.raises(ValidationError):
        CartanDatum.build("G", 3)
    with pytest.raises(ValidationError):
        CartanDatum.build("H", 3)
    with pytest.raises(ValidationError):
        CartanDatum.build("E", 5)


def test_length_is_inversion_count():
    for family, rank in [("A", 3), ("B", 2), ("G", 2)]:
        W = weyl_group(family, rank)
        for w in W.elements:
            assert w.length == inversions(W, w.index)


def test_length_changes_by_one():
    W = weyl_group("B", 2)
    for w in W.elements:
        for s in range(1, 3):
            ws = W.elements[W.rmult(w.index, s)]
            assert abs(ws.length - w.length) == 1


def test_canonical_words_are_shortlex_minimal():
    W = weyl_group("A", 3)
    for w in W.elements:
        assert W.element_of_word(w.word).index == w.index
        assert len(w.word) == w.length
    # spot check: ShortLex minimality for the longest element of A2
    W2 = weyl_group("A", 2)
    assert W2.longest.word == (1, 2, 1)


def test_reflections_are_involutions_fixing_hyperplane():
    W = weyl_group("B", 2)
    for refl in W.reflections:
        t = reflection_element(W, refl)
        m = t.matrix
        assert mat_mul(m, m) == identity(W).matrix
        assert t.length % 2 == 1
        beta = [float(b) for b in refl.positive_root]
        # beta is itself negated
        img = [sum(m[i][j] * refl.positive_root[j] for j in range(2)) for i in range(2)]
        assert img == [-b for b in refl.positive_root]


def test_bruhat_identity_minimal_and_length_rule():
    W = weyl_group("A", 2)
    e = identity(W)
    for w in W.elements:
        assert bruhat_leq(W, e, w)
    sts = W.element_of_word([1, 2, 1])
    st = W.element_of_word([1, 2])
    assert not bruhat_leq(W, sts, st)
    assert bruhat_leq(W, st, sts)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_bruhat_matches_subword_oracle(family, rank):
    W = weyl_group(family, rank)
    for x in W.elements:
        for y in W.elements:
            assert bruhat_leq(W, x, y) == subword_leq(W, x, y)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_bruhat_is_partial_order(family, rank):
    W = weyl_group(family, rank)
    n = len(W)
    leq = [[bruhat_leq(W, i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        assert leq[i][i]
        for j in range(n):
            if leq[i][j] and leq[j][i]:
                assert i == j
            for k in range(n):
                if leq[i][j] and leq[j][k]:
                    assert leq[i][k]


def test_reflection_comparability():
    W = weyl_group("A", 3)
    for refl in W.reflections:
        t = reflection_element(W, refl)
        for w in W.elements:
            tw = W.elements[W.index_of[mat_mul(t.matrix, w.matrix)]]
            up = bruhat_leq(W, w, tw)
            down = bruhat_leq(W, tw, w)
            assert up != down
            assert (tw.length - w.length) % 2 == 1


def test_minimal_coset_reps_trivial_and_counts():
    W = weyl_group("A", 2)
    assert len(minimal_coset_reps(W, ())) == 6
    reps = minimal_coset_reps(W, (1,))
    assert sorted(r.length for r in reps) == [0, 1, 2]
    # brute force: no descent in J
    brute = [
        w
        for w in W.elements
        if W.length(W.rmult(w.index, 1)) > w.length
    ]
    assert [r.index for r in reps] == [w.index for w in brute]


def test_a3_parabolic_rep_count():
    W = weyl_group("A", 3)
    assert len(minimal_coset_reps(W, (1, 3))) == 6
    assert len(parabolic_subgroup(W, (1, 3))) == 4
    assert weyl_order("A", 3) == 24


def test_longest_element_of_parabolic():
    W = weyl_group("A", 3)
    sub = parabolic_subgroup(W, (1, 3))
    w0 = W.elements[longest_element(W, sub)]
    assert w0.length == 2
    assert w0.word in ((1, 3), (3, 1))


def reference_enumeration(W):
    """The group by a ShortLex BFS over full matrix products w * s_i: the
    elements as (matrix, length, word) in index order, and the rmul table."""
    ident = identity_matrix(W.cartan.rank)
    elements = [(ident, 0, ())]
    index_of = {ident: 0}
    rmul = []
    level = [0]
    while level:
        nxt = []
        for i in level:
            m, length, word = elements[i]
            row = []
            for s, sm in enumerate(simple_matrices(W), 1):
                p = mat_mul(m, sm)
                if p not in index_of:
                    index_of[p] = len(elements)
                    elements.append((p, length + 1, word + (s,)))
                    nxt.append(index_of[p])
                row.append(index_of[p])
            rmul.append(row)
        level = nxt
    return elements, rmul


def reference_reflection_matrix(cartan, beta):
    """I - 2(., beta)/(beta, beta) beta in root coordinates, over Fraction."""
    n = cartan.rank
    form = gram(cartan)
    b = [Fraction(v) for v in beta]
    norm = pairing(form, b, b)
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j in range(n):
        simple = [int(i == j) for i in range(n)]
        coef = 2 * pairing(form, simple, b) / norm
        for k in range(n):
            rows[k][j] -= coef * b[k]
    assert all(v.denominator == 1 for row in rows for v in row)
    return tuple(tuple(int(v) for v in row) for row in rows)


def check_rational_root_datum(cartan):
    """The rational references reproduce the Cartan integers: the form is
    symmetric, 2(a_i, a_j)/(a_j, a_j) = C[i][j], and the fundamental weights
    pair to delta_ij with the simple coroots."""
    n, c = cartan.rank, cartan.cartan
    form, weights = gram(cartan), fundamental_weights(cartan)
    simple = identity_matrix(n)
    for i in range(n):
        for j in range(n):
            assert form[i][j] == form[j][i]
            norm = pairing(form, simple[j], simple[j])
            assert 2 * pairing(form, simple[i], simple[j]) / norm == c[i][j]
            assert 2 * pairing(form, weights[i], simple[j]) / norm == int(i == j)


def check_reflections(W):
    """Each reflection's matrix is the rational formula's, and its coroot
    pairs to 2 with its root."""
    for refl in W.reflections:
        beta = refl.positive_root
        assert reflection_element(W, refl).matrix == reference_reflection_matrix(W.cartan, beta)
        assert sum(c * b for c, b in zip(refl.coroot, beta)) == 2
        assert all(isinstance(c, int) for c in refl.coroot)


GROUPS = [(f, r) for f, r, *_ in INVENTORY] + [("B", 4)]


@pytest.mark.parametrize("family,rank", GROUPS)
def test_enumeration_matches_matrix_product_bfs(family, rank):
    W = weyl_group(family, rank)
    elements, rmul = reference_enumeration(W)
    assert [(w.index, w.matrix, w.length, w.word) for w in W.elements] == [
        (i, m, length, word) for i, (m, length, word) in enumerate(elements)
    ]
    assert W._rmul == rmul
    assert W.index_of == {m: i for i, (m, _, _) in enumerate(elements)}
    # a second enumeration gives equal elements, and equal elements hash equal
    again = build_weyl_group(CartanDatum.build(family, rank)).elements
    assert again == W.elements
    assert [hash(w) for w in again] == [hash(w) for w in W.elements]


@pytest.mark.parametrize("family,rank", GROUPS)
def test_reflections_match_the_rational_formula(family, rank):
    W = weyl_group(family, rank)
    check_rational_root_datum(W.cartan)
    # the positive roots, closed under the simple reflection matrices
    roots, todo = set(), list(identity_matrix(rank))
    while todo:
        r = tuple(todo.pop())
        if r not in roots:
            roots.add(r)
            todo.extend(mat_vec(sm, r) for sm in simple_matrices(W))
    positive = {r for r in roots if all(v >= 0 for v in r)}
    roots = [r.positive_root for r in W.reflections]
    assert set(roots) == positive
    assert len(roots) == len(positive)
    check_reflections(W)


def test_the_group_layer_is_integer():
    """coxeter runs on the integer Cartan matrix alone: it imports neither
    fractions nor math.lcm, and every root, coroot and matrix entry is an
    int."""
    for node in ast.walk(ast.parse(inspect.getsource(coxeter))):
        if isinstance(node, ast.Import):
            assert all(alias.name != "fractions" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            assert node.module != "fractions"
            if node.module == "math":
                assert all(alias.name != "lcm" for alias in node.names)
    for family, rank in GROUPS:
        W = weyl_group(family, rank)
        for refl in W.reflections:
            assert all(type(v) is int for v in refl.positive_root + refl.coroot)
        for w in W.elements:
            assert all(type(v) is int for row in w.matrix for v in row)


def _e6(lab, monkeypatch):
    """W(E6), built once and shared through lab; its 51,840 elements are
    above the default cap."""
    monkeypatch.setenv("MOMENTSHEAF_CAP", "60000")
    return lab.group("E", 6)


def test_e6_group(lab, monkeypatch):
    W = _e6(lab, monkeypatch)
    assert len(W) == 51840
    assert len(W.reflections) == 36
    assert W.longest.length == 36
    check_rational_root_datum(W.cartan)
    check_reflections(W)


@pytest.mark.parametrize("J", [(1, 2, 3, 4, 5), (2, 3, 4, 5, 6)])
def test_e6_minuscule_graphs(lab, monkeypatch, J):
    """The two minuscule quotients of E6: 27 vertices, 216 edges, the
    reflection edges of the matrices and the Bruhat order."""
    W = _e6(lab, monkeypatch)
    g = lab.graph("E", 6, J=J)
    reps = minimal_coset_reps(W, J)
    w = max(reps, key=lambda r: r.length)
    below = [y for y in reps if bruhat_leq(W, y, w)]
    assert (g.n_vertices, len(g.edges)) == (27, 216)
    assert g.labels == tuple(y.word_str() for y in below)
    assert g.leq_bits == bruhat_bits(W, below)
    assert [(e.lower, e.upper, e.direction) for e in g.edges] == matrix_edges(W, w, J)
