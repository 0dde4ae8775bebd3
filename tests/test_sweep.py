"""Property tests of the section sweep behind canonical_sheaf.

The sweep reads each boundary image off a generating set of the sections
over the vertices already built.  verify_pure compares every stalk's image
with boundary_image, the direct solver over the punctured upper set, so a
passing report checks the sweep against an independent route.  The random
graphs keep a Schubert poset but draw their edge directions, so most of
them are not GKM and nothing about them is known in advance.
"""

import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsheaf.coxeter import weyl_group
from momentsheaf.errors import ConsistencyError
from momentsheaf.moment_graph import (
    SubgraphSelector,
    load_graph,
    save_graph,
    schubert_moment_graph,
)
from momentsheaf.sheaf import (
    canonical_sheaf,
    check_sections,
    sections,
    sheaf_dump,
    verify_pure,
)


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


@settings(max_examples=10, deadline=None, derandomize=True)
@given(generic_graphs())
def test_sweep_agrees_with_direct_solver(case):
    g, bound = case
    sheaf = canonical_sheaf(g, degree_bound=bound)
    assert verify_pure(sheaf, degree_bound=bound).ok
    assert check_sections(sheaf, sections(sheaf, SubgraphSelector.whole(), bound))


def test_extra_degree_check_is_byte_identical_on_b3(lab):
    plain = lab.sheaf("B", 3)
    checked = lab.sheaf("B", 3, extra_degree_check=True)
    assert json.dumps(sheaf_dump(checked)) == json.dumps(sheaf_dump(plain))


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
