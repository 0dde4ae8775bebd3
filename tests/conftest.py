"""Shared fixtures: groups, graphs, and canonical sheaves are expensive
enough to build once per session and reuse."""

import pytest

from momentsheaf.coxeter import minimal_coset_reps, weyl_group
from momentsheaf.moment_graph import schubert_moment_graph
from momentsheaf.sheaf import canonical_sheaf


class SheafLab:
    """Session-wide cache of groups, Schubert graphs, and canonical sheaves."""

    def __init__(self):
        self._groups = {}
        self._graphs = {}
        self._sheaves = {}

    def group(self, family, rank):
        key = (family, rank)
        if key not in self._groups:
            self._groups[key] = weyl_group(family, rank)
        return self._groups[key]

    def element(self, family, rank, word):
        """The element of a word such as "2132", "e" or "longest"."""
        W = self.group(family, rank)
        if word == "longest":
            return W.longest
        return W.element_of_word([] if word == "e" else [int(c) for c in word])

    def graph(self, family, rank, word="longest", J=()):
        key = (family, rank, word, tuple(J))
        if key not in self._graphs:
            W = self.group(family, rank)
            if word == "longest" and J:
                w = max(minimal_coset_reps(W, J), key=lambda r: r.length)
            else:
                w = self.element(family, rank, word)
            self._graphs[key] = schubert_moment_graph(W, w, tuple(J))
        return self._graphs[key]

    def sheaf(self, family, rank, word="longest", J=(), **kwargs):
        key = (family, rank, word, tuple(J), tuple(sorted(kwargs.items())))
        if key not in self._sheaves:
            g = self.graph(family, rank, word, J)
            self._sheaves[key] = canonical_sheaf(g, **kwargs)
        return self._sheaves[key]


@pytest.fixture(scope="session")
def lab():
    return SheafLab()
