"""Kazhdan-Lusztig polynomials by the classical Hecke-algebra recursion.

This is the independent verification path for the sheaf construction: it
shares no code with the sheaf engine (it imports only the group layer and
the polynomial value type), and it computes P_{x,w} by the textbook
induction on l(w) with mu-coefficient corrections.

Conventions.  For ws < w, v = ws, and c = 1 if xs < x (else 0):

    P_{x,w} = q^(1-c) P_{xs,v} + q^c P_{x,v}
              - sum over { z : x <= z <= v, zs < z } of
                    mu(z,v) q^((l(w)-l(z))/2) P_{x,z}

where mu(z,v) is the coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}.  The
sum runs over a memoized list of the z < v with mu(z,v) != 0, not over all
of W (du Cloux, Exp. Math. 2002).
"""

from __future__ import annotations

from .coxeter import WeylElement, WeylGroup, bruhat_leq, is_minimal_rep, longest_element, parabolic_subgroup
from .errors import ValidationError
from .klpoly import KLPolynomial, poincare_csv

# integer polynomials in q as coefficient tuples, trailing zeros trimmed
IntPoly = tuple[int, ...]

_ZERO: IntPoly = ()
_ONE: IntPoly = (1,)


def _trim(c: list[int]) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _psub(a: IntPoly, b: IntPoly) -> IntPoly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _pmul(a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return _ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _pshift(a: IntPoly, k: int) -> IntPoly:
    """a * q^k."""
    if not a:
        return _ZERO
    return tuple([0] * k) + a


class KLTable:
    """Memoized Kazhdan-Lusztig polynomials for one Weyl group."""

    def __init__(self, W: WeylGroup):
        self.W = W
        self._p: dict[tuple[int, int], IntPoly] = {}
        self._mu: dict[int, list[tuple[int, int]]] = {}

    def p(self, x: int, w: int) -> IntPoly:
        """P_{x,w} as a coefficient tuple (zero if x is not below w)."""
        if x == w:
            return _ONE
        W = self.W
        if W.length(x) >= W.length(w) or not bruhat_leq(W, x, w):
            return _ZERO
        key = (x, w)
        hit = self._p.get(key)
        if hit is not None:
            return hit
        s = W.right_descents(w)[0]
        v = W.rmult(w, s)
        xs = W.rmult(x, s)
        if W.length(xs) < W.length(x):
            out = _padd(self.p(xs, v), _pshift(self.p(x, v), 1))
        else:
            out = _padd(_pshift(self.p(xs, v), 1), self.p(x, v))
        lw = W.length(w)
        for z, m in self.mu_list(v):
            if W.length(W.rmult(z, s)) > W.length(z):
                continue
            if not bruhat_leq(W, x, z):
                continue
            term = _pshift(_pmul((m,), self.p(x, z)), (lw - W.length(z)) // 2)
            out = _psub(out, term)
        self._p[key] = out
        return out

    def mu_list(self, v: int) -> list[tuple[int, int]]:
        """The pairs (z, mu(z, v)) with z < v and mu(z, v) != 0, by index."""
        hit = self._mu.get(v)
        if hit is None:
            pairs = ((z, self.mu(z, v)) for z in range(len(self.W)))
            hit = self._mu[v] = [(z, m) for z, m in pairs if m]
        return hit

    def mu(self, z: int, v: int) -> int:
        """Coefficient of q^((l(v)-l(z)-1)/2) in P_{z,v}; 0 unless defined."""
        gap = self.W.length(v) - self.W.length(z)
        if gap <= 0 or gap % 2 == 0:
            return 0
        p = self.p(z, v)
        i = (gap - 1) // 2
        return p[i] if i < len(p) else 0


def _table(W: WeylGroup) -> KLTable:
    table = getattr(W, "_kl_table", None)
    if table is None:
        table = KLTable(W)
        W._kl_table = table  # type: ignore[attr-defined]
    return table


def kl_polynomial(W: WeylGroup, x: WeylElement | int, w: WeylElement | int) -> KLPolynomial:
    """P_{x,w}; raises if x is not below w in Bruhat order."""
    i = x.index if isinstance(x, WeylElement) else x
    j = w.index if isinstance(w, WeylElement) else w
    if not bruhat_leq(W, i, j):
        raise ValidationError("kl_polynomial requires x <= w in Bruhat order")
    return KLPolynomial(_table(W).p(i, j))


def parabolic_kl(
    W: WeylGroup,
    J: tuple[int, ...],
    x: WeylElement | int,
    w: WeylElement | int,
) -> KLPolynomial:
    """KL polynomial for W^J cosets: P of the maximal coset representatives."""
    i = x.index if isinstance(x, WeylElement) else x
    j = w.index if isinstance(w, WeylElement) else w
    for idx, name in ((i, "x"), (j, "w")):
        if not is_minimal_rep(W, idx, J):
            raise ValidationError(f"{name} is not a minimal coset representative")
    if not bruhat_leq(W, i, j):
        raise ValidationError("parabolic_kl requires x <= w")
    w0j = longest_element(W, parabolic_subgroup(W, J))
    xmax = _mult_indices(W, i, w0j)
    wmax = _mult_indices(W, j, w0j)
    if W.length(xmax) != W.length(i) + W.length(w0j):
        raise ValidationError("length did not add on the maximal representative")
    return kl_polynomial(W, xmax, wmax)


def _mult_indices(W: WeylGroup, i: int, j: int) -> int:
    out = i
    for s in W.elements[j].word:
        out = W.rmult(out, s)
    return out


def kl_table_csv(W: WeylGroup, w: WeylElement, vertices: list[WeylElement]) -> str:
    """Poincare table of P_{x,w} over the given vertices, diffable against
    the sheaf engine's stalk table."""
    rows = [
        (x.word_str(), w.word_str(), kl_polynomial(W, x, w))
        for x in vertices
    ]
    return poincare_csv(rows)
