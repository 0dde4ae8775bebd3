"""Finite Weyl groups: root data, reflections, lengths, Bruhat order,
parabolic quotients.

Realization.  For a family of rank n we work in t* = Q^n with the simple
roots as the standard basis ("root coordinates").  Every group element then
acts by an integer matrix, all arithmetic is exact, and no family needs
radicals (in particular G2).  The invariant bilinear form is carried
explicitly as the symmetrized Cartan matrix, so Cartan integers can be
recovered from coordinates.

Products and reflections are formed on integer root data, not by matrix
products.  Right multiplication by s_i is a column update, (w s_i)[k][j] =
w[k][j] - C[j][i] w[k][i], which leaves the rows with w[k][i] = 0 alone.  The
roots close under s_i(b) = b - (sum_j b_j C[j][i]) a_i.  Each positive root b
has an integer coroot c_b[j] = 2(a_j, b)/(b, b); s_b(l) = l - (c_b . l) b, and
its matrix I - b c_b^T is looked up in the group.

Element identity is exact matrix equality; the canonical word of an element
is its ShortLex-minimal reduced word (BFS in ShortLex order guarantees the
first word found for a matrix is minimal).
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, ResourceCapError, ValidationError

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]

DEFAULT_GROUP_CAP = 50_000

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


_RANK_RANGE = {
    "A": (1, 99),
    "B": (2, 99),
    "C": (2, 99),
    "D": (3, 99),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _check_family_rank(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    lo, hi = _RANK_RANGE[family]
    if not lo <= rank <= hi:
        raise ValidationError(f"family {family} does not have rank {rank}")


def weyl_order(family: str, rank: int) -> int:
    """|W| by the classical product formulas."""
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if family == "F":
        return 1152
    if family == "G":
        return 12
    raise ValidationError(f"unknown family {family!r}")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan integers C[i][j] = 2(a_i, a_j)/(a_j, a_j), Bourbaki numbering."""
    _check_family_rank(family, rank)
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if family in ("A", "B", "C", "G"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B" and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # a_{n-1} long, a_n short
        if family == "C" and n >= 2:
            bond(n - 2, n - 1, -1, -2)  # a_n long
        if family == "G":
            bond(0, 1, -1, -3)  # a_1 short, a_2 long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        # chain 1-3-4-5-6(-7-8), branch 2-4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # a_2 long, a_3 short
        bond(2, 3)
    return tuple(tuple(row) for row in c)


def _invert_rational(mat: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class CartanDatum(NamedTuple):
    """Root datum of a finite Weyl group in root coordinates."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    gram: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    fundamental_weights: tuple[Vector, ...]

    @classmethod
    def build(cls, family: str, rank: int) -> "CartanDatum":
        family = family.upper()
        c = cartan_matrix(family, rank)
        n = rank
        # symmetrizers: d_j/d_i = C[j][i]/C[i][j] along Dynkin bonds
        d = [Fraction(0)] * n
        d[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(n):
                if j != i and c[i][j] and d[j] == 0:
                    d[j] = d[i] * c[j][i] / c[i][j]
                    todo.append(j)
        if any(v == 0 for v in d):
            raise ValidationError("disconnected Dynkin diagram")
        gram = tuple(
            tuple(Fraction(c[i][j]) * d[j] for j in range(n)) for i in range(n)
        )
        simple = tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
        )
        weights = _invert_rational([[Fraction(v) for v in row] for row in c])
        datum = cls(family, rank, c, gram, simple, weights)
        datum.validate()
        return datum

    def validate(self) -> None:
        n = self.rank
        if len(self.simple_roots) != n:
            raise ValidationError("wrong number of simple roots")
        if any(self.gram[i][j] != self.gram[j][i] for i in range(n) for j in range(n)):
            raise ValidationError("bilinear form is not symmetric")
        simple, pair = self.simple_roots, self.pairing
        for i in range(n):
            for j in range(n):
                norm = pair(simple[j], simple[j])
                if 2 * pair(simple[i], simple[j]) / norm != self.cartan[i][j]:
                    raise ValidationError("Cartan integers do not match the family")
                if 2 * pair(self.fundamental_weights[i], simple[j]) / norm != int(i == j):
                    raise ValidationError("fundamental weights are wrong")

    def pairing(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        """The W-invariant bilinear form on t*."""
        return sum(
            x[i] * self.gram[i][j] * y[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )


def _column_update(row: tuple[int, ...], i: int, update) -> tuple[int, ...]:
    """One row of w s_i from the same row of w; update lists (j, C[j][i] != 0)."""
    a = row[i]
    if not a:
        return row
    out = list(row)
    for j, cji in update:
        out[j] -= cji * a
    return tuple(out)


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(row[k] * v[k] for k in range(len(row))) for row in a)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class WeylElement(NamedTuple):
    """A group element: integer matrix on t*, length, ShortLex-minimal word."""

    index: int
    matrix: Matrix
    length: int
    word: tuple[int, ...]  # 1-based simple reflection indices

    def word_str(self) -> str:
        return "".join(str(s) for s in self.word) if self.word else "e"


class Reflection(NamedTuple):
    positive_root: tuple[int, ...]  # integer root coordinates
    coroot: tuple[int, ...]  # c[j] = 2(a_j, b)/(b, b); s_b(l) = l - (c . l) b


class WeylGroup:
    """A fully enumerated finite Weyl group with order and reflection data."""

    def __init__(self, cartan: CartanDatum):
        self.cartan = cartan
        self._build_elements(check_group_cap(cartan.family, cartan.rank))
        self._build_roots()
        self._bruhat_cache: dict[tuple[int, int], bool] = {}

    # -- enumeration --------------------------------------------------------

    def _build_elements(self, order: int) -> None:
        n = self.cartan.rank
        c = self.cartan.cartan
        # (w s_i)[k][j] = w[k][j] - C[j][i] w[k][i]: a column update
        updates = [(i, [(j, c[j][i]) for j in range(n) if c[j][i]]) for i in range(n)]
        ident = identity_matrix(n)
        elements: list[WeylElement] = [WeylElement(0, ident, 0, ())]
        index_of: dict[Matrix, int] = {ident: 0}
        rmul: list[list[int]] = []
        level = [0]
        while level and len(elements) <= order:
            nxt: list[int] = []
            for i in level:
                w = elements[i]
                row = []
                for s in range(1, n + 1):
                    m = tuple(_column_update(r, *updates[s - 1]) for r in w.matrix)
                    j = index_of.get(m)
                    if j is None:
                        j = len(elements)
                        elements.append(
                            WeylElement(j, m, w.length + 1, w.word + (s,))
                        )
                        index_of[m] = j
                        nxt.append(j)
                    row.append(j)
                rmul.append(row)
            level = nxt
        if len(elements) != order:
            raise ConsistencyError(f"enumerated {len(elements)} elements, not |W| = {order}")
        self.elements = elements
        self.index_of = index_of
        self._rmul = rmul

    def _build_roots(self) -> None:
        n = self.cartan.rank
        c = self.cartan.cartan
        roots: set[tuple[int, ...]] = set()
        todo = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        while todo:
            r = todo.pop()
            if r not in roots:
                roots.add(r)
                for i in range(n):  # s_i(r) = r - <r, a_i^v> a_i
                    k = sum(r[j] * c[j][i] for j in range(n))
                    todo.append(r[:i] + (r[i] - k,) + r[i + 1:])
        positive = sorted((r for r in roots if min(r) >= 0), key=lambda r: (sum(r), r))
        # the invariant form scaled to integers
        gram = self.cartan.gram
        scale = lcm(*(v.denominator for row in gram for v in row))
        form = [[int(v * scale) for v in row] for row in gram]
        self.reflections: list[Reflection] = []
        for beta in positive:
            pair = [sum(f * b for f, b in zip(row, beta)) for row in form]
            norm = sum(p * b for p, b in zip(pair, beta))
            if any(2 * p % norm for p in pair):
                raise ValidationError("reflection matrix is not integral")
            coroot = tuple(2 * p // norm for p in pair)
            m = tuple(
                tuple(int(k == j) - b * cj for j, cj in enumerate(coroot))
                for k, b in enumerate(beta)
            )
            if m not in self.index_of:
                raise ValidationError("reflection does not lie in the group")
            self.reflections.append(Reflection(beta, coroot))

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def longest(self) -> WeylElement:
        return max(self.elements, key=lambda w: w.length)

    def rmult(self, i: int, s: int) -> int:
        """Index of elements[i] * s_s (s is 1-based)."""
        return self._rmul[i][s - 1]

    def length(self, i: int) -> int:
        return self.elements[i].length

    def element_of_word(self, word: Iterable[int]) -> WeylElement:
        i = 0
        for s in word:
            if not 1 <= s <= self.cartan.rank:
                raise ValidationError(f"simple reflection index {s} out of range")
            i = self.rmult(i, s)
        return self.elements[i]

    def right_descents(self, i: int) -> list[int]:
        li, row = self.elements[i].length, self._rmul[i]
        return [s for s in range(1, len(row) + 1) if self.elements[row[s - 1]].length < li]


def check_group_cap(family: str, rank: int) -> int:
    """|W| for a valid family and rank, or ResourceCapError above the cap
    (MOMENTSHEAF_CAP, default 50,000).  It builds no root datum, so it runs
    before CartanDatum.build, whose cost grows like rank^4."""
    family = family.upper()
    _check_family_rank(family, rank)
    raw = os.environ.get("MOMENTSHEAF_CAP", str(DEFAULT_GROUP_CAP))
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"MOMENTSHEAF_CAP must be an integer, got {raw!r}") from exc
    order = weyl_order(family, rank)
    if order > cap:
        raise ResourceCapError(
            f"group {family}{rank} has order {order}, exceeding the cap of {cap}"
        )
    return order


def build_weyl_group(cartan: CartanDatum) -> WeylGroup:
    """Enumerate the whole group (errors if the family order exceeds the cap)."""
    return WeylGroup(cartan)


def weyl_group(family: str, rank: int) -> WeylGroup:
    """Convenience builder from a family letter and rank."""
    check_group_cap(family, rank)
    return build_weyl_group(CartanDatum.build(family, rank))


def bruhat_leq(W: WeylGroup, x: WeylElement | int, y: WeylElement | int) -> bool:
    """Bruhat order by the recursive descent criterion, memoized on the group."""
    i = x.index if isinstance(x, WeylElement) else x
    j = y.index if isinstance(y, WeylElement) else y
    cache = W._bruhat_cache
    ell = W.length

    def rec(i: int, j: int) -> bool:
        if i == j:
            return True
        if ell(i) >= ell(j):
            return False
        key = (i, j)
        hit = cache.get(key)
        if hit is not None:
            return hit
        s = W.right_descents(j)[0]
        js = W.rmult(j, s)
        is_ = W.rmult(i, s)
        if ell(is_) < ell(i):
            out = rec(is_, js)
        else:
            out = rec(i, js)
        cache[key] = out
        return out

    return rec(i, j)


def parabolic_subgroup(W: WeylGroup, J: Iterable[int]) -> list[int]:
    """Element indices of W_J, sorted in group order."""
    J = sorted(set(J))
    for s in J:
        if not 1 <= s <= W.cartan.rank:
            raise ValidationError(f"parabolic index {s} out of range")
    seen = {0}
    todo = [0]
    while todo:
        i = todo.pop()
        for s in J:
            j = W.rmult(i, s)
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return sorted(seen)


def longest_element(W: WeylGroup, indices: Sequence[int]) -> int:
    """Index of the longest element among `indices` (must be unique)."""
    best = max(indices, key=lambda i: W.length(i))
    ties = [i for i in indices if W.length(i) == W.length(best)]
    if len(ties) != 1:
        raise ValidationError("longest element is not unique")
    return best


def minimal_coset_reps(W: WeylGroup, J: Iterable[int]) -> list[WeylElement]:
    """Minimal-length representatives of the cosets wW_J, in group order."""
    J = sorted(set(J))
    sub = parabolic_subgroup(W, J)  # validates J before rmult uses it
    reps = [w for w in W.elements if is_minimal_rep(W, w, J)]
    if len(reps) * len(sub) != len(W):
        raise ValidationError("coset representative count mismatch")
    return reps


def is_minimal_rep(W: WeylGroup, w: WeylElement | int, J: Iterable[int]) -> bool:
    i = w.index if isinstance(w, WeylElement) else w
    return all(W.length(W.rmult(i, s)) > W.length(i) for s in sorted(set(J)))
