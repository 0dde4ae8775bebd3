"""Tests for the exact linear algebra substrate."""

import json
import random
from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentsheaf.sheaf as sheaf_mod
from momentsheaf.exactalg import (
    LinearQuotient,
    QMatrix,
    Subspace,
    _content_reduce,
    _row_step,
    exact,
    forward_eliminate,
    graded_dim,
    kernel_basis,
    kernel_echelon_basis,
    matrix_rank,
    monomial_basis,
    poly_from_coeffs,
    poly_mul,
    poly_str,
    poly_to_coeffs,
    primitive_integer,
    rref,
)
from momentsheaf.moment_graph import load_graph, separating_base, up_edges
from momentsheaf.sheaf import (
    _SectionSweep,
    boundary_image,
    canonical_sheaf,
    degree_bounds,
    rho_degree_matrix,
    section_layout,
    split,
    stacked_rho,
    sweep_order,
)
from helpers import (
    SpanQuotient,
    apply,
    as_poly,
    from_columns,
    image_basis,
    multiply_map,
    poly_parse,
    quotient_reduce,
)
from test_certificate import _kl_battery_generic_graph
from test_coxeter import INVENTORY, _e6
from test_golden import _generic_a3_doc


def rand_matrix(rng, nrows, ncols, density=0.3):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Q(rng.randint(-5, 5), rng.randint(1, 4))
        rows.append({j: v for j, v in row.items() if v})
    return QMatrix(nrows, ncols, rows)


def test_primitive_integer():
    assert primitive_integer([Q(2, 3), Q(-4, 3)]) == (1, -2)
    assert primitive_integer([Q(0), Q(-3), Q(6)]) == (0, 1, -2)
    assert primitive_integer(primitive_integer([Q(10), Q(15)])) == (2, 3)
    with pytest.raises(ValueError):
        primitive_integer([Q(0), Q(0)])
    # all-int vectors
    assert primitive_integer((4, -6, 10)) == (2, -3, 5)
    assert primitive_integer((0, -2, 4)) == (0, 1, -2)
    assert primitive_integer((-3,)) == (1,)
    assert primitive_integer((1, -1, 0, 2)) == (1, -1, 0, 2)
    with pytest.raises(ValueError):
        primitive_integer((0, 0, 0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any))
def test_primitive_integer_int_path_matches_fractions(vec):
    out = primitive_integer(vec)
    assert out == primitive_integer([Q(v) for v in vec])
    assert all(type(v) is int for v in out)


def test_monomial_basis_dims():
    for n in range(1, 5):
        for d in range(7):
            assert len(monomial_basis(n, d)) == graded_dim(n, d)
    assert monomial_basis(2, 2).exponents == ((2, 0), (1, 1), (0, 2))
    assert monomial_basis(3, 1, skip=(1,)).exponents == ((1, 0, 0), (0, 0, 1))
    # an empty basis has no monomials: a negative degree, or a positive one
    # with every variable skipped
    assert len(monomial_basis(2, -1)) == 0
    assert len(monomial_basis(1, 2, skip=(0,))) == 0


def test_kernel_trivial_and_tiny():
    ident = QMatrix(3, 3, [{0: 1}, {1: 1}, {2: 1}])
    assert kernel_basis(ident) == []
    m = QMatrix(1, 2, [{0: 1, 1: -1}])
    assert kernel_basis(m) == [(Q(1), Q(1))]


def test_image_trivial_and_tiny():
    zero = QMatrix(2, 3, [{}, {}])
    assert image_basis(zero) == []
    m = QMatrix(2, 1, [{0: 1}, {0: 2}])
    assert image_basis(m) == [(Q(1), Q(2))]


def test_rank_nullity_random():
    rng = random.Random(20240817)
    for _ in range(6):
        m = rand_matrix(rng, 20, 30)
        assert matrix_rank(m) + len(kernel_basis(m)) == 30
        assert len(image_basis(m)) == matrix_rank(m)


def test_kernel_vectors_annihilated():
    rng = random.Random(7)
    m = rand_matrix(rng, 8, 12)
    for v in kernel_basis(m):
        assert all(c == 0 for c in apply(m, v))


def test_kernel_echelon_basis_is_the_rref_of_the_kernel():
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(0, 6), rng.randint(1, 8)
        m = rand_matrix(rng, nr, nc, density=rng.choice([0.2, 0.5]))
        expected = Subspace(nc, kernel_basis(m)).basis_vectors()
        assert kernel_echelon_basis(m.rows, nc) == expected


def test_forward_eliminate_leaves_rows_past_the_split():
    def dense(rows, nc):
        return [[Q(r.get(j, 0)) for j in range(nc)] for r in rows]

    rng = random.Random(12)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(2, 8)
        m = rand_matrix(rng, nr, nc, density=0.4)
        split = rng.randint(0, nc)
        pivots, echelon, rest = forward_eliminate(m.rows, split)
        assert all(p < split for p in pivots) and len(echelon) == len(pivots)
        assert all(min(r) >= split for r in rest)
        # the echelon rows and the leftover rows together span the row space
        assert Subspace(nc, dense(echelon + rest, nc)) == Subspace(nc, dense(m.rows, nc))


def _column_scan_forward_eliminate(rows, ncols):
    """The forward phase as a plain column scan: every live row is checked
    for every column, and a pivot row that leads with a negative entry is
    negated.  The reference the bucketed kernel must reproduce."""
    from momentsheaf.exactalg import _content_reduce, _int_row

    work = [r for r in map(_int_row, rows) if r]
    pivots, echelon = [], []
    for col in range(ncols):
        best, best_size = -1, -1
        for i, r in enumerate(work):
            if r is not None and col in r and (best < 0 or len(r) < best_size):
                best, best_size = i, len(r)
        if best < 0:
            continue
        piv = work[best]
        if piv[col] < 0:
            piv = {c: -v for c, v in piv.items()}
        work[best] = None
        pv = piv[col]
        for i, r in enumerate(work):
            if r is not None and col in r:
                rc = r[col]
                new = {c: v * pv for c, v in r.items()}
                for c, v in piv.items():
                    nv = new.get(c, 0) - rc * v
                    if nv:
                        new[c] = nv
                    else:
                        new.pop(c, None)
                work[i] = _content_reduce(new) if new else None
        pivots.append(col)
        echelon.append(piv)
    return pivots, echelon, [r for r in work if r is not None]


def test_forward_eliminate_matches_the_column_scan():
    rng = random.Random(13)
    cases = [([], 3), ([{}, {}], 4), ([{0: Q(2)}, {}, {0: Q(-4)}], 1)]
    for _ in range(60):
        nr, nc = rng.randint(0, 9), rng.randint(1, 9)
        m = rand_matrix(rng, nr, nc, density=rng.choice([0.15, 0.4, 0.8]))
        rows = list(m.rows)
        if rows and rng.random() < 0.5:
            # repeated and proportional rows eliminate to zero
            rows.append({c: v * Q(-3, 7) for c, v in rng.choice(rows).items()})
            rows.insert(rng.randint(0, len(rows)), {})
        cases.append((rows, nc))
    for rows, nc in cases:
        for split in range(nc + 1):
            got = forward_eliminate(rows, split)
            assert got == _column_scan_forward_eliminate(rows, split)
            # the same rows, in the same order, with integer entries
            assert all(type(v) is int for r in got[1] + got[2] for v in r.values())


def test_image_of_product_in_image():
    rng = random.Random(99)
    for _ in range(4):
        a = rand_matrix(rng, 6, 5)
        b = rand_matrix(rng, 5, 7)
        ab_cols = [apply(a, b.column(j)) for j in range(7)]
        im_a = Subspace(6, image_basis(a))
        for col in ab_cols:
            assert im_a.contains(col)


def test_multiply_map_one_var():
    m = multiply_map([Q(3)], 1, 2)
    assert m.nrows == 1 and m.ncols == 1
    assert m.rows == [{0: Q(3)}]


def test_multiply_map_two_vars_by_hand():
    # f = x1 + x2 on A_1 -> A_2 over Q[x1,x2]; columns are x1*f, x2*f
    m = multiply_map([Q(1), Q(1)], 2, 1)
    assert (m.nrows, m.ncols) == (3, 2)
    assert m.column(0) == (Q(1), Q(1), Q(0))  # x1^2 + x1x2
    assert m.column(1) == (Q(0), Q(1), Q(1))  # x1x2 + x2^2


def test_multiply_maps_commute():
    rng = random.Random(5)
    n = 3
    for _ in range(5):
        f = [Q(rng.randint(-3, 3)) for _ in range(n)]
        g = [Q(rng.randint(-3, 3)) for _ in range(n)]
        if not any(f) or not any(g):
            continue
        for d in range(3):
            fg = _compose(multiply_map(g, n, d + 1), multiply_map(f, n, d))
            gf = _compose(multiply_map(f, n, d + 1), multiply_map(g, n, d))
            assert fg == gf


def _compose(a: QMatrix, b: QMatrix):
    return [apply(a, b.column(j)) for j in range(b.ncols)]


def test_quotient_reduce_kills_alpha():
    alpha = [Q(1), Q(-1), Q(2)]
    q = LinearQuotient(alpha)
    assert q.pivot == 2  # largest index with nonzero coefficient
    out = quotient_reduce(q, poly_to_coeffs(monomial_basis(3, 1), as_poly(alpha)), 1)
    assert all(c == 0 for c in out)


def test_quotient_reduce_fixes_pivot_free():
    alpha = [Q(1), Q(0), Q(1)]
    q = LinearQuotient(alpha)
    p = poly_parse("x1*x2 - 2*x2^2", 3)
    coeffs = poly_to_coeffs(monomial_basis(3, 2), p)
    reduced = quotient_reduce(q, coeffs, 2)
    assert poly_from_coeffs(q.basis(2), reduced) == p


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_kernel_dimension(n):
    # kernel of reduce on A_d has dimension dim A_{d-1}
    alpha = [Q(i + 1) for i in range(n)]
    q = LinearQuotient(alpha)
    for d in range(0, 7):
        basis = monomial_basis(n, d)
        cols = [
            quotient_reduce(q, [Q(1) if i == j else Q(0) for i in range(len(basis))], d)
            for j in range(len(basis))
        ]
        m = from_columns(cols, q.dim(d))
        assert len(kernel_basis(m)) == graded_dim(n, d - 1)


def test_linear_quotient_two_forms():
    quo = SpanQuotient([[Q(1), Q(0), Q(-1)], [Q(0), Q(1), Q(1)]])
    assert quo.pivots == (1, 2)
    # x3 and x2 are eliminated: x3 -> x1, then the second form reads
    # x2 + x1, so x2 -> -x1
    p = poly_parse("x3^2 + x2", 3)
    assert quo.reduce(p) == poly_parse("x1^2 - x1", 3)
    assert quo.reduce(quo.reduce(p)) == quo.reduce(p)


def test_subspace_ops():
    u = Subspace(3, [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0))])
    assert Subspace(3, u.basis_vectors()) == u


def test_determinism_bit_identical():
    rng = random.Random(123)
    m = rand_matrix(rng, 15, 25)
    m2 = QMatrix(m.nrows, m.ncols, [dict(r) for r in m.rows])
    assert kernel_basis(m) == kernel_basis(m2)
    assert image_basis(m) == image_basis(m2)


def test_poly_str_parse_roundtrip():
    rng = random.Random(42)
    for _ in range(20):
        p = {}
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            c = Q(rng.randint(-9, 9), rng.randint(1, 5))
            if c:
                p[e] = c
        p = {e: c for e, c in p.items() if c}
        assert poly_parse(poly_str(p), 3) == p


def test_poly_mul_agrees_with_multiply_map():
    f = [Q(2), Q(-1), Q(3)]
    d = 2
    basis_d = monomial_basis(3, d)
    basis_d1 = monomial_basis(3, d + 1)
    m = multiply_map(f, 3, d)
    for j, e in enumerate(basis_d.exponents):
        prod = poly_mul({e: Q(1)}, as_poly(f))
        assert poly_to_coeffs(basis_d1, prod) == m.column(j)


# ---------------------------------------------------------------------------
# the scalar convention: an int when integral, else a Fraction, never a float


def _rational(values):
    """Assert every scalar is an int or a Fraction."""
    for v in values:
        assert type(v) in (int, Q), repr(v)


def _exact(values):
    """Assert every scalar is an int exactly when it is integral."""
    for v in values:
        assert type(v) is int or (type(v) is Q and v.denominator != 1), repr(v)


def _mixed_matrix(rng, nrows, ncols):
    """Entries mix ints, integral Fractions and true quotients."""
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.4:
                v = rng.choice(
                    [rng.randint(-4, 4), Q(rng.randint(-6, 6), rng.randint(1, 3))]
                )
                if v:
                    row[j] = v
        rows.append(row)
    return QMatrix(nrows, ncols, rows)


def test_elimination_outputs_follow_the_scalar_convention():
    rng = random.Random(2026)
    for _ in range(60):
        nr, nc = rng.randint(0, 7), rng.randint(1, 9)
        m = _mixed_matrix(rng, nr, nc)
        pivots, rows = rref(m.rows, nc)
        for r in rows:
            _exact(r.values())
        for vec in kernel_basis(m) + image_basis(m) + kernel_echelon_basis(m.rows, nc):
            _exact(vec)
        space = Subspace(nc, [[r.get(j, 0) for j in range(nc)] for r in m.rows])
        for r in space.rows:
            _exact(r.values())
        for vec in space.basis_vectors():
            _exact(vec)
        residue = space.reduce([rng.randint(-3, 3) for _ in range(nc)])
        _rational(residue.values())
    # an integral system stays on ints end to end
    pivots, rows = rref([{0: 2, 1: 4}, {1: 3, 2: 6}], 3)
    assert rows == [{0: 1, 2: -4}, {1: 1, 2: 2}]
    assert all(type(v) is int for r in rows for v in r.values())
    # a true quotient stays a Fraction
    assert rref([{0: 2, 1: 1}], 2)[1] == [{0: 1, 1: Q(1, 2)}]


def test_linear_quotient_reduce_is_rational():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        alpha = [rng.randint(-3, 3) for _ in range(n)]
        if not any(alpha):
            continue
        quo = LinearQuotient(alpha)
        _exact(quo.reduce_monomial(tuple(int(i == quo.pivot) for i in range(n))).values())
        p = {}
        for _ in range(5):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            p[e] = rng.choice(
                [rng.randint(-5, 5), Q(rng.randint(-5, 5), rng.randint(1, 4))]
            )
        p = {e: c for e, c in p.items() if c}
        _rational(quo.reduce(p).values())
        for mono in monomial_basis(n, 2).exponents:
            _rational(quo.reduce_monomial(mono).values())


def _greedy_quotient(forms):
    """Reference for LinearQuotient: Gauss-Jordan on the forms in order, each
    taking its largest-index nonzero variable as pivot.  Returns the sorted
    pivots and the substitutions, or None for zero or dependent forms."""
    n = len(forms[0])
    pivots, reduced = [], []
    for f in forms:
        row = list(f)
        for p, r in zip(pivots, reduced):
            if row[p]:
                c = row[p]
                row = [a - c * b for a, b in zip(row, r)]
        piv = max((i for i in range(n) if row[i] != 0), default=-1)
        if piv < 0:
            return None
        inv = 1 / Q(row[piv])
        row = [a * inv for a in row]
        for r in reduced:
            if r[piv]:
                c = r[piv]
                for i in range(n):
                    r[i] -= c * row[i]
        pivots.append(piv)
        reduced.append(row)
    subst = {}
    for p, row in sorted(zip(pivots, reduced)):
        subst[p] = {
            tuple(int(i == j) for i in range(n)): exact(-c)
            for j, c in enumerate(row)
            if j != p and c
        }
    return tuple(sorted(pivots)), subst


def _times_alpha(alpha, p):
    """alpha * p, alpha a coefficient vector and p a polynomial of A."""
    n = len(alpha)
    form = {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(alpha) if c}
    return poly_mul(form, p)


def _check_ring_map(quo, alpha, polys):
    """reduce kills alpha * m for every monomial m, is multiplicative, and
    lands in the pivot-free monomials."""
    n = len(alpha)
    for m in (m for d in range(3) for m in monomial_basis(n, d).exponents):
        assert quo.reduce(_times_alpha(alpha, {m: 1})) == {}
    for f, g in zip(polys, polys[1:] + polys[:1]):
        assert quo.reduce(poly_mul(f, g)) == poly_mul(quo.reduce(f), quo.reduce(g))
        assert all(e[quo.pivot] == 0 for e in quo.reduce(f))


def test_linear_quotient_matches_greedy_elimination():
    """Random forms, integral and rational: the pivot is the greedy
    reference's, reduce is a ring map killing alpha, and a form whose
    primitive integer scaling has a unit pivot gives the reference's
    substitution exactly, types included."""
    rng = random.Random(47)
    compared = unit = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        alpha = [
            rng.choice([0, 0, rng.randint(-4, 4), Q(rng.randint(-4, 4), rng.randint(1, 5))])
            for _ in range(n)
        ]
        expected = _greedy_quotient([alpha])
        if expected is None:
            with pytest.raises(ValueError):
                LinearQuotient(alpha)
            continue
        quo = LinearQuotient(alpha)
        (p,), subst = expected
        assert quo.pivot == p
        assert quo.scale == abs(primitive_integer(alpha)[p])
        polys = [
            {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3) or 1}
            for _ in range(3)
        ]
        _check_ring_map(quo, alpha, polys)
        if quo.scale == 1:
            got = quo.reduce_monomial(tuple(int(i == p) for i in range(n)))
            assert list(got.items()) == list(subst[p].items())
            assert [type(c) for c in got.values()] == [type(c) for c in subst[p].values()]
            unit += 1
        compared += 1
    assert compared > 300 and 0 < unit < compared


def _edge_ring_directions(lab, tmp_path, monkeypatch):
    """Every positive root of every INVENTORY group and of B4, F4 and E6,
    each group's projected directions (generic_subtorus), and the edge
    directions of the seed-1 generic A3 graph of the kl-battery."""
    groups = sorted({(f, r) for f, r, *_ in INVENTORY} | {("B", 4), ("F", 4)})
    weyl = [lab.group(f, r) for f, r in groups] + [_e6(lab, monkeypatch)]
    roots = {ref.positive_root for W in weyl for ref in W.reflections}
    projected = set()
    for W in weyl:
        k = separating_base(W)
        if W.cartan.rank >= 3 and k is not None:
            projected |= {
                primitive_integer((sum(c * k**i for i, c in enumerate(b)), sum(b)))
                for b in (ref.positive_root for ref in W.reflections)
            }
    path = _kl_battery_generic_graph(tmp_path, monkeypatch)
    g = load_graph(json.loads(path.read_text(encoding="utf-8")))
    return sorted(roots) + sorted(projected) + sorted({e.direction for e in g.edges})


def test_edge_ring_matches_a_fraction_reference(lab, tmp_path, monkeypatch):
    """The edge ring of every root and projected direction, built afresh so
    that every reduction is counted, builds no Fraction and returns ints:
    x_p's normal form is -sign(alpha_p) sum alpha_j x_j in increasing j, a
    pivot-free monomial of degree m gains s^m, alpha * m reduces to zero
    and reduce is a ring map.  A unit-pivot ring equals the Fraction
    reference, -sum (alpha_j / alpha_p) x_j, exactly."""
    directions = _edge_ring_directions(lab, tmp_path, monkeypatch)
    built = [0]
    new = Q.__new__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counted_new)
    if hasattr(Q, "_from_coprime_ints"):
        from_coprime = Q._from_coprime_ints.__func__

        def counted_from_coprime(cls, *args):
            built[0] += 1
            return from_coprime(cls, *args)

        monkeypatch.setattr(Q, "_from_coprime_ints", classmethod(counted_from_coprime))
    unit = []
    for alpha in directions:
        n = len(alpha)
        ring = LinearQuotient(alpha)
        p = [j for j in range(n) if alpha[j] != 0][-1]
        s, sign = abs(alpha[p]), (1 if alpha[p] > 0 else -1)
        assert (ring.pivot, ring.scale) == (p, s)
        one = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        got = ring.reduce_monomial(one[p])
        image = [(one[j], -sign * c) for j, c in enumerate(alpha) if j != p and c]
        assert list(got.items()) == image
        monos = [m for d in range(3) for m in monomial_basis(n, d).exponents]
        for m in monos:
            if m[p] == 0:
                assert ring.reduce_monomial(m) == {m: s ** sum(m)}
        polys = [{m: k % 5 - 2 for k, m in enumerate(monos) if k % 5 != 2}]
        polys += ({m: 1} for m in monos)
        _check_ring_map(ring, alpha, polys[:8])
        for poly in polys:
            assert all(type(c) is int for c in ring.reduce(poly).values())
        if s == 1:
            unit.append((alpha, p, got))
    assert built[0] == 0
    assert 0 < len(unit) < len(directions)
    for alpha, p, got in unit:
        one = [tuple(int(i == j) for i in range(len(alpha))) for j in range(len(alpha))]
        want = [(one[j], Q(-c, alpha[p])) for j, c in enumerate(alpha) if j != p and c]
        assert list(got.items()) == want
        assert [type(c) for c in got.values()] == [type(exact(c)) for _, c in want]


SHEAVES = {
    "A3": lambda lab: lab.sheaf("A", 3),
    "G2": lambda lab: lab.sheaf("G", 2),
    "B3-J1": lambda lab: lab.sheaf("B", 3, J=(1,)),
    "generic-A3": lambda lab: canonical_sheaf(load_graph(_generic_a3_doc()), degree_bound=2),
}


@pytest.mark.parametrize("name", sorted(SHEAVES))
def test_sheaf_scalars_follow_the_convention(lab, name):
    sheaf = SHEAVES[name](lab)
    g = sheaf.graph
    coeffs = [
        c for rho in sheaf.rho.values() for row in rho.entries for p in row for c in p.values()
    ]
    _exact(coeffs)
    if g.schubert_origin:
        # integer root directions give integer restriction maps
        assert all(type(c) is int for c in coeffs)
    else:
        assert any(type(c) is Q for c in coeffs)
    for k, e in enumerate(g.edges):
        for v in (e.lower, e.upper):
            for d in range(3):
                m = rho_degree_matrix(sheaf, v, k, d)
                _rational(c for r in m.rows for c in r.values())
        ring = sheaf.piece("e", k)[1]
        for mono in monomial_basis(sheaf.n, 2).exponents:
            _rational(ring.reduce_monomial(mono).values())
    for x in range(g.n_vertices):
        if g.up[x]:
            for vecs in boundary_image(sheaf, x, 1).bases.values():
                for vec in vecs:
                    _exact(vec)


# -- the gcd-scaled row step ---------------------------------------------------


def _gauss_jordan(rows, ncols):
    """RREF over Fractions by the textbook column scan: the reference the
    fraction-free kernel must reproduce."""
    m = [[Q(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots = []
    for c in range(ncols):
        top = len(pivots)
        p = next((i for i in range(top, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[top], m[p] = m[p], m[top]
        m[top] = [v / m[top][c] for v in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        pivots.append(c)
    return pivots, [{c: v for c, v in enumerate(row) if v} for row in m[: len(pivots)]]


# the first row of each case is the sparsest with the leading column, so it is
# the pivot row there: pivots 1, -1, 2, -3 and 6, against rows whose leading
# entries share a factor with the pivot, are divisible by it, or are coprime
ROW_STEP_CASES = [
    [{0: 1, 2: 3}, {0: 5, 1: 2, 2: 1}, {0: -4, 1: 1, 3: 2}, {1: 1, 2: 1, 3: 1}],
    [{0: -1, 3: 2}, {0: 3, 1: 1, 3: 1}, {0: 2, 1: 5, 2: 1}],
    [{0: 2, 1: 1}, {0: 4, 1: 1, 2: 1}, {0: 6, 2: 1, 3: 5}, {0: 3, 1: 1, 3: 1}],
    [{0: -3, 2: 1}, {0: 6, 1: 1, 2: 1}, {0: 9, 1: 2, 3: 1}, {0: 2, 1: 1, 3: 4}],
    [{0: 6, 1: 1}, {0: 4, 1: 1, 2: 1}, {0: 9, 2: 1, 3: 1}, {0: 12, 1: 1, 3: 1},
     {0: 5, 1: 1, 2: 1}],
    [{0: 2, 1: 3}, {0: 4, 1: 6, 2: 1}, {1: -3, 2: 2}, {1: 6, 2: 1, 3: 1}],
]


def _row_step_cases():
    yield from ((rows, 4) for rows in ROW_STEP_CASES)
    rng = random.Random(14)
    for _ in range(80):
        nc = rng.randint(2, 7)
        rows = []
        for _ in range(rng.randint(1, 7)):
            lead = rng.randrange(nc)
            row = {lead: rng.choice([1, -1, 2, -3, 6])}
            for c in range(lead + 1, nc):
                if rng.random() < 0.5:
                    row[c] = rng.choice([1, -1, 2, -2, 3, 4, -6, 9, 12])
            rows.append({c: v * rng.choice([1, 1, 2, -3]) for c, v in row.items()})
        yield rows, nc


def _primitive(row):
    g = 0
    for v in row.values():
        g = gcd(g, v)
    return g == 1


def test_row_steps_match_gauss_jordan_and_stay_primitive():
    for rows, nc in _row_step_cases():
        assert rref(rows, nc) == _gauss_jordan(rows, nc)
        pivots, echelon, rest = forward_eliminate(rows, nc)
        assert rest == []
        for p, r in zip(pivots, echelon):
            assert min(r) == p and all(type(v) is int for v in r.values())
            assert _primitive(r)


def test_a_row_step_is_the_cross_multiplied_step_divided_by_its_content():
    rng = random.Random(15)
    for _ in range(300):
        piv = {0: rng.choice([1, -1, 2, -3, 6, 4])}
        if rng.random() < 0.5:
            row = {0: piv[0] * rng.choice([1, -1, 2, 3])}
        else:
            row = {0: rng.choice([-12, -9, -4, -1, 1, 3, 5, 8, 12])}
        for r in (piv, row):
            for c in range(1, 5):
                if rng.random() < 0.6:
                    r[c] = rng.randint(-9, 9) or 1
        crossed = {c: piv[0] * row.get(c, 0) - row[0] * piv.get(c, 0) for c in set(row) | set(piv)}
        crossed = {c: v for c, v in crossed.items() if v}
        step = _row_step(row, piv, 0)
        if crossed:
            assert step == _content_reduce(crossed) and _primitive(step)
        else:
            assert step == {}


# -- zero boundary columns in the sweep ----------------------------------------


def _extend_over_all_columns(sweep, x):
    """extend(x)'s elimination with a column for every generator, zero
    boundaries included: per degree, the lifts in generator order, ker rho_x,
    and the number of zero columns."""
    sheaf = sweep.sheaf
    target = up_edges(sheaf.graph, x)
    lifts, kernels, zeros = {}, {}, 0
    for d in range(sweep.d_max + 1):
        layout = section_layout(sheaf, target, d)
        boundaries = [
            sheaf_mod._section_boundary(sheaf, layout, values)
            for dg, values in sweep.gens
            if dg == d
        ]
        zeros += sum(not any(b) for b in boundaries)
        r_x = stacked_rho(sheaf, x, layout)
        ncx = r_x.ncols
        rows = [dict(row) for row in r_x.rows]
        for j, b in enumerate(boundaries):
            for i, c in enumerate(b):
                if c:
                    rows[i][ncx + j] = -c
        kernel = kernel_basis(QMatrix(layout.total, ncx + len(boundaries), rows))
        lifts[d] = [v[:ncx] for v in kernel if any(v[ncx:])]
        kernels[d] = [v[:ncx] for v in kernel if not any(v[ncx:])]
    return lifts, kernels, zeros


def test_extend_without_zero_columns_matches_the_full_elimination(lab, monkeypatch):
    sheaf = lab.sheaf("B", 3)
    g = sheaf.graph
    top = g.unique_maximal()
    sweep = _SectionSweep(sheaf, top, max(degree_bounds(g)))
    covered = []
    cover = sheaf_mod.projective_cover

    def spy(sh, layouts, bases, d_max):
        covered.append(bases)
        return cover(sh, layouts, bases, d_max)

    monkeypatch.setattr(sheaf_mod, "projective_cover", spy)
    zeros = 0
    for x in sweep_order(g, top):
        lifts, kernels, z = _extend_over_all_columns(sweep, x)
        zeros += z
        before = list(sweep.gens)
        sweep.extend(x)
        assert covered.pop() == kernels
        for d, ms in lifts.items():
            blocks = sheaf.blocks("v", x, d)
            for (_, values), m in zip([gen for gen in before if gen[0] == d], ms, strict=True):
                assert values.get(x) == (split(blocks, m) if any(m) else None)
        sweep.forget(x)
    assert zeros > 0
