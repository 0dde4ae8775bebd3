"""Tests for the Hecke-algebra KL oracle: known values, the R-polynomial
inversion identity, and the defining P-R compatibility."""

import pytest

from momentsheaf.coxeter import bruhat_leq, minimal_coset_reps, weyl_group
from momentsheaf.errors import ValidationError
from momentsheaf.hecke_oracle import (
    KLTable,
    _padd,
    _pmul,
    _pshift,
    _psub,
    kl_polynomial,
    parabolic_kl,
)
from momentsheaf.klpoly import KLPolynomial
from helpers import KL_ONE, identity, kl_degree, r_polynomial


def test_kl_diagonal_is_one():
    W = weyl_group("B", 2)
    for w in W.elements:
        assert kl_polynomial(W, w, w) == KL_ONE


def test_kl_requires_comparability():
    W = weyl_group("A", 2)
    s = W.element_of_word([1])
    t = W.element_of_word([2])
    with pytest.raises(ValidationError):
        kl_polynomial(W, s, t)


def test_a2_all_trivial():
    W = weyl_group("A", 2)
    for x in W.elements:
        for w in W.elements:
            if bruhat_leq(W, x, w):
                assert kl_polynomial(W, x, w) == KL_ONE


def test_a3_known_nontrivial_value():
    W = weyl_group("A", 3)
    w = W.element_of_word([2, 1, 3, 2])
    assert w.length == 4
    assert kl_polynomial(W, identity(W), w) == KLPolynomial((1, 1))


def test_kl_degree_bound_and_constant_term():
    for family, rank in [("B", 2), ("G", 2), ("A", 3)]:
        W = weyl_group(family, rank)
        for x in W.elements:
            for w in W.elements:
                if not bruhat_leq(W, x, w):
                    continue
                p = kl_polynomial(W, x, w)
                assert p.coefficient(0) == 1
                if x != w:
                    assert 2 * kl_degree(p) <= w.length - x.length - 1


def test_kl_constant_on_descent_cosets():
    # if ws < w then P_{x,w} = P_{xs,w}
    W = weyl_group("B", 2)
    for w in W.elements:
        for s in W.right_descents(w.index):
            for x in W.elements:
                if not bruhat_leq(W, x, w):
                    continue
                xs = W.elements[W.rmult(x.index, s)]
                if bruhat_leq(W, xs, w):
                    assert kl_polynomial(W, x, w) == kl_polynomial(W, xs, w)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_r_inversion_identity(family, rank):
    # sum_z (-1)^(l(z)-l(x)) R_{x,z} R_{z,w} = delta_{x,w}
    W = weyl_group(family, rank)
    for x in W.elements:
        for w in W.elements:
            if not bruhat_leq(W, x, w):
                continue
            total = ()
            for z in W.elements:
                if bruhat_leq(W, x, z) and bruhat_leq(W, z, w):
                    term = _pmul(r_polynomial(W, x, z), r_polynomial(W, z, w))
                    sign = (-1) ** (z.length - x.length)
                    total = _padd(total, _pmul((sign,), term))
            assert total == ((1,) if x == w else ())


@pytest.mark.parametrize("family,rank", [("B", 2), ("G", 2), ("A", 3)])
def test_p_r_compatibility(family, rank):
    # q^(l(w)-l(x)) P_{x,w}(1/q) = sum_z R_{x,z} P_{z,w}
    W = weyl_group(family, rank)
    for x in W.elements:
        for w in W.elements:
            if not bruhat_leq(W, x, w):
                continue
            gap = w.length - x.length
            p = kl_polynomial(W, x, w).coeffs
            lhs = [0] * (gap + 1)
            for i, c in enumerate(p):
                lhs[gap - i] = c
            while lhs and lhs[-1] == 0:
                lhs.pop()
            rhs = ()
            for z in W.elements:
                if bruhat_leq(W, x, z) and bruhat_leq(W, z, w):
                    rhs = _padd(
                        rhs, _pmul(r_polynomial(W, x, z), kl_polynomial(W, z, w).coeffs)
                    )
            assert tuple(lhs) == rhs


def test_r_palindrome_property():
    # R_{x,w}(q) = (-q)^(l(w)-l(x)) R_{x,w}(1/q)
    W = weyl_group("A", 3)
    for x in W.elements:
        for w in W.elements:
            if not bruhat_leq(W, x, w) or x == w:
                continue
            r = r_polynomial(W, x, w)
            gap = w.length - x.length
            flipped = [0] * (gap + 1)
            for i, c in enumerate(r):
                flipped[gap - i] = c * (-1) ** gap
            while flipped and flipped[-1] == 0:
                flipped.pop()
            assert r == tuple(flipped)


def test_parabolic_kl_basic():
    W = weyl_group("A", 3)
    J = (1, 3)
    reps = minimal_coset_reps(W, J)
    top = max(reps, key=lambda r: r.length)
    for x in reps:
        assert parabolic_kl(W, J, x, x) == KL_ONE
        # the full quotient graph is smooth projective (all stalks trivial)
        if bruhat_leq(W, x, top):
            assert parabolic_kl(W, J, x, top) == KL_ONE


def test_parabolic_kl_reduces_to_kl_at_empty_j():
    W = weyl_group("A", 3)
    w = W.element_of_word([2, 1, 3, 2])
    assert parabolic_kl(W, (), identity(W), w) == kl_polynomial(W, identity(W), w)


def test_parabolic_kl_singular_grassmannian_point():
    # the Schubert divisor in Gr(2,4) (minimal rep s1s3s2) is singular at
    # its bottom fixed point with stalk 1+q
    W = weyl_group("A", 3)
    J = (1, 3)
    w = W.element_of_word([1, 3, 2])
    assert parabolic_kl(W, J, identity(W), w) == KLPolynomial((1, 1))


def test_parabolic_kl_rejects_non_minimal():
    W = weyl_group("A", 3)
    s1 = W.element_of_word([1])
    with pytest.raises(ValidationError):
        parabolic_kl(W, (1,), s1, W.elements[0])


def test_intpoly_helpers():
    assert _padd((1, 2), (0, -2)) == (1,)
    assert _psub((1,), (1,)) == ()
    assert _pmul((-1, 1), (-1, 1)) == (1, -2, 1)
    assert _pshift((1, 1), 2) == (0, 0, 1, 1)


def _full_scan_p(W):
    """P_{x,w} by the recursion of the module docstring, with the mu sum
    scanning all of W and two Bruhat tests per z: the reference for the
    mu-list of KLTable."""
    memo = {}

    def mu(z, v):
        gap = W.length(v) - W.length(z)
        if gap <= 0 or gap % 2 == 0:
            return 0
        c = p(z, v)
        i = (gap - 1) // 2
        return c[i] if i < len(c) else 0

    def p(x, w):
        if x == w:
            return (1,)
        if W.length(x) >= W.length(w) or not bruhat_leq(W, x, w):
            return ()
        if (x, w) in memo:
            return memo[(x, w)]
        s = W.right_descents(w)[0]
        v = W.rmult(w, s)
        xs = W.rmult(x, s)
        if W.length(xs) < W.length(x):
            out = _padd(p(xs, v), _pshift(p(x, v), 1))
        else:
            out = _padd(_pshift(p(xs, v), 1), p(x, v))
        for z in range(len(W)):
            if W.length(W.rmult(z, s)) > W.length(z):
                continue
            if not (bruhat_leq(W, x, z) and bruhat_leq(W, z, v)):
                continue
            m = mu(z, v)
            if m:
                shift = (W.length(w) - W.length(z)) // 2
                out = _psub(out, _pshift(_pmul((m,), p(x, z)), shift))
        memo[(x, w)] = out
        return out

    return p


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("A", 4)])
def test_mu_list_matches_the_full_scan(family, rank):
    W = weyl_group(family, rank)
    table = KLTable(W)
    reference = _full_scan_p(W)
    pairs = 0
    for w in range(len(W)):
        for x in range(len(W)):
            if bruhat_leq(W, x, w):
                assert table.p(x, w) == reference(x, w)
                pairs += 1
    assert pairs > len(W)


def test_mu_list_holds_exactly_the_nonzero_mu():
    W = weyl_group("B", 3)
    table = KLTable(W)
    for v in range(len(W)):
        expected = [(z, table.mu(z, v)) for z in range(len(W)) if table.mu(z, v)]
        assert table.mu_list(v) == expected
        assert all(bruhat_leq(W, z, v) and z != v for z, _ in expected)
