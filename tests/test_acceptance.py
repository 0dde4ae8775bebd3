"""Acceptance suite.

One test per numbered criterion; each prints a single pass/fail line (run
with `pytest -s tests/test_acceptance.py` to see them all) and enforces its
statement exactly, with no tolerances: every comparison here is exact
rational/integer arithmetic.
"""

import time

from momentsheaf.cli import main as cli_main
from momentsheaf.coxeter import bruhat_leq, minimal_coset_reps
from momentsheaf.exactalg import graded_dim
from momentsheaf.hecke_oracle import _padd, _pshift, kl_polynomial, parabolic_kl
from momentsheaf.sheaf import (
    GammaSheaf,
    GradedFreeModule,
    RhoMap,
    boundary_image,
    direct_hilbert,
    global_hilbert,
    monotonicity_check,
    planar_image,
    stalk_poincare,
    verify_pure,
)
from helpers import (
    KL_ONE,
    finite_two_orbit_test,
    polygon_image,
    section_dims,
    solved_images,
    structure_sheaf,
    vertex,
)

# criterion-3 graph battery: the longest word in each group, plus five fixed
# non-maximal words (including s2 s1 s3 s2 in A3)
FULL_FLAGS = [("A", 2), ("B", 2), ("G", 2), ("A", 3)]
FIXED_WORDS = [
    ("A", 3, "2132"),
    ("A", 3, "12321"),
    ("B", 2, "121"),
    ("B", 2, "212"),
    ("G", 2, "12121"),
]
BATTERY = [(f, r, "longest") for f, r in FULL_FLAGS] + FIXED_WORDS


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def kl_bound(g, x):
    top = g.unique_maximal()
    return max((g.ranks[top] - g.ranks[x] - 1) // 2, 0)


def oracle_for(lab, family, rank, word, J=()):
    W = lab.group(family, rank)
    if word == "longest" and J:
        w = max(minimal_coset_reps(W, J), key=lambda r: r.length)
    else:
        w = lab.element(family, rank, word)
    return W, w


def test_criterion_1_sl3_smoke(lab):
    start = time.monotonic()
    g = lab.graph("A", 2)
    sheaf = lab.sheaf("A", 2)
    stalks_trivial = all(
        stalk_poincare(sheaf, v) == KL_ONE for v in range(g.n_vertices)
    )
    # at s the boundary module is A/(V_L V_L'): its degreewise dimensions
    # are those of a quotient by one degree-2 form, dim A_d - dim A_{d-2}
    expected = [graded_dim(2, d) - graded_dim(2, d - 2) for d in range(3)]
    dims = section_dims(boundary_image(sheaf, vertex(g, "1"), 2))
    elapsed = time.monotonic() - start
    verdict(
        1,
        "SL3 smoke",
        stalks_trivial and dims == expected and elapsed < 1.0,
        f"stalks=1 everywhere, boundary dims at s {dims}, {elapsed:.3f}s",
    )


def test_criterion_2_pappus(lab):
    start = time.monotonic()
    g = lab.graph("A", 2)
    sheaf = lab.sheaf("A", 2)
    e = vertex(g, "e")
    poly_dim = polygon_image(sheaf, e, 1).dim(1)
    sect_dim = boundary_image(sheaf, e, 1).dim(1)
    elapsed = time.monotonic() - start
    verdict(
        2,
        "Pappus regression",
        poly_dim == 3 and sect_dim == 2 and elapsed < 1.0,
        f"polygon {poly_dim}, sections {sect_dim}, {elapsed:.3f}s",
    )


def test_criterion_3_oracle_equivalence(lab):
    start = time.monotonic()
    checked = 0
    ok = True
    for family, rank, word in BATTERY:
        W, w = oracle_for(lab, family, rank, word)
        g = lab.graph(family, rank, word)
        sheaf = lab.sheaf(family, rank, word)
        for v in range(g.n_vertices):
            x = lab.element(family, rank, g.labels[v])
            checked += 1
            if stalk_poincare(sheaf, v) != kl_polynomial(W, x, w):
                ok = False
    elapsed = time.monotonic() - start
    verdict(
        3,
        "oracle equivalence",
        ok and elapsed < 600.0,
        f"{checked} stalks across {len(BATTERY)} graphs, {elapsed:.1f}s",
    )


def test_criterion_4_parabolic(lab):
    ok = True
    details = []
    for J in [(1, 2), (2, 3), (1, 3)]:
        W = lab.group("A", 3)
        g = lab.graph("A", 3, "longest", J=J)
        sheaf = lab.sheaf("A", 3, "longest", J=J)
        top = max(minimal_coset_reps(W, J), key=lambda r: r.length)
        for v in range(g.n_vertices):
            x = lab.element("A", 3, g.labels[v])
            if stalk_poincare(sheaf, v) != parabolic_kl(W, J, x, top):
                ok = False
            if not finite_two_orbit_test(g, v):
                ok = False
            bound = kl_bound(g, v) + 1
            bi = boundary_image(sheaf, v, bound)
            po = polygon_image(sheaf, v, bound)
            if any(bi.subspace(d) != po.subspace(d) for d in range(bound + 1)):
                ok = False
        details.append(f"J={J}")
    verdict(4, "parabolic check", ok, ", ".join(details))


def test_criterion_5_planar_equivalence(lab):
    start = time.monotonic()
    ok = True
    for family, rank, word in BATTERY:
        g = lab.graph(family, rank, word)
        sheaf = lab.sheaf(family, rank, word)
        for v in range(g.n_vertices):
            if not g.up[v]:
                continue
            bound = kl_bound(g, v) + 1
            bi = boundary_image(sheaf, v, bound)
            pl = planar_image(sheaf, v, bound)
            if any(bi.subspace(d) != pl.subspace(d) for d in range(bound + 1)):
                ok = False
    elapsed = time.monotonic() - start
    verdict(5, "planar algorithm equivalence", ok, f"{elapsed:.1f}s")


def test_criterion_6_purity(lab):
    ok = all(
        verify_pure(sheaf, None, solved_images(sheaf)).ok
        for sheaf in (lab.sheaf(family, rank, word) for family, rank, word in BATTERY)
    )
    # mutation test: dropping a generator must break the image axiom
    g = lab.graph("A", 3, "2132")
    good = lab.sheaf("A", 3, "2132")
    e = vertex(g, "e")
    mutated = GammaSheaf(g)
    mutated.vertex_modules = dict(good.vertex_modules)
    mutated.rho = dict(good.rho)
    mutated.vertex_modules[e] = GradedFreeModule((0,))
    for k in g.up[e]:
        rho = good.rho[k]
        mutated.rho[k] = RhoMap(tuple((row[0],) for row in rho.entries))
    # verify_pure checks axiom 3 only: axioms 1 and 2 hold by construction
    caught = not verify_pure(mutated, None, solved_images(mutated)).ok
    verdict(6, "purity suite", ok and caught,
            "all canonical sheaves pure; dropped generator caught by axiom 3")


def test_criterion_7_monotonicity(lab):
    ok = True
    # surjectivity on every edge of every A3 graph in the battery, which
    # covers every comparable pair: the order is the closure of the edges
    for family, rank, word in BATTERY:
        if (family, rank) != ("A", 3):
            continue
        g = lab.graph(family, rank, word)
        sheaf = lab.sheaf(family, rank, word)
        for k in range(len(g.edges)):
            if not all(monotonicity_check(sheaf, k).values()):
                ok = False
    # coefficientwise KL inequality over all comparable triples in A3
    W = lab.group("A", 3)
    triples = 0
    for z in W.elements:
        below = [x for x in W.elements if bruhat_leq(W, x, z)]
        for x in below:
            px = kl_polynomial(W, x, z)
            for y in below:
                if bruhat_leq(W, x, y):
                    triples += 1
                    if not px.dominates(kl_polynomial(W, y, z)):
                        ok = False
    verdict(7, "monotonicity", ok, f"{triples} comparable triples")


def test_criterion_8_global_sections(lab):
    start = time.monotonic()
    ok = True
    for family, rank, word in BATTERY:
        W, w = oracle_for(lab, family, rank, word)
        g = lab.graph(family, rank, word)
        sheaf = lab.sheaf(family, rank, word)
        expected = ()
        for y in W.elements:
            if bruhat_leq(W, y, w):
                expected = _padd(
                    expected, _pshift(kl_polynomial(W, y, w).coeffs, y.length)
                )
        got = tuple(global_hilbert(sheaf, w.length))
        if got != expected:
            ok = False
    elapsed = time.monotonic() - start
    verdict(8, "global sections", ok, f"{elapsed:.1f}s")


def test_criterion_9_gkm_structure_sheaf(lab):
    start = time.monotonic()
    ok = True
    for family, rank in FULL_FLAGS:
        W = lab.group(family, rank)
        g = lab.graph(family, rank)
        sheaf = structure_sheaf(g)
        top_len = W.longest.length
        dims = direct_hilbert(sheaf, top_len)
        counts = [sum(1 for y in W.elements if y.length == d) for d in range(top_len + 1)]
        if dims != counts:
            ok = False
    elapsed = time.monotonic() - start
    verdict(9, "structure sheaf / GKM", ok, f"{elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    a, b = tmp_path / "run1.txt", tmp_path / "run2.txt"
    codes = []
    for path in (a, b):
        codes.append(
            cli_main(
                ["verify", "--type", "A3", "--word", "longest", "--out", str(path)]
            )
        )
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    verdict(10, "determinism", codes == [0, 0] and identical,
            "two verify runs, byte-identical artifacts")
