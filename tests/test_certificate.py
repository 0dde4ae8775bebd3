"""The certified sections image that `verify` reads instead of solving over
{>x}: S' (the span of the sweep's witnessed generator boundaries) lies in
T (the sections image) and T in P (the planar image), so where dimensions
meet, S' = T.  These tests compare it with the direct solver, break the
sheaf and the witness check to see that `verify` still fails where it must,
and check that every uncertified vertex falls back to boundary_image."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import momentsheaf.cli as cli
import momentsheaf.sheaf as sheaf_mod
from momentsheaf.cli import main
from momentsheaf.errors import ConsistencyError
from momentsheaf.sheaf import (
    GradedFreeModule,
    RhoMap,
    boundary_image,
    canonical_sheaf,
    certified_images,
    degree_bounds,
    planar_image,
    sweep_order,
)
from helpers import poly_scale, set_rho_corner, zero_rho_corner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the sha256 of `verify --graph <kl-battery seed-1 generic graph> --max-degree 2`
# as the direct solver alone prints it
GENERIC_VERIFY = "fe7550b769b0f23c6bb2d5e66ec4bece42b9b913925f8597d152f3b7b667e29a"


def _probes(g):
    """The degrees verify reads at each vertex with up edges: one past the
    proven bound."""
    return {x: bound + 1 for x, bound in enumerate(degree_bounds(g)) if g.up[x]}


@pytest.mark.parametrize(
    "family,rank,word,J",
    [
        ("A", 3, "longest", ()),
        ("G", 2, "longest", ()),
        ("B", 2, "longest", ()),
        ("B", 3, "longest", (1,)),
        ("B", 3, "213213", ()),
        ("C", 3, "longest", (2,)),
        ("A", 3, "2132", ()),
    ],
    ids=["A3", "G2", "B2", "B3-J1", "B3-213213", "C3-J2", "A3-2132"],
)
def test_certified_image_equals_the_direct_solve(lab, family, rank, word, J):
    sheaf = lab.sheaf(family, rank, word, J)
    probes = _probes(sheaf.graph)
    planar = {x: planar_image(sheaf, x, probe) for x, probe in probes.items()}
    certified = certified_images(sheaf, planar)
    assert sorted(certified) == sorted(probes)  # zero fallbacks
    for x, probe in probes.items():
        direct = boundary_image(sheaf, x, probe)
        for d in range(probe + 1):
            assert certified[x].subspace(d) == direct.subspace(d)


# -- verify in process, with fallbacks counted ---------------------------------


def _verify(monkeypatch, capsys, argv, sheaf=None, certify=True):
    """Run verify in process: exit code, stdout, stderr, and the vertices
    that took boundary_image.  sheaf replaces the built top sheaf; with
    certify off every vertex takes the direct solver, as before the
    certificate."""
    fallbacks = []

    def spy(sh, x, d):
        fallbacks.append(x)
        return boundary_image(sh, x, d)

    with monkeypatch.context() as m:
        m.setattr(cli, "boundary_image", spy)
        if sheaf is not None:
            m.setattr(cli, "_build_sheaf", lambda config, resolved: sheaf)
        if not certify:
            m.setattr(cli, "certified_images", lambda sh, planar: {})
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, fallbacks


def _double_a_rho_entry(sheaf):
    """Double one rho entry on an up edge of a vertex with several up edges."""
    g = sheaf.graph
    x = next(v for v in sweep_order(g, g.unique_maximal()) if len(g.up[v]) > 1)
    k = g.up[x][0]
    entries = [list(row) for row in sheaf.rho[k].entries]
    entries[0][0] = poly_scale(entries[0][0], 2)
    sheaf.rho[k] = RhoMap(tuple(tuple(row) for row in entries))


def test_a_perturbed_rho_entry_fails_verify(lab, monkeypatch, capsys):
    sheaf = canonical_sheaf(lab.graph("A", 3))
    _double_a_rho_entry(sheaf)
    argv = ["verify", "--type", "A3"]
    code, out, err, _ = _verify(monkeypatch, capsys, argv, sheaf)
    assert code == 1
    assert "purity: FAIL (axiom 3 at " in err
    assert (code, out, err) == _verify(monkeypatch, capsys, argv, sheaf, certify=False)[:3]


def test_verify_keeps_its_rho_memo_for_one_call(lab, monkeypatch, capsys):
    # the memo lives on the sheaf for one verify call: a rho changed after a
    # passing run is read afresh by the next run on the same object, and the
    # memo is cleared however verify ends
    sheaf = canonical_sheaf(lab.graph("A", 3))
    argv = ["verify", "--type", "A3"]
    assert _verify(monkeypatch, capsys, argv, sheaf)[0] == 0
    assert sheaf.matrices is None
    _double_a_rho_entry(sheaf)
    code, _, err, _ = _verify(monkeypatch, capsys, argv, sheaf)
    assert code == 1
    assert "purity: FAIL" in err
    assert sheaf.matrices is None

    def failing(*args, **kwargs):
        assert sheaf.matrices is not None
        raise ConsistencyError("planted")

    with monkeypatch.context() as m:
        m.setattr(cli, "verify_pure", failing)
        code, out, err, _ = _verify(monkeypatch, capsys, argv, sheaf)
    assert (code, out, err) == (3, "", "error: planted\n")
    assert sheaf.matrices is None


def test_a_zeroed_constant_term_fails_monotonicity_in_verify(lab, monkeypatch, capsys):
    g = lab.graph("A", 3)
    sheaf = canonical_sheaf(g)
    order = sweep_order(g, g.unique_maximal())
    zero_rho_corner(sheaf, order[len(order) // 2])
    code, _, err, _ = _verify(monkeypatch, capsys, ["verify", "--type", "A3"], sheaf)
    assert code == 1
    assert err.splitlines() == [
        "monotonicity (transport surjective): FAIL",
        "purity: FAIL (axiom 3 at e)",
        "planar image equals sections image: FAIL",
    ]


def test_verify_checks_the_upper_map_of_every_edge(lab, monkeypatch, capsys):
    # the first edge already fails surjectivity; the last edge must still be
    # checked, and fails too
    g = lab.graph("A", 3)
    sheaf = canonical_sheaf(g)
    last = len(g.edges) - 1
    set_rho_corner(sheaf, 0, {})
    set_rho_corner(sheaf, last, {})
    checked = []

    def spy(sh, k):
        verdict = sheaf_mod.monotonicity_check(sh, k)
        checked.append((k, all(verdict.values())))
        return verdict

    monkeypatch.setattr(cli, "monotonicity_check", spy)
    code, _, err, _ = _verify(monkeypatch, capsys, ["verify", "--type", "A3"], sheaf)
    assert code == 1
    assert "monotonicity (transport surjective): FAIL" in err.splitlines()
    assert [k for k, _ in checked] == list(range(len(g.edges)))
    assert [k for k, ok in checked if not ok] == [0, last]


def _drop_generator(sheaf, x, i):
    """Remove stalk generator i at x with its rho column on the up edges and
    its row of rho on the down edges, whose edge modules are the new
    stalk's quotients."""
    g = sheaf.graph
    gens = sheaf.vertex_modules[x].gens
    sheaf.vertex_modules[x] = GradedFreeModule(gens[:i] + gens[i + 1 :])
    for k in g.up[x]:
        rows = sheaf.rho[k].entries
        sheaf.rho[k] = RhoMap(tuple(row[:i] + row[i + 1 :] for row in rows))
    for k in g.down[x]:
        rows = sheaf.rho[k].entries
        sheaf.rho[k] = RhoMap(rows[:i] + rows[i + 1 :])


def test_a_dropped_stalk_generator_fails_verify(lab, monkeypatch, capsys):
    g = lab.graph("A", 3, "2132")
    sheaf = canonical_sheaf(g)
    x = next(v for v, m in sheaf.vertex_modules.items() if m.rank > 1)
    _drop_generator(sheaf, x, sheaf.vertex_modules[x].rank - 1)
    argv = ["verify", "--type", "A3", "--word", "2132"]
    code, out, err, _ = _verify(monkeypatch, capsys, argv, sheaf)
    assert code == 1
    assert "FAIL" in err
    assert (code, out, err) == _verify(monkeypatch, capsys, argv, sheaf, certify=False)[:3]


def _perturb_after_extend(monkeypatch, sheaf, victim):
    """Double the constant generator's value at an upper neighbour of victim
    right after the replay over sheaf lifts the generators to victim, so
    that the boundaries read at victim are no longer those of a section."""
    extend = sheaf_mod._SectionSweep.extend
    g = sheaf.graph
    upper = g.edges[g.up[victim][0]].upper

    def perturbed(self, x):
        extend(self, x)
        if self.sheaf is sheaf and x == victim:
            degree, values = self.gens[0]
            assert degree == 0 and upper in values
            values[upper] = tuple(poly_scale(p, 2) for p in values[upper])

    monkeypatch.setattr(sheaf_mod._SectionSweep, "extend", perturbed)


def test_the_witness_check_carries_weight(lab, monkeypatch, capsys):
    g = lab.graph("A", 3)
    sheaf = lab.sheaf("A", 3)
    order = sweep_order(g, g.unique_maximal())
    victim = next(x for x in order if len(g.up[x]) > 1)
    argv = ["verify", "--type", "A3"]
    clean = _verify(monkeypatch, capsys, argv, sheaf)
    assert clean[0] == 0 and clean[3] == []
    with monkeypatch.context() as m:
        _perturb_after_extend(m, sheaf, victim)
        code, out, err, fallbacks = _verify(monkeypatch, capsys, argv, sheaf)
        # the real check rejects victim's star: it and every later vertex fall back
        assert (code, out, err) == clean[:3]
        assert sorted(fallbacks) == sorted(order[order.index(victim):])
        m.setattr(sheaf_mod, "_lift_holds", lambda *args: True)
        code, out, err, _ = _verify(monkeypatch, capsys, argv, sheaf)
    assert code == 1
    assert f"purity: FAIL (axiom 3 at {g.labels[victim]})" in err
    assert out != clean[1]


def test_a_consistency_error_in_the_replay_falls_back(lab, monkeypatch, capsys):
    g = lab.graph("B", 3, "213213")
    sheaf = lab.sheaf("B", 3, "213213")
    order = sweep_order(g, g.unique_maximal())
    victim = order[len(order) // 2]
    argv = ["verify", "--type", "B3", "--word", "213213"]
    clean = _verify(monkeypatch, capsys, argv, sheaf)
    extend = sheaf_mod._SectionSweep.extend

    def failing(self, x):
        if self.sheaf is sheaf and x == victim:
            raise ConsistencyError("planted")
        return extend(self, x)

    # only the replay over sheaf fails, not the interval sheaves verify builds
    monkeypatch.setattr(sheaf_mod._SectionSweep, "extend", failing)
    code, out, err, fallbacks = _verify(monkeypatch, capsys, argv, sheaf)
    assert (code, out, err) == clean[:3]
    assert sorted(fallbacks) == sorted(order[order.index(victim):])


def _kl_battery_generic_graph(tmp_path, monkeypatch) -> Path:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    workloads.build("kl-battery", 1, tmp_path)
    return tmp_path / "generic-A3.json"


def test_a_loaded_graph_falls_back_at_every_vertex(tmp_path, monkeypatch, capsys):
    path = _kl_battery_generic_graph(tmp_path, monkeypatch)
    argv = ["verify", "--graph", str(path), "--max-degree", "2"]
    code, out, err, fallbacks = _verify(monkeypatch, capsys, argv)
    g = cli.resolve_input(cli.parse_args(argv)).graph
    assert code == 0 and err == ""
    assert fallbacks == [x for x in range(g.n_vertices) if g.up[x]]
    assert hashlib.sha256(out.encode()).hexdigest() == GENERIC_VERIFY
