"""Golden digests: the artifacts of a fixed battery, pinned byte for byte.

The determinism tests compare two runs of the same code, and the oracle
checks only stalk degrees.  These digests pin the rho matrices, the global
sections and the serialized graphs themselves, so a refactor of the matrix
builders or the order code must reproduce every byte.  A digest changes only
when an artifact is meant to change; the new value then goes in with the
change that explains it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from momentsheaf.cli import main
from momentsheaf.coxeter import weyl_group
from momentsheaf.moment_graph import load_graph, save_graph, save_graph_json, schubert_moment_graph
from momentsheaf.sheaf import canonical_sheaf, kl_degree_bound, sheaf_dump
from helpers import polygon_image

GOLDEN = {
    "sheaf-A3": "b6f0d933f93b88933690316be6ca0c51422099f9a3644fa837fc015cec75f7da",
    "sheaf-G2": "5e0209995d7f9ba46037e0664033e93bff4dfca38ae649826b72451dd0488df6",
    "sheaf-B3-J1": "845e82b22df1862f78257a16b31e53d264e8c73fc8fb0a3876c4b08cafef4b3c",
    "sheaf-B3": "b320b0549d6f52f5aed499baaf1acddd4f0ab4e41e275e55b53b9f38df8bc285",
    "sheaf-B3-213213": "28f146f6f1c279c8c005af267c195cb131e8e978234590b64d2007c60d5dae60",
    "sheaf-C3": "7439fd543175024c8f7ea185ce016018ffecd9fcda5d0bd77670d0d690a4a003",
    "sheaf-A4-J13": "a2177268c667dad52ab7ba24e73d005838c3a4512520e09ea4720c554c17789d",
    "sheaf-generic-A3-bound2": "231fc734703918f980f6a894d8d02b0db68f782000212ba7a68e250c69a66b30",
    "sheaf-generic-B2-bound2": "f9af0300cfe6eca628c3e5e1c8487c22160d405214dd82f6aa11b7d8a73fe51f",
    "sheaf-generic-G2-bound2": "8dbd6141a88aa4d5178c1e24734673db8a6d4835492fd2003bdb3cd9655eab77",
    "polygon-A3-2132": "47eb9149ebb82de3f5c94aae710a18310b2d6164882bd450e6ba17d72829aa34",
    "hilbert-A3": "7028b015d6d7f470de4200560fa511211a7bc099a9f7bfa3dda32daa90879d42",
    "hilbert-G2": "22933a7630b37f5b333f4ba93ec01359284c8aef2e44f3e9cfc7b95346dbe80b",
    "hilbert-A3-J2": "56b50e6b3bb4ed63ae9fcf30e3f7632cc4fff129d4367b77477b211fafa4a5b2",
    "hilbert-A3-deg3": "d133e33daa9f065925ea863fa92aace5df8311a14e02a77199c635706c57d7a8",
    "hilbert-A3-deg8": "dfdefed7b52a97024d224381d4ba6184e57f2f3288391d317cd2bc9bb30641e2",
    "hilbert-A3-deg32": "f3d93cb0a6955d58e2e3a31a222a63bb64cd98e07807c27e8875f2716f4ea6d8",
    "hilbert-generic-A3-deg2": "15cc37073d6f041a67c3d4e8667babad40f34a7664b045d17135f439feb21ce7",
    "hilbert-generic-B2-deg2": "e0cf91116bfcfcdeb583210f917cfb7199872fc71880b11586cdf3d58a61d634",
    "hilbert-generic-G2-deg2": "6ea61c6f70ffedbfeb163a34eb21d27fe985dec479acfa850119001edc26507b",
    "hilbert-B3-J1": "4fa572e17efc340e032884c95cd3b14fcf6c65157050c82c3a392439345350ef",
    "verify-A3": "663e818ab06add59c5912ebc95e90a4f5dc663baa77f7e46a1d181a13ffd3a15",
    "verify-G2": "68680d971fc0da362ddcbc2d7426067caaff8d73bd09654d755ccc116c4d6e89",
    "verify-B3-J1": "725ff2d1a75620568261bd405db41f9326a1f68dd77335a0faa198bd37ccf9dc",
    "verify-B3-213213": "89c5d9ea50aeb8c82717ef1d8a0fa614edd2b58ed0fad1b9b99418ad8a4d6cab",
    "verify-A3-2132": "ed76c669dc1e84fee3e93f41835e23300f98ca2153d85b2980c99f795671f94f",
    "verify-B2-deg3": "5d9ae2fa38d38a378c77a8fae5d6728e63c5194245f68d1d0aad19dfebe805a3",
    "verify-generic-A3-deg2": "ff891dcf9b3abc7c1f45b1a98a8e81962a57fb41a3867c8e3d901440cfdfe133",
    "verify-generic-G2-deg2": "b06a36a490a848b456dfa18808de00ba37d59e59442fc1ee93075c2d38e777d2",
    "graph-B4-json": "332295a6bfb365fc2c1a7358219359088d228fb584bd876a33dc475222794018",
    "graph-B4-dot": "3e4fb614a9220ef90391a75e0f67c5d913cf99c8b43b98241131b96eaf8dfeb0",
    "graph-D4-json": "afc5796cd0fd4d55caca70473aa49d083c2f083319d5d003c093fc6bd37d7fe3",
    "graph-D4-dot": "25f0b566800509acf7b847ff5baf5ce1dc39e82db9f3a3cdab09e816252e1ae2",
    "graph-F4-321323432132-json": "603565b575ad97aa35b797fcab3dfbeffeed1037cb7c71c8782af3d52c520e9b",
    "graph-F4-321323432132-dot": "5724d44cd24cf338725d99a9a215ec0afa5cfa21df89ff315294fa12a7a0010c",
    "graph-F4-121343213234-json": "e8783279310715a9690533fc0c0ed28188d70a4ba191fb9a1935f047246824a2",
    "graph-F4-121343213234-dot": "29300f6941b67f0b46d88b8d16167993827dcba480a34ba9cf5d6b1598a743d0",
    "graph-B3-J1-json": "87d423560f0328b1e42420027dbc7bef4cf4548f782cf9c02e59596f75020b3f",
    "graph-B3-J1-dot": "6c5f92379bbbc474eedbb5169d2e07cbb9843012deca752bad502c322ed99be6",
    "graph-G2-json": "ddbbe05f90c7fa9b93034e2f29bbce9c38a5cc268ba6cf311de042a4769e3206",
    "graph-G2-dot": "95c0b03f89841ee405b2ac0ab5f57ca86a43bb7c9169f2b252b2cdd425bdf13b",
    "graph-E6-J12345-json": "00cdfa4eb9ef119e4161c0fcaf7e6b134eefea900ccfd8ee6cb238e8ba68039f",
}


# kl D4 longest, the one rank-4 longest sheaf pinned; it runs in a fresh
# process, which also reads its peak memory
KL_D4_LONGEST = "83610cc6e5178b48197a223063697e4fbb5db4600f3bda04068d0ce1e7085a4f"

# kl B4 longest and hilbert A4 longest, built on a generic rank-2 subtorus
KL_B4_LONGEST = "814877d4efc2b13c92154dca22852ef5b66fc26f0117f6d1cd94cb056145c217"
HILBERT_A4_LONGEST = "240e0962256660adeac2814d4c8e81f38455d290b1a191dfd52a254f01556b30"

# graph F4 longest, 1,152 vertices and 13,824 edges, likewise in a fresh process
GRAPH_F4_LONGEST = "4b05b2c8b5c6a02da06a9e7c667bf405a4ebbdf5e7bba08738355ff38fe8d211"

# Runs python with the given arguments, its stdout written to a file, and
# prints its exit code and ru_maxrss.  On Linux a child's ru_maxrss starts at
# the high-water mark of the process that spawned it, so this small launcher
# spawns the command, not pytest.
_LAUNCHER = """
import os, sys
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, sys.argv[1], flags, 0o644)]
cmd = [sys.executable, *sys.argv[2:]]
pid = os.posix_spawn(sys.executable, cmd, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _fresh_cli(args, out: Path) -> tuple[int, bytes, int]:
    """Exit code, stdout and ru_maxrss (KB on Linux) of one CLI run in a
    fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(out), "-m", "momentsheaf.cli", *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=600,
    )
    code, maxrss = map(int, done.stdout.split())
    return code, out.read_bytes(), maxrss


def _dump(sheaf) -> str:
    return json.dumps(sheaf_dump(sheaf), indent=2, sort_keys=True) + "\n"


def _polygon_images(sheaf) -> str:
    """The polygon image one degree past the proven bound at every vertex
    with up edges, in index order, as RREF bases with str scalars."""
    g = sheaf.graph
    top = g.unique_maximal()
    doc = []
    for x in range(g.n_vertices):
        if not g.up[x]:
            continue
        image = polygon_image(sheaf, x, kl_degree_bound(g, x, top) + 1)
        bases = [
            [[str(c) for c in vec] for vec in image.subspace(d).basis_vectors()]
            for d in sorted(image.bases)
        ]
        doc.append({"vertex": g.labels[x], "bases": bases})
    return json.dumps(doc, indent=2) + "\n"


def _generic_doc(family: str, rank: int) -> dict:
    """The Schubert poset of the longest element with fixed non-GKM edge
    directions; the sheaves on these graphs have non-integral rho entries."""
    W = weyl_group(family, rank)
    doc = save_graph(schubert_moment_graph(W, W.longest))
    for k, edge in enumerate(doc["edges"]):
        edge["direction"] = [str((k * a) % 7 - 3) for a in (1, 3, 5)[:rank]]
    return doc


def _generic_a3_doc() -> dict:
    """The A3 Schubert poset with fixed non-GKM edge directions."""
    return _generic_doc("A", 3)


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _cli(args, tmp_path, *names):
    paths = [tmp_path / name for name in names]
    argv = list(args)
    for flag, path in zip(("--out", "--dot"), paths):
        argv += [flag, str(path)]
    assert main(argv) == 0
    return [path.read_text(encoding="utf-8") for path in paths]


def _e6_minuscule_json(lab) -> list[str]:
    """The graph of E6 mod P_{1,2,3,4,5}; W(E6) is above the default cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("MOMENTSHEAF_CAP", "60000")
        return [save_graph_json(lab.graph("E", 6, J=(1, 2, 3, 4, 5)))]


def _sheaf(lab, family, rank, word="longest", J=()):
    return _dump(canonical_sheaf(lab.graph(family, rank, word, J)))


ARTIFACTS = {
    "sheaf-A3": lambda lab, tmp: [_sheaf(lab, "A", 3)],
    "sheaf-G2": lambda lab, tmp: [_sheaf(lab, "G", 2)],
    "sheaf-B3-J1": lambda lab, tmp: [_sheaf(lab, "B", 3, J=(1,))],
    "sheaf-B3": lambda lab, tmp: [_sheaf(lab, "B", 3)],
    # edge rings of scale 2, where the cover's lifts, reduced-echelon in
    # ring coordinates, must be rescaled at install to print these bytes
    "sheaf-B3-213213": lambda lab, tmp: [_sheaf(lab, "B", 3, "213213")],
    "sheaf-C3": lambda lab, tmp: [_sheaf(lab, "C", 3)],
    "sheaf-A4-J13": lambda lab, tmp: [_sheaf(lab, "A", 4, J=(1, 3))],
    "sheaf-generic-A3-bound2": lambda lab, tmp: [
        _dump(canonical_sheaf(load_graph(_generic_a3_doc()), degree_bound=2))
    ],
    "sheaf-generic-B2-bound2": lambda lab, tmp: [
        _dump(canonical_sheaf(load_graph(_generic_doc("B", 2)), degree_bound=2))
    ],
    "sheaf-generic-G2-bound2": lambda lab, tmp: [
        _dump(canonical_sheaf(load_graph(_generic_doc("G", 2)), degree_bound=2))
    ],
    # polygon_image is a check, not a builder: pin it on the canonical sheaf
    "polygon-A3-2132": lambda lab, tmp: [
        _polygon_images(canonical_sheaf(lab.graph("A", 3, "2132")))
    ],
    "hilbert-A3": lambda lab, tmp: _cli(["hilbert", "--type", "A3"], tmp, "h.csv"),
    "hilbert-G2": lambda lab, tmp: _cli(["hilbert", "--type", "G2"], tmp, "h.csv"),
    "hilbert-A3-J2": lambda lab, tmp: _cli(
        ["hilbert", "--type", "A3", "--parabolic", "2"], tmp, "h.csv"
    ),
    # below the graph's dimension the table is cut; above it, zero-padded
    "hilbert-A3-deg3": lambda lab, tmp: _cli(
        ["hilbert", "--type", "A3", "--max-degree", "3"], tmp, "h.csv"
    ),
    "hilbert-A3-deg8": lambda lab, tmp: _cli(
        ["hilbert", "--type", "A3", "--max-degree", "8"], tmp, "h.csv"
    ),
    "hilbert-A3-deg32": lambda lab, tmp: _cli(
        ["hilbert", "--type", "A3", "--max-degree", "32"], tmp, "h.csv"
    ),
    # a loaded graph takes the direct whole-graph solve
    "hilbert-generic-A3-deg2": lambda lab, tmp: _cli(
        ["hilbert", "--graph", _write_json(tmp / "generic.json", _generic_a3_doc()),
         "--max-degree", "2"],
        tmp, "h.csv",
    ),
    "hilbert-generic-B2-deg2": lambda lab, tmp: _cli(
        ["hilbert", "--graph", _write_json(tmp / "generic.json", _generic_doc("B", 2)),
         "--max-degree", "2"],
        tmp, "h.csv",
    ),
    "hilbert-generic-G2-deg2": lambda lab, tmp: _cli(
        ["hilbert", "--graph", _write_json(tmp / "generic.json", _generic_doc("G", 2)),
         "--max-degree", "2"],
        tmp, "h.csv",
    ),
    "hilbert-B3-J1": lambda lab, tmp: _cli(
        ["hilbert", "--type", "B3", "--parabolic", "1"], tmp, "h.csv"
    ),
    "verify-A3": lambda lab, tmp: _cli(["verify", "--type", "A3"], tmp, "v.txt"),
    "verify-G2": lambda lab, tmp: _cli(["verify", "--type", "G2"], tmp, "v.txt"),
    "verify-B3-J1": lambda lab, tmp: _cli(
        ["verify", "--type", "B3", "--parabolic", "1"], tmp, "v.txt"
    ),
    "verify-B3-213213": lambda lab, tmp: _cli(
        ["verify", "--type", "B3", "--word", "213213"], tmp, "v.txt"
    ),
    # singular, with several planes per vertex
    "verify-A3-2132": lambda lab, tmp: _cli(
        ["verify", "--type", "A3", "--word", "2132"], tmp, "v.txt"
    ),
    # the planar images and the certificate run above the proven bound
    "verify-B2-deg3": lambda lab, tmp: _cli(
        ["verify", "--type", "B2", "--max-degree", "3"], tmp, "v.txt"
    ),
    # every vertex of a loaded graph takes boundary_image: no planar image,
    # no certificate
    "verify-generic-A3-deg2": lambda lab, tmp: _cli(
        ["verify", "--graph", _write_json(tmp / "generic.json", _generic_a3_doc()),
         "--max-degree", "2"],
        tmp, "v.txt",
    ),
    "verify-generic-G2-deg2": lambda lab, tmp: _cli(
        ["verify", "--graph", _write_json(tmp / "generic.json", _generic_doc("G", 2)),
         "--max-degree", "2"],
        tmp, "v.txt",
    ),
    "graph-B4": lambda lab, tmp: _cli(
        ["graph", "--type", "B4"], tmp, "g.json", "g.dot"
    ),
    "graph-D4": lambda lab, tmp: _cli(
        ["graph", "--type", "D4"], tmp, "g.json", "g.dot"
    ),
    # two F4 elements of length 12 with 300-vertex intervals
    "graph-F4-321323432132": lambda lab, tmp: _cli(
        ["graph", "--type", "F4", "--word", "321323432132"], tmp, "g.json", "g.dot"
    ),
    "graph-F4-121343213234": lambda lab, tmp: _cli(
        ["graph", "--type", "F4", "--word", "121343213234"], tmp, "g.json", "g.dot"
    ),
    "graph-B3-J1": lambda lab, tmp: _cli(
        ["graph", "--type", "B3", "--parabolic", "1"], tmp, "g.json", "g.dot"
    ),
    "graph-G2": lambda lab, tmp: _cli(
        ["graph", "--type", "G2"], tmp, "g.json", "g.dot"
    ),
    "graph-E6-J12345-json": lambda lab, tmp: _e6_minuscule_json(lab),
}


def digests(lab, tmp_path) -> dict[str, str]:
    """sha256 of every artifact, keyed like GOLDEN."""
    out = {}
    for name, make in ARTIFACTS.items():
        texts = make(lab, tmp_path)
        keys = [name] if len(texts) == 1 else [f"{name}-json", f"{name}-dot"]
        for key, text in zip(keys, texts):
            out[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


@pytest.fixture(scope="module")
def computed(lab, tmp_path_factory):
    return digests(lab, tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(computed, name):
    assert computed[name] == GOLDEN[name]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_kl_d4_longest_digest_and_memory(tmp_path):
    """The build keeps no rho matrix between reads, so kl D4 longest peaks
    within 10 MB of kl A1: about 3.5 MB above it on CPython 3.11, built on a
    generic rank-2 subtorus as kl builds it.  On the full torus it read
    4.5 MB above it, and 24 MB above it with every matrix kept on the
    sheaf."""
    code, out, d4 = _fresh_cli(["kl", "--type", "D4", "--word", "longest"], tmp_path / "d4")
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == KL_D4_LONGEST
    code, _, a1 = _fresh_cli(["kl", "--type", "A1", "--word", "longest"], tmp_path / "a1")
    assert code == 0
    assert d4 - a1 < 10 * 1024, (d4, a1)


def test_kl_b4_and_hilbert_a4_longest_digests(tmp_path):
    """The two jobs that a generic rank-2 subtorus brings into tier-1 time:
    on the full torus they take about a minute and 6 s of CPU."""
    code, out, _ = _fresh_cli(["kl", "--type", "B4"], tmp_path / "kl")
    assert code == 0 and hashlib.sha256(out).hexdigest() == KL_B4_LONGEST
    code, out, _ = _fresh_cli(["hilbert", "--type", "A4"], tmp_path / "hilbert")
    assert code == 0 and hashlib.sha256(out).hexdigest() == HILBERT_A4_LONGEST


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_graph_f4_longest_digest_and_memory(tmp_path):
    """The writer formats the document straight from the graph and reads a
    Schubert graph's covers off its rank-one edges, so graph F4 longest
    peaks within 16 MB of graph A1: about 9.5 MB above it on CPython 3.11,
    and 22.4 MB above it when save_graph's whole document was built first."""
    args = ["graph", "--word", "longest", "--type"]
    code, out, f4 = _fresh_cli([*args, "F4", "--out", str(tmp_path / "f4.json")],
                               tmp_path / "f4.out")
    assert code == 0 and out == b""
    assert hashlib.sha256((tmp_path / "f4.json").read_bytes()).hexdigest() == GRAPH_F4_LONGEST
    code, _, a1 = _fresh_cli([*args, "A1"], tmp_path / "a1")
    assert code == 0
    assert f4 - a1 < 16 * 1024, (f4, a1)
