"""Tests for the command-line driver: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentsheaf.cli as cli
from momentsheaf.cli import main, parse_args
from momentsheaf.errors import ValidationError


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_a2_longest(capsys):
    code, out, _ = run_cli(["kl", "--type", "A2", "--word", "longest"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,P"
    assert len(lines) == 7
    assert all(line.endswith(",1") for line in lines[1:])


def test_kl_nontrivial_value(capsys):
    code, out, _ = run_cli(["kl", "--type", "A3", "--word", "2132"], capsys)
    assert code == 0
    assert "e,2132,1+q" in out


def test_the_console_script_runs_in_a_fresh_interpreter():
    """The [project.scripts] target resolves with nothing but the package
    on the path, and runs the way an installed console script calls it."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts, re.M))
    assert targets == {"momentsheaf": "momentsheaf.cli:main"}
    module, func = targets["momentsheaf"].split(":")
    code = (
        f"import sys\nfrom {module} import {func}\n"
        "sys.argv = ['momentsheaf', 'kl', '--type', 'A1']\n"
        f"sys.exit({func}())\n"
    )
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "x,y,P\ne,1,1\n1,1,1\n", "")


@pytest.mark.parametrize("command", ["kl", "graph"])
def test_word_e_is_the_identity(command, capsys):
    # every table prints the identity as e, so --word e names it
    code, out, err = run_cli([command, "--type", "A2", "--word", "e"], capsys)
    assert (code, err) == (0, "")
    assert run_cli([command, "--type", "A2", "--word="], capsys) == (0, out, "")
    if command == "kl":
        assert out == "x,y,P\ne,e,1\n"


def test_graph_json_and_dot(tmp_path, capsys):
    out_json = tmp_path / "g.json"
    out_dot = tmp_path / "g.dot"
    code, _, _ = run_cli(
        ["graph", "--type", "A2", "--out", str(out_json), "--dot", str(out_dot)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["dim_t"] == 2
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 9
    assert "digraph" in out_dot.read_text()


def test_kl_from_graph_file_requires_degree(tmp_path, capsys):
    path = tmp_path / "g.json"
    run_cli(["graph", "--type", "A2", "--out", str(path)], capsys)
    code, _, err = run_cli(["kl", "--graph", str(path)], capsys)
    assert code == 2
    assert "--max-degree" in err
    code, out, _ = run_cli(["kl", "--graph", str(path), "--max-degree", "1"], capsys)
    assert code == 0
    assert out.count(",1\n") == 6


def test_sheaf_dump_command(capsys):
    code, out, _ = run_cli(["sheaf", "--type", "A3", "--word", "2132"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_id = {v["id"]: v["generator_degrees"] for v in doc["vertices"]}
    assert by_id["e"] == [0, 1]


def test_max_degree_is_not_the_build_bound_on_schubert_graphs(capsys, monkeypatch):
    bounds = []
    build = cli.canonical_sheaf

    def spy(g, degree_bound=None, **kwargs):
        bounds.append(degree_bound)
        return build(g, degree_bound=degree_bound, **kwargs)

    monkeypatch.setattr(cli, "canonical_sheaf", spy)
    args = ["sheaf", "--type", "A3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    code, out6, _ = run_cli(args + ["--max-degree", "6"], capsys)
    assert code == 0 and out6 == out
    assert bounds == [None, None]


def test_hilbert_command(capsys):
    code, out, _ = run_cli(["hilbert", "--type", "A2"], capsys)
    assert code == 0
    assert out == "d,dim\n0,1\n1,2\n2,2\n3,1\n"


def test_verify_a2(capsys):
    code, out, _ = run_cli(["verify", "--type", "A2"], capsys)
    assert code == 0
    assert "oracle: pass" in out
    assert "purity: pass" in out
    assert "planar image equals sections image: pass" in out


def test_verify_parabolic(capsys):
    code, out, _ = run_cli(
        ["verify", "--type", "A3", "--parabolic", "1,3"], capsys
    )
    assert code == 0
    assert "oracle: pass" in out


def test_verify_artifacts_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run_cli(
            ["verify", "--type", "B2", "--word", "longest", "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_exit_codes(capsys, monkeypatch, tmp_path):
    # validation: both --type and --graph
    code, _, err = run_cli(["kl", "--type", "A2", "--graph", "x.json"], capsys)
    assert code == 2
    # validation: unknown type
    code, _, _ = run_cli(["kl", "--type", "H3"], capsys)
    assert code == 2
    # validation: non-reduced word
    code, _, _ = run_cli(["kl", "--type", "A2", "--word", "11"], capsys)
    assert code == 2
    # resource cap via the environment variable
    monkeypatch.setenv("MOMENTSHEAF_CAP", "4")
    code, _, err = run_cli(["kl", "--type", "A2"], capsys)
    assert code == 3
    assert "order 6" in err
    monkeypatch.delenv("MOMENTSHEAF_CAP")
    # the cap is checked before the root datum, which takes seconds at rank 24
    start = time.perf_counter()
    code, out, err = run_cli(["graph", "--type", "A24", "--word", "longest"], capsys)
    assert (code, out) == (3, "")
    assert "exceeding the cap of 50000" in err
    assert time.perf_counter() - start < 1.0
    # the retired construction options are unknown arguments
    for retired in (["--algorithm", "planar"], ["--allow-approximation"]):
        with pytest.raises(SystemExit) as exc:
            main(["kl", "--type", "A2", *retired])
        assert exc.value.code == 2
    # a --max-degree below the proven bound would truncate P_{e,2132} = 1+q
    code, out, err = run_cli(
        ["kl", "--type", "A3", "--word", "2132", "--max-degree", "0"], capsys
    )
    assert (code, out) == (2, "")
    assert "proven degree bound 1" in err
    code, out, _ = run_cli(
        ["kl", "--type", "A3", "--word", "2132", "--max-degree", "1"], capsys
    )
    assert code == 0
    assert "e,2132,1+q" in out
    # validation: negative degree bound
    code, _, err = run_cli(["kl", "--type", "A2", "--max-degree", "-1"], capsys)
    assert code == 2
    assert "nonnegative" in err
    # validation: parabolic index out of range, with and without a word
    for word in ("longest", "2132"):
        code, _, err = run_cli(
            ["kl", "--type", "A3", "--word", word, "--parabolic", "9"], capsys
        )
        assert code == 2
        assert "parabolic index 9" in err
    # the retired thread option is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["kl", "--type", "A2", "--threads", "2"])
    assert exc.value.code == 2
    # malformed graph documents are refused with a message, never a traceback
    chain = [f"v{i}" for i in range(2000)]
    for mutate, message in [
        (lambda doc: doc["edges"][0].pop("direction"), "direction"),
        (lambda doc: doc["edges"][0].update(direction=["a"]), "not a rational"),
        (lambda doc: doc["edges"][0].update(direction=["1/0"]), "not a rational"),
        (lambda doc: doc["edges"][0].update(direction="1"), "not a list"),
        (lambda doc: doc["vertices"].append("t"), "'t' is not an object"),
        (lambda doc: doc["order"]["covers"].append(["e", "s", "e"]), "not a pair"),
        (lambda doc: doc.update(dim_t="1"), "dim_t must be an integer"),
        (lambda doc: doc["vertices"][0].update(rank=0.5), "not an integer"),
        (lambda doc: doc.update(
            vertices=[{"id": v} for v in chain],
            order={"covers": [list(p) for p in zip(chain, chain[1:] + chain[:1])]},
            edges=[],
        ), "cycle"),
    ]:
        doc = {
            "dim_t": 1,
            "vertices": [{"id": "e"}, {"id": "s"}],
            "order": {"covers": [["e", "s"]]},
            "edges": [{"lower": "e", "upper": "s", "direction": ["1"]}],
        }
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            ["kl", "--graph", str(path), "--max-degree", "1"], capsys
        )
        assert code == 2
        assert message in err
    # a file that is not UTF-8, and one nested past the decoder's recursion
    # limit, are refused with a message too
    for data, message in [(b"\xff\xfe", "can't decode byte 0xff"),
                          (b"[" * 200_000, "while decoding a JSON array")]:
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run_cli(["graph", "--graph", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: invalid JSON in {path}: ") and message in err
    # so is a number past the interpreter's limit on integer digits
    path.write_text('{"dim_t": ' + "1" * 5000 + "}")
    assert run_cli(["graph", "--graph", str(path)], capsys)[:2] == (2, "")


def test_parse_args_bare_family_letter_needs_a_rank(capsys):
    config = parse_args(["kl", "--type", "D4"])
    assert (config.family, config.rank) == ("D", 4)
    with pytest.raises(ValidationError):
        parse_args(["kl", "--type", "D"])
    code, out, err = run_cli(["kl", "--type", "D"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --type 'D' needs a rank, such as D4\n"
    # --type carries the rank; a separate --rank is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["kl", "--type", "A2", "--rank", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,flag", [("sheaf", "--out"), ("graph", "--dot")])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, flag):
    missing = tmp_path / "missing" / "x"
    code, _, err = run_cli([command, "--type", "A1", flag, str(missing)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}: ") and err.count("\n") == 1


def test_verify_detects_mismatch_on_loaded_graph(tmp_path, capsys):
    # a hand-made wedge with two maximal vertices cannot be verified
    doc = {
        "dim_t": 2,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "order": {"covers": [["a", "b"], ["a", "c"]]},
        "edges": [
            {"lower": "a", "upper": "b", "direction": ["1", "0"]},
            {"lower": "a", "upper": "c", "direction": ["0", "1"]},
        ],
    }
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        ["verify", "--graph", str(path), "--max-degree", "1"], capsys
    )
    assert code == 2
    assert "maximal" in err


def test_verify_loaded_graph_runs_structural_checks(tmp_path, capsys):
    path = tmp_path / "b2.json"
    run_cli(["graph", "--type", "B2", "--out", str(path)], capsys)
    code, out, _ = run_cli(
        ["verify", "--graph", str(path), "--max-degree", "2"], capsys
    )
    assert code == 0
    assert "purity: pass" in out
    assert "oracle" not in out  # no group data for a loaded graph
    # the planar check is proven only for graphs of projective origin
    assert (
        "planar image equals sections image: not applicable "
        "(proven only for graphs of Schubert origin)\n" in out
    )
    assert "FAIL" not in out


def test_verify_a1(capsys):
    code, out, _ = run_cli(["verify", "--type", "A1"], capsys)
    assert code == 0
    assert "3/3 KL values match" in out  # intervals [e,e] and [e,s]


def test_graph_command_warns_on_multiple_maxima(tmp_path, capsys):
    import json as _json

    doc = {
        "dim_t": 1,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "order": {"covers": [["a", "b"], ["a", "c"]]},
        "edges": [{"lower": "a", "upper": "b", "direction": ["1"]}],
    }
    path = tmp_path / "wedge.json"
    path.write_text(_json.dumps(doc))
    code, out, err = run_cli(["graph", "--graph", str(path)], capsys)
    assert code == 0
    assert "2 maximal vertices" in err


# small JSON values, for replacing one node of a graph document
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.sampled_from(["1", "a", "1/0", "-1/2", "v0"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["id", "rank", "lower", "upper", "direction", "covers"]),
        kids, max_size=3,
    ),
    max_leaves=6,
)


def _node_paths(node, path=()):
    """The key path of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


@st.composite
def graph_documents(draw):
    """At most six vertices ordered along their index, an edge with a small
    direction on each cover, on request a unique top (so that the sheaf
    code runs), and in half the draws one node replaced by a random value."""
    n = draw(st.integers(1, 6))
    dim_t = draw(st.integers(1, 3))
    labels = [f"v{i}" for i in range(n)]
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    if draw(st.booleans()):
        lowers = {i for i, _ in covers}
        covers += [(i, n - 1) for i in range(n - 1) if i not in lowers]
    direction = st.lists(st.integers(-2, 2), min_size=dim_t, max_size=dim_t)
    with_ranks = draw(st.booleans())
    doc = {
        "dim_t": dim_t,
        "vertices": [{"id": lab, "rank": i} if with_ranks else {"id": lab}
                     for i, lab in enumerate(labels)],
        "order": {"covers": [[labels[i], labels[j]] for i, j in covers]},
        "edges": [{"lower": labels[i], "upper": labels[j],
                   "direction": [str(c) for c in draw(direction)]} for i, j in covers],
    }
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_node_paths(doc))))
        value = draw(_JSON)
        if not path:
            return value
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graph_documents(), st.sampled_from([None, 0, 1, 2]))
def test_fuzzed_graph_documents_never_crash(doc, max_degree):
    """Every command answers or refuses with exit 2 or 3."""
    degree = [] if max_degree is None else ["--max-degree", str(max_degree)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("graph", "kl", "sheaf", "hilbert", "verify"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--graph", path, *degree])
            assert code in (0, 2, 3)
