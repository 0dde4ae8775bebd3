"""Output checks, run outside the timed window.

Each check returns an error string, or None when the output is right:

* ``kl`` on a Schubert graph: the CSV equals the Hecke oracle's
  ``kl_table_csv`` byte for byte; parabolic jobs compare against
  ``parabolic_kl`` rows rendered by ``klpoly.poincare_csv``;
* ``hilbert``: the dims equal the coefficients of
  sum_{x <= w} q^l(x) P_{x,w}(q), from the oracle;
* ``verify``: exit 0 and every report line reads ``pass``;
* ``graph``: the JSON round-trips through ``load_graph`` and
  ``save_graph_json`` byte for byte, with the expected vertex count;
* ``kl-generic`` has no oracle: the CSV has one row per vertex.  Like every
  job, it must also print the same bytes on every pass.
"""

from __future__ import annotations

import json
import re

from momentsheaf.coxeter import bruhat_leq, minimal_coset_reps, weyl_group
from momentsheaf.hecke_oracle import kl_polynomial, kl_table_csv, parabolic_kl
from momentsheaf.klpoly import poincare_csv
from momentsheaf.moment_graph import load_graph, save_graph_json

_REPORT_LINE = re.compile(r"^[^:]+: pass( \(.*\))?$")


def _interval(check: dict):
    W = weyl_group(check["family"], check["rank"])
    J = tuple(check["parabolic"])
    reps = minimal_coset_reps(W, J)
    if check["word"] == "longest":
        w = max(reps, key=lambda r: r.length)
    else:
        w = W.element_of_word(int(c) for c in check["word"])
    return W, J, w, [x for x in reps if bruhat_leq(W, x, w)]


def _check_kl(check: dict, stdout: str, artifacts: dict) -> str | None:
    W, J, w, below = _interval(check)
    if J:
        rows = [(x.word_str(), w.word_str(), parabolic_kl(W, J, x, w)) for x in below]
        expected = poincare_csv(rows)
    else:
        expected = kl_table_csv(W, w, below)
    return None if stdout == expected else "KL table differs from the oracle"


def _check_hilbert(check: dict, stdout: str, artifacts: dict) -> str | None:
    W, _, w, below = _interval(check)
    coeffs = [0] * (w.length + 1)
    for x in below:
        for i, c in enumerate(kl_polynomial(W, x, w).coeffs):
            coeffs[x.length + i] += c
    expected = "\n".join(["d,dim"] + [f"{d},{v}" for d, v in enumerate(coeffs)]) + "\n"
    return None if stdout == expected else "hilbert dims differ from the oracle"


def _check_verify(check: dict, stdout: str, artifacts: dict) -> str | None:
    report = stdout.split("x,y,P\n", 1)[0].splitlines()
    if not report:
        return "verify printed no report"
    bad = [line for line in report if not _REPORT_LINE.match(line)]
    return f"verify report lines not passing: {bad}" if bad else None


def _check_graph(check: dict, stdout: str, artifacts: dict) -> str | None:
    text = next(v for k, v in artifacts.items() if k.endswith(".json"))
    if save_graph_json(load_graph(json.loads(text))) != text:
        return "graph JSON does not round-trip through load_graph"
    _, _, _, below = _interval(check)
    n = len(json.loads(text)["vertices"])
    return None if n == len(below) else f"graph has {n} vertices, expected {len(below)}"


def _check_generic(check: dict, stdout: str, artifacts: dict) -> str | None:
    lines = stdout.splitlines()
    if lines[:1] != ["x,y,P"] or len(lines) != 1 + check["vertices"]:
        return "generic KL table is not one row per vertex"
    return None


CHECKS = {
    "kl": _check_kl,
    "hilbert": _check_hilbert,
    "verify": _check_verify,
    "graph": _check_graph,
    "kl-generic": _check_generic,
}


def check_output(check: dict, rc: int, stdout: str, artifacts: dict) -> str | None:
    """Error message for a wrong output, or None."""
    if rc != 0:
        return f"exit code {rc}"
    return CHECKS[check["kind"]](check, stdout, artifacts)
