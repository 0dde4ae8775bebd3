"""Per-layer metrics from the traced pass's spans.

A span's self time is its duration minus the time its child spans cover
(child duration plus the tracer's own tail work) and minus time in counted
calls made directly under it.  The verify sub-checks are read off the spans
that ``cmd_verify`` calls, in the order ``cmd_verify`` runs them:

* intervals: ``canonical_sheaf`` calls after the first (the top sheaf);
* oracle: ``kl_polynomial``/``parabolic_kl`` calls before the first
  ``monotonicity_check``;
* monotonicity: from the first ``monotonicity_check`` to ``verify_pure``
  (transport checks plus the coefficientwise KL comparison);
* purity: ``verify_pure``;
* planar: ``boundary_image`` plus ``planar_image``.
"""

from __future__ import annotations

from collections import defaultdict

NAME, START, END, PARENT, JOB, TAIL, LEAF, STATS = range(8)

ORACLE = ("hecke_oracle.kl_polynomial", "hecke_oracle.parabolic_kl")
EXACTALG = ("exactalg.kernel_basis", "exactalg.image_basis", "exactalg.matrix_rank",
            "exactalg.Subspace", "exactalg.rref")

# (metric, unit); every workload reports all of them, 0 where a layer is idle
METRICS = [
    ("cli.resolve_s", "s"), ("cli.self_s", "s"),
    ("cli.verify.intervals_s", "s"), ("cli.verify.oracle_s", "s"),
    ("cli.verify.monotonicity_s", "s"), ("cli.verify.purity_s", "s"),
    ("cli.verify.planar_s", "s"),
    ("coxeter.enumerate_s", "s"), ("coxeter.bruhat_calls", "count"),
    ("coxeter.bruhat_s", "s"), ("coxeter.coset_reps_s", "s"),
    ("moment_graph.build_s", "s"), ("moment_graph.vertices", "count"),
    ("moment_graph.edges", "count"), ("moment_graph.covers_s", "s"),
    ("moment_graph.serialize_s", "s"), ("moment_graph.planar_family_s", "s"),
    ("moment_graph.select_calls", "count"),
    ("exactalg.rref_calls", "count"), ("exactalg.rref_s", "s"),
    ("exactalg.rref_cells", "count"), ("exactalg.rref_nnz", "count"),
    ("exactalg.rank_ratio", "ratio"), ("exactalg.max_bits", "bits"),
    ("exactalg.kernel_s", "s"), ("exactalg.subspace_calls", "count"),
    ("exactalg.subspace_s", "s"), ("exactalg.reduce_calls", "count"),
    ("exactalg.reduce_s", "s"),
    ("sheaf.canonical_s", "s"), ("sheaf.vertices", "count"),
    ("sheaf.sections_calls", "count"), ("sheaf.section_cols", "count"),
    ("sheaf.assemble_s", "s"), ("sheaf.eliminate_s", "s"), ("sheaf.cover_s", "s"),
    ("sheaf.install_s", "s"), ("sheaf.hilbert_s", "s"),
    ("sheaf.stalk_rank_sum", "count"),
    ("hecke_oracle.kl_calls", "count"), ("hecke_oracle.kl_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _verify_subchecks(spans, children, out) -> None:
    for i, s in enumerate(spans):
        if s[NAME] != "cli.cmd_verify":
            continue
        kids = [spans[c] for c in children[i]]
        sheaves = [k for k in kids if k[NAME] == "sheaf.canonical_sheaf"]
        out["cli.verify.intervals_s"] += sum(k[END] - k[START] for k in sheaves[1:])
        mono = [k[START] for k in kids if k[NAME] == "sheaf.monotonicity_check"]
        pure = [k[START] for k in kids if k[NAME] == "sheaf.verify_pure"]
        mono_start = mono[0] if mono else (pure[0] if pure else s[END])
        out["cli.verify.oracle_s"] += sum(
            k[END] - k[START] for k in kids if k[NAME] in ORACLE and k[START] < mono_start
        )
        if mono and pure:
            out["cli.verify.monotonicity_s"] += pure[0] - mono[0]
        for k in kids:
            if k[NAME] == "sheaf.verify_pure":
                out["cli.verify.purity_s"] += k[END] - k[START]
            elif k[NAME] in ("sheaf.boundary_image", "sheaf.planar_image"):
                out["cli.verify.planar_s"] += k[END] - k[START]


def layer_metrics(spans: list[list], counted: dict[str, list]) -> dict[str, float]:
    """All per-layer metrics except the trace overhead, from one pass."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    dur = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        d = s[END] - s[START]
        covered = sum(
            spans[c][END] - spans[c][START] + spans[c][TAIL] for c in children[i]
        )
        dur[s[NAME]] += d
        self_time[s[NAME]] += d - covered - s[LEAF]
        calls[s[NAME]] += 1

    out = defaultdict(float)
    out["cli.resolve_s"] = dur["cli.resolve_input"]
    out["cli.self_s"] = sum(v for k, v in self_time.items() if k.startswith("cli."))
    _verify_subchecks(spans, children, out)

    out["coxeter.enumerate_s"] = dur["coxeter.build_weyl_group"]
    bruhat = counted.get("coxeter.bruhat_leq", [0, 0.0])
    out["coxeter.bruhat_calls"], out["coxeter.bruhat_s"] = bruhat
    out["coxeter.coset_reps_s"] = dur["coxeter.minimal_coset_reps"]

    out["moment_graph.build_s"] = (self_time["moment_graph.schubert_moment_graph"]
                                   + self_time["moment_graph.load_graph"])
    out["moment_graph.covers_s"] = dur["moment_graph.covers"]
    out["moment_graph.serialize_s"] = (self_time["moment_graph.save_graph_json"]
                                       + self_time["moment_graph.to_dot"])
    out["moment_graph.planar_family_s"] = dur["moment_graph.planar_family"]
    out["moment_graph.select_calls"] = calls["moment_graph.select"]

    rows = rank = 0
    for s in spans:
        if s[NAME] in EXACTALG and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "sheaf.sections":
            out["sheaf.eliminate_s"] += s[END] - s[START]
        st = s[STATS]
        if st is None:
            continue
        if s[NAME] in ("moment_graph.schubert_moment_graph", "moment_graph.load_graph"):
            out["moment_graph.vertices"] += st["vertices"]
            out["moment_graph.edges"] += st["edges"]
        elif s[NAME] == "exactalg.rref":
            out["exactalg.rref_cells"] += st["cells"]
            out["exactalg.rref_nnz"] += st["nnz"]
            out["exactalg.max_bits"] = max(out["exactalg.max_bits"], st["max_bits"])
            rows += st["rows"]
            rank += st["rank"]
        elif s[NAME] == "sheaf.canonical_sheaf":
            out["sheaf.vertices"] += st["vertices"]
            out["sheaf.stalk_rank_sum"] += st["stalk_ranks"]
        elif s[NAME] == "sheaf.sections":
            out["sheaf.section_cols"] += st["cols"]
    out["exactalg.rref_calls"] = calls["exactalg.rref"]
    out["exactalg.rref_s"] = dur["exactalg.rref"]
    out["exactalg.rank_ratio"] = rank / rows if rows else 0.0
    out["exactalg.kernel_s"] = dur["exactalg.kernel_basis"]
    out["exactalg.subspace_calls"] = calls["exactalg.Subspace"]
    out["exactalg.subspace_s"] = dur["exactalg.Subspace"]
    out["exactalg.reduce_calls"], out["exactalg.reduce_s"] = counted.get(
        "exactalg.reduce", [0, 0.0])

    out["sheaf.canonical_s"] = dur["sheaf.canonical_sheaf"]
    out["sheaf.sections_calls"] = calls["sheaf.sections"]
    out["sheaf.assemble_s"] = self_time["sheaf.sections"] + self_time["sheaf.rho_degree_matrix"]
    out["sheaf.cover_s"] = dur["sheaf.projective_cover"]
    out["sheaf.install_s"] = self_time["sheaf.canonical_sheaf"]
    out["sheaf.hilbert_s"] = dur["sheaf.global_hilbert"]

    out["hecke_oracle.kl_calls"] = sum(calls[n] for n in ORACLE)
    out["hecke_oracle.kl_s"] = sum(dur[n] for n in ORACLE)
    return {name: out[name] for name, _ in METRICS if name != "trace.overhead_ratio"}
