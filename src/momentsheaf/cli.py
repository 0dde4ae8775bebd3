"""Batch driver: build moment graphs, run the canonical construction, emit
tables and dumps, and run the verification suites.

Exit codes: 0 success, 1 verification mismatch (diff printed), 2 input
validation or an output path that cannot be written, 3 resource cap or
internal consistency failure.  Identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

# sheaf first: without a bytecode cache the largest module then compiles
# before the others are loaded, which lowers every command's peak memory
from .sheaf import (
    GammaSheaf,
    SheafReads,
    boundary_image,
    canonical_sheaf,
    certified_images,
    degree_bounds,
    global_hilbert,
    monotonicity_check,
    planar_image,
    sheaf_dump,
    stalk_poincare,
    stalk_table_csv,
    verify_pure,
)
from .coxeter import (
    CartanDatum,
    WeylElement,
    WeylGroup,
    build_weyl_group,
    check_group_cap,
    minimal_coset_reps,
)
from .errors import ConsistencyError, ResourceCapError, ValidationError
from .hecke_oracle import kl_polynomial, parabolic_kl
from .moment_graph import (
    MomentGraph,
    load_graph,
    save_graph_json,
    schubert_moment_graph,
    to_dot,
)

COMMANDS = ("graph", "sheaf", "kl", "hilbert", "verify")


class RunConfig(NamedTuple):
    """One resolved invocation: a graph source plus output options."""

    command: str
    family: str | None = None
    rank: int | None = None
    word: str | None = None
    parabolic: tuple[int, ...] = ()
    graph_path: str | None = None
    max_degree: int | None = None
    out_path: str | None = None
    dot_path: str | None = None

    def validate(self) -> None:
        has_group = self.family is not None
        has_path = self.graph_path is not None
        if has_group == has_path:
            raise ValidationError(
                "specify exactly one input: --type (group) or --graph PATH"
            )
        if self.max_degree is not None and self.max_degree < 0:
            raise ValidationError("--max-degree must be nonnegative")


def _parse_type(text: str) -> tuple[str, int]:
    text = text.strip()
    if not text:
        raise ValidationError("empty --type")
    family = text[0].upper()
    if len(text) == 1:
        raise ValidationError(f"--type {text!r} needs a rank, such as {family}4")
    try:
        return family, int(text[1:])
    except ValueError as exc:
        raise ValidationError(f"cannot parse rank from --type {text!r}") from exc


def _parse_parabolic(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(sorted({int(p) for p in text.split(",")}))
    except ValueError as exc:
        raise ValidationError(f"cannot parse --parabolic {text!r}") from exc


def parse_args(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="momentsheaf",
        description="canonical sheaves on moment graphs and KL polynomials",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--type", dest="family_spec",
                        help="group family and rank, e.g. A3, B2, G2")
    parser.add_argument("--word", default="longest",
                        help="simple-reflection index string like 2132, "
                        "'e' for the identity, or 'longest'")
    parser.add_argument("--parabolic", default="",
                        help="comma-separated simple indices, e.g. '1,3'")
    parser.add_argument("--graph", dest="graph_path", help="path to a graph JSON file")
    parser.add_argument("--max-degree", dest="max_degree", type=int)
    parser.add_argument("--out", dest="out_path")
    parser.add_argument("--dot", dest="dot_path")
    ns = parser.parse_args(argv)

    family = rank = None
    if ns.family_spec is not None:
        family, rank = _parse_type(ns.family_spec)
    config = RunConfig(
        command=ns.command,
        family=family,
        rank=rank,
        word=ns.word,
        parabolic=_parse_parabolic(ns.parabolic),
        graph_path=ns.graph_path,
        max_degree=ns.max_degree,
        out_path=ns.out_path,
        dot_path=ns.dot_path,
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# graph resolution


class ResolvedInput(NamedTuple):
    graph: MomentGraph
    group: WeylGroup | None = None
    parabolic: tuple[int, ...] = ()


def _resolve_word(W: WeylGroup, word: str, J: tuple[int, ...]) -> WeylElement:
    if word == "longest":
        reps = minimal_coset_reps(W, J)
        return max(reps, key=lambda r: r.length)
    if word == "e":  # the identity, as every table prints it
        word = ""
    try:
        letters = [int(c) for c in word]
    except ValueError as exc:
        raise ValidationError(f"cannot parse word {word!r}") from exc
    element = W.element_of_word(letters)
    if element.length != len(letters):
        raise ValidationError(f"word {word!r} is not reduced")
    return element


def resolve_input(config: RunConfig) -> ResolvedInput:
    if config.graph_path is not None:
        try:
            with open(config.graph_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read {config.graph_path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # a decode error and too deep a nesting are refused like bad JSON
            raise ValidationError(f"invalid JSON in {config.graph_path}: {exc}") from exc
        g = load_graph(doc)
        tops = g.maximal_vertices()
        if len(tops) > 1:
            # tolerated in the data model; sheaf-building commands will refuse
            sys.stderr.write(
                f"warning: graph has {len(tops)} maximal vertices; the "
                "canonical-sheaf construction needs exactly one\n"
            )
        return ResolvedInput(graph=g)
    check_group_cap(config.family, config.rank)  # before the datum, which costs rank^4
    W = build_weyl_group(CartanDatum.build(config.family, config.rank))
    w = _resolve_word(W, config.word, config.parabolic)
    g = schubert_moment_graph(W, w, config.parabolic)
    return ResolvedInput(graph=g, group=W, parabolic=config.parabolic)


def _vertex_element(W: WeylGroup, label: str) -> WeylElement:
    return W.element_of_word([] if label == "e" else [int(c) for c in label])


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_graph(config: RunConfig, resolved: ResolvedInput) -> int:
    g = resolved.graph
    _emit(save_graph_json(g), config.out_path)
    if config.dot_path is not None:
        _emit(to_dot(g), config.dot_path)
    return 0


def _build_sheaf(config: RunConfig, resolved: ResolvedInput) -> GammaSheaf:
    """The canonical sheaf.  A Schubert graph carries its own proven bound:
    no generator lies above it, so the build stops there, and --max-degree
    only sets the degrees hilbert and verify read; one below it would
    silently truncate the stalks and is refused.  A loaded graph carries no
    bound, so it needs --max-degree and is built to it."""
    g = resolved.graph
    if g.schubert_origin:
        proven = max(degree_bounds(g))
        if config.max_degree is not None and config.max_degree < proven:
            raise ValidationError(
                f"--max-degree {config.max_degree} is below the proven degree "
                f"bound {proven} of this Schubert graph and would truncate it"
            )
        return canonical_sheaf(g)
    if config.max_degree is None:
        raise ValidationError(
            "a loaded graph carries no proven degree bound; pass --max-degree N"
        )
    return canonical_sheaf(g, degree_bound=config.max_degree)


def cmd_sheaf(config: RunConfig, resolved: ResolvedInput) -> int:
    sheaf = _build_sheaf(config, resolved)
    _emit(json.dumps(sheaf_dump(sheaf), indent=2, sort_keys=True) + "\n", config.out_path)
    return 0


def cmd_kl(config: RunConfig, resolved: ResolvedInput) -> int:
    sheaf = _build_sheaf(config, resolved)
    _emit(stalk_table_csv(sheaf), config.out_path)
    return 0


def cmd_hilbert(config: RunConfig, resolved: ResolvedInput) -> int:
    g = resolved.graph
    sheaf = _build_sheaf(config, resolved)
    d_max = config.max_degree
    if d_max is None:
        d_max = max(g.ranks)
    dims = global_hilbert(sheaf, d_max)
    lines = ["d,dim"] + [f"{d},{v}" for d, v in enumerate(dims)]
    _emit("\n".join(lines) + "\n", config.out_path)
    return 0


def cmd_verify(config: RunConfig, resolved: ResolvedInput) -> int:
    g = resolved.graph
    report_lines: list[str] = []
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        status = "pass" if ok else "FAIL"
        line = f"{name}: {status}" + (f" ({detail})" if detail else "")
        report_lines.append(line)
        if not ok:
            failures.append(line)

    sheaf = _build_sheaf(config, resolved)
    table = stalk_table_csv(sheaf)

    if resolved.group is not None:
        W = resolved.group
        elements = {label: _vertex_element(W, label) for label in g.labels}

        def oracle(x: WeylElement, z: WeylElement):
            if resolved.parabolic:
                return parabolic_kl(W, resolved.parabolic, x, z)
            return kl_polynomial(W, x, z)

        matches = 0
        total = 0
        diffs = []
        # sweep every Bruhat interval [e, z] below the top word: each gets
        # its own canonical sheaf, so all comparable KL pairs are compared;
        # the top's own interval gives P(x, top) for the monotonicity check
        top_label = g.labels[g.unique_maximal()]
        for z_label in g.labels:
            z = elements[z_label]
            if z_label == top_label:
                gz, shz = g, sheaf
            else:
                gz = schubert_moment_graph(W, z, resolved.parabolic)
                shz = canonical_sheaf(gz)
            expected_at = [oracle(elements[label], z) for label in gz.labels]
            if z_label == top_label:
                kl_to_top = expected_at
            for v, expected in enumerate(expected_at):
                got = stalk_poincare(shz, v)
                total += 1
                if got == expected:
                    matches += 1
                else:
                    diffs.append(
                        f"  P({gz.labels[v]}, {z_label}): sheaf={got} oracle={expected}"
                    )
        record("oracle", matches == total, f"{matches}/{total} KL values match")
        report_lines.extend(diffs)

        mono_ok = True
        ineq_ok = True
        for x in range(g.n_vertices):
            for y in range(g.n_vertices):
                if not g.leq(x, y):
                    continue
                if not all(monotonicity_check(sheaf, x, y).values()):
                    mono_ok = False
                if not kl_to_top[x].dominates(kl_to_top[y]):
                    ineq_ok = False
        record("monotonicity (transport surjective)", mono_ok)
        record("monotonicity (KL coefficientwise)", ineq_ok)

    # the image T of the sections over {>x} at every vertex with up edges,
    # to the degree purity reads; without --max-degree (a Schubert graph)
    # one degree more, which the planar check reads.  On a Schubert graph
    # the planar image P comes first: with S' the span of the sweep's
    # witnessed generator boundaries, S' <= T <= P, and certified_images
    # returns T = S' wherever the dimensions meet.  Every other vertex
    # falls back to the direct solver, boundary_image.  The planar check is
    # proven only for graphs of projective origin, and T < P can happen on
    # a loaded graph, so there no P is computed and every vertex falls back.
    # These stages and purity reread the top sheaf's rho matrices across
    # vertices, so they share one SheafReads, dropped when verify returns.
    reads = SheafReads(sheaf)
    extra = int(config.max_degree is None)
    probes = {
        x: bound + extra
        for x, bound in enumerate(degree_bounds(g, config.max_degree))
        if g.up[x]
    }
    planar = {}
    if g.schubert_origin:
        planar = {x: planar_image(sheaf, x, probe, reads) for x, probe in probes.items()}
    certified = certified_images(sheaf, planar, reads)
    images = {
        x: certified[x] if x in certified else boundary_image(sheaf, x, probe, reads)
        for x, probe in probes.items()
    }

    purity = verify_pure(sheaf, degree_bound=config.max_degree, images=images, reads=reads)
    detail = ""
    if not purity.ok:
        v = purity.first_violation
        detail = f"axiom {v.axiom} at {g.labels[v.vertex]}"
    record("purity", purity.ok, detail)

    planar_check = "planar image equals sections image"
    if g.schubert_origin:
        planar_ok = all(
            images[x].subspace(d) == pl.subspace(d)
            for x, pl in planar.items()
            for d in pl.layouts
        )
        record(planar_check, planar_ok)
    else:
        report_lines.append(
            f"{planar_check}: not applicable (proven only for graphs of Schubert origin)"
        )

    artifact = "\n".join(report_lines) + "\n" + table
    _emit(artifact, config.out_path)
    if failures:
        sys.stderr.write("\n".join(failures) + "\n")
        return 1
    return 0


def run(config: RunConfig) -> int:
    resolved = resolve_input(config)
    handler = {
        "graph": cmd_graph,
        "sheaf": cmd_sheaf,
        "kl": cmd_kl,
        "hilbert": cmd_hilbert,
        "verify": cmd_verify,
    }[config.command]
    return handler(config, resolved)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        return run(config)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ResourceCapError, ConsistencyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
