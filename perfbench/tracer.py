"""Span tracer for the benchmark's traced pass.

The tracer wraps public functions of each ``momentsheaf`` module under the
names their callers look up (``sheaf.kernel_basis``, ``cli.canonical_sheaf``,
``MomentGraph.covers``, ...), so nothing under ``src/`` changes.  Every
wrapped call becomes a span ``[name, start, end, parent, job, tail, leaf,
stats]``:

* ``parent`` is the index of the enclosing span (-1 at the root);
* ``tail`` is tracer time spent after ``end`` computing ``stats`` (matrix
  sizes, bit lengths), so it is charged to no layer;
* ``leaf`` is time spent directly under the span in *counted* functions.

Counted functions (``bruhat_leq``, ``LinearQuotient.reduce``) run hundreds of
thousands of times per job; they get a call counter and a time total but no
span, so the traced pass stays close to the untraced one.

Spans are kept in memory and written once, at the end of the job.  Run as a
script, this module is one traced job: it installs the wrappers, calls
``momentsheaf.cli.main(argv)`` in-process, removes the wrappers, checks that
every patched name is back to its original, and writes the spans as JSON:

    python3 perfbench/tracer.py SPANS.json JOB_ID -- kl --type B3
"""

from __future__ import annotations

import functools
import json
import sys
import time
from importlib import import_module

perf = time.perf_counter

# (module, attribute, span name).  An attribute ``Class.method`` is patched
# on the class.  Names are listed once per calling module that binds them.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "resolve_input", "cli.resolve_input"),
    ("cli", "cmd_graph", "cli.cmd_graph"),
    ("cli", "cmd_sheaf", "cli.cmd_sheaf"),
    ("cli", "cmd_kl", "cli.cmd_kl"),
    ("cli", "cmd_hilbert", "cli.cmd_hilbert"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("cli", "build_weyl_group", "coxeter.build_weyl_group"),
    ("cli", "minimal_coset_reps", "coxeter.minimal_coset_reps"),
    ("moment_graph", "minimal_coset_reps", "coxeter.minimal_coset_reps"),
    ("cli", "schubert_moment_graph", "moment_graph.schubert_moment_graph"),
    ("cli", "load_graph", "moment_graph.load_graph"),
    ("moment_graph", "MomentGraph.covers", "moment_graph.covers"),
    ("cli", "save_graph_json", "moment_graph.save_graph_json"),
    ("cli", "to_dot", "moment_graph.to_dot"),
    ("sheaf", "planar_family", "moment_graph.planar_family"),
    ("sheaf", "select", "moment_graph.select"),
    ("exactalg", "rref", "exactalg.rref"),
    ("exactalg", "kernel_basis", "exactalg.kernel_basis"),
    ("sheaf", "kernel_basis", "exactalg.kernel_basis"),
    ("sheaf", "image_basis", "exactalg.image_basis"),
    ("sheaf", "matrix_rank", "exactalg.matrix_rank"),
    ("exactalg", "Subspace.__init__", "exactalg.Subspace"),
    ("cli", "canonical_sheaf", "sheaf.canonical_sheaf"),
    ("sheaf", "sections", "sheaf.sections"),
    ("sheaf", "rho_degree_matrix", "sheaf.rho_degree_matrix"),
    ("sheaf", "projective_cover", "sheaf.projective_cover"),
    ("sheaf", "boundary_image", "sheaf.boundary_image"),
    ("cli", "boundary_image", "sheaf.boundary_image"),
    ("sheaf", "planar_image", "sheaf.planar_image"),
    ("cli", "planar_image", "sheaf.planar_image"),
    ("cli", "global_hilbert", "sheaf.global_hilbert"),
    ("cli", "verify_pure", "sheaf.verify_pure"),
    ("cli", "monotonicity_check", "sheaf.monotonicity_check"),
    ("cli", "kl_polynomial", "hecke_oracle.kl_polynomial"),
    ("cli", "parabolic_kl", "hecke_oracle.parabolic_kl"),
]

COUNTED = [
    ("moment_graph", "bruhat_leq", "coxeter.bruhat_leq"),
    ("hecke_oracle", "bruhat_leq", "coxeter.bruhat_leq"),
    ("exactalg", "LinearQuotient.reduce", "exactalg.reduce"),
]


def _rref_prepare(args, kwargs):
    """Materialize the rows once, so the stats can read them after the call."""
    if len(args) != 2:
        return args, kwargs
    rows, ncols = args
    return (list(rows), ncols), kwargs


def _rref_stats(args, out):
    rows, ncols = args
    pivots, final = out
    bits = 0
    for r in final:
        for v in r.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return {
        "rows": len(rows),
        "cells": len(rows) * ncols,
        "nnz": sum(len(r) for r in rows),
        "rank": len(pivots),
        "max_bits": bits,
    }


def _graph_stats(args, g):
    return {"vertices": g.n_vertices, "edges": len(g.edges)}


def _sheaf_stats(args, sheaf):
    g = sheaf.graph
    return {
        "vertices": g.n_vertices - 1,
        "stalk_ranks": sum(m.rank for m in sheaf.vertex_modules.values()),
    }


def _sections_stats(args, space):
    return {"cols": sum(lay.total for lay in space.layouts.values())}


PREPARE = {"exactalg.rref": _rref_prepare}
STATS = {
    "exactalg.rref": _rref_stats,
    "moment_graph.schubert_moment_graph": _graph_stats,
    "moment_graph.load_graph": _graph_stats,
    "sheaf.canonical_sheaf": _sheaf_stats,
    "sheaf.sections": _sections_stats,
}


def _resolve(module: str, attr: str):
    owner = import_module(f"momentsheaf.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls, None)
    return owner, attr


class Tracer:
    """Records spans and counted calls for one job; see the module doc."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.counted: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.errors: list[str] = []

    def _span(self, name, fn):
        spans, stack, job = self.spans, self._stack, self.job
        prepare, stats = PREPARE.get(name), STATS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, job, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if stats is not None:
                try:
                    rec[7] = stats(args, out)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    self.errors.append(f"{name} stats: {exc!r}")
                rec[5] = perf() - rec[2]
            return out

        return wrapper

    def _counter(self, name, fn):
        """Counted functions call no traced function, so they never nest."""
        spans, stack = self.spans, self._stack
        cell = self.counted.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                cell[0] += 1
                cell[1] += dt
                if stack:
                    spans[stack[-1]][6] += dt

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for module, spec, name in table:
                owner, attr = _resolve(module, spec)
                original = getattr(owner, "__dict__", {}).get(attr)
                if original is None:  # renamed or removed: its metrics read 0
                    self.errors.append(f"no {module}.{spec} to trace")
                    continue
                setattr(owner, attr, make(name, original))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, then check that each one really is."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if owner.__dict__[attr] is not original
        ]
        self._patched.clear()
        if left:
            raise RuntimeError(f"tracer wrappers left installed: {left}")

    def dump(self) -> dict:
        return {"job": self.job, "spans": self.spans, "counted": self.counted,
                "errors": self.errors}


def run_traced(job: str, argv: list[str]) -> tuple[int, dict]:
    """Run one CLI invocation in-process under the tracer."""
    cli = import_module("momentsheaf.cli")
    tracer = Tracer(job)
    tracer.install()
    try:
        rc = cli.main(argv)
    finally:
        tracer.uninstall()
    return rc, tracer.dump()


def main() -> int:
    spans_path, job, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json JOB_ID -- CLI_ARGS...")
    rc, record = run_traced(job, argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
