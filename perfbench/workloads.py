"""The three workloads: fixed CLI jobs plus one seeded job each.

The seed only generates inputs.  It picks the edge directions of the loaded
generic graph (kl-battery), a B3 element of length 6 whose Bruhat interval
has 28 vertices (check-battery) and an F4 element of length 12 whose interval
has 300 vertices (graph-battery).  The program receives only the generated
argv and files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from momentsheaf.coxeter import bruhat_leq, weyl_group
from momentsheaf.moment_graph import save_graph, schubert_moment_graph

# The seeded elements are drawn among those of one interval size: job cost
# grows with the interval, and a fixed size keeps the seeds comparable.
B3_INTERVAL_SIZE = 28
F4_INTERVAL_SIZE = 300


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the facts its output check needs.

    ``outputs`` pairs an artifact flag with a file name; the file is placed
    in the pass's own directory, so passes never share an artifact.
    """

    id: str
    command: str
    args: tuple[str, ...]
    check: dict
    outputs: tuple[tuple[str, str], ...] = ()

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, *self.args]
        for flag, name in self.outputs:
            argv += [flag, str(out_dir / name)]
        return argv


def _group_job(command: str, family: str, rank: int, word: str = "longest",
               parabolic: tuple[int, ...] = (), outputs=()) -> Job:
    args = ["--type", f"{family}{rank}", "--word", word]
    tag = f"{command}-{family}{rank}-{word}"
    if parabolic:
        args += ["--parabolic", ",".join(map(str, parabolic))]
        tag += "-J" + "".join(map(str, parabolic))
    check = {"kind": command, "family": family, "rank": rank, "word": word,
             "parabolic": list(parabolic)}
    return Job(tag, command, tuple(args), check, tuple(outputs))


def _generic_graph(rng: random.Random) -> dict:
    """The A3 Schubert poset with random small-integer edge directions."""
    W = weyl_group("A", 3)
    doc = save_graph(schubert_moment_graph(W, W.longest))
    for edge in doc["edges"]:
        vec = [0, 0, 0]
        while not any(vec):
            vec = [rng.randint(-3, 3) for _ in range(3)]
        edge["direction"] = [str(c) for c in vec]
    return doc


def _interval_size(W, w) -> int:
    return sum(1 for x in W.elements if x.length <= w.length and bruhat_leq(W, x, w))


def _pick_b3_length6(rng: random.Random) -> str:
    W = weyl_group("B", 3)
    return rng.choice(sorted(
        w.word_str() for w in W.elements
        if w.length == 6 and _interval_size(W, w) == B3_INTERVAL_SIZE
    ))


def _pick_f4_length12(rng: random.Random) -> str:
    W = weyl_group("F", 4)
    return rng.choice([
        w.word_str()
        for w in sorted((w for w in W.elements if w.length == 12), key=lambda w: w.word)
        if _interval_size(W, w) == F4_INTERVAL_SIZE
    ])


def kl_battery(rng: random.Random, work: Path) -> tuple[list[Job], dict]:
    jobs = [_group_job("kl", f, r) for f, r in (("A", 3), ("G", 2), ("B", 3), ("C", 3))]
    jobs.append(_group_job("kl", "A", 4, parabolic=(1, 3)))
    doc = _generic_graph(rng)
    path = work / "generic-A3.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    jobs.append(Job("kl-generic-A3", "kl", ("--graph", str(path), "--max-degree", "2"),
                    {"kind": "kl-generic", "vertices": len(doc["vertices"])}))
    directions = [",".join(e["direction"]) for e in doc["edges"]]
    return jobs, {"generic_graph": "A3 poset", "generic_directions": directions}


def check_battery(rng: random.Random, work: Path) -> tuple[list[Job], dict]:
    word = _pick_b3_length6(rng)
    jobs = [
        _group_job("verify", "A", 3),
        _group_job("verify", "G", 2),
        _group_job("verify", "B", 3, parabolic=(1,)),
        _group_job("verify", "B", 3, word=word),
        _group_job("hilbert", "A", 3),
    ]
    return jobs, {"b3_length6_word": word}


def graph_battery(rng: random.Random, work: Path) -> tuple[list[Job], dict]:
    word = _pick_f4_length12(rng)
    jobs = []
    for family, rank, w in (("B", 4, "longest"), ("D", 4, "longest"), ("F", 4, word)):
        name = f"{family}{rank}-{w}"
        job = _group_job("graph", family, rank, word=w,
                         outputs=(("--out", f"{name}.json"), ("--dot", f"{name}.dot")))
        jobs.append(job)
    return jobs, {"f4_length12_word": word, "f4_interval_vertices": F4_INTERVAL_SIZE}


WORKLOADS = {
    "kl-battery": kl_battery,
    "check-battery": check_battery,
    "graph-battery": graph_battery,
}


def build(workload: str, seed: int, work: Path) -> tuple[list[Job], dict]:
    """The workload's jobs and a record of the inputs the seed chose."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, work)
