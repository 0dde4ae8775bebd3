"""Benchmark of the momentsheaf CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kl-battery --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each job is a fresh
``python -m momentsheaf.cli ...`` process with the default ``--threads 1``;
jobs run one at a time (a closed loop with one client).  Passes over the
workload's jobs repeat until about ``--seconds`` are spent, and the
end-to-end metrics are medians over passes.  Every time is normalised to a
reference host speed with ``calibrate.py``: a calibration window runs before
each job and after the last, and a job's wall time is divided by the chunk
time of the windows on either side of it.  The benchmark and its jobs are
pinned to one CPU, so each window measures the CPU its job runs on.  With
``--trace 1`` one more pass runs every job in-process under ``tracer.py``,
and the per-layer metrics come from its spans.

Outputs are checked after the timed passes (see ``checks.py``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give every metric by name and unit, the
chosen inputs, and the machine.  The full record, and with ``--trace 1`` the
spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REF_CHUNK_S, chunk_seconds
from layers import METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
# seconds of calibration around each job, and around each setup import
CAL_S = 0.5
SETUP_CAL_S = 0.25
COMMANDS = ("kl", "verify", "hilbert", "graph")
# the end-to-end metrics in the result line: the ones every workload has and
# that are never 0 (the per-command sums and fail_ratio are printed above it)
END_TO_END = ("norm_wall_s", "peak_rss_mb", "setup_s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, its peak RSS in MB).

    ``launch.py`` starts the process and reads its own rusage with
    ``os.wait4``, not RUSAGE_CHILDREN, which keeps the maximum over every
    child so far.
    """
    report = stdout.with_name(stdout.name + ".rusage")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), str(report), str(stdout), str(stderr),
         "--", *cmd],
        env=child_env(), cwd=ROOT,
    )
    try:
        rc = proc.wait()
    except BaseException:
        proc.terminate()
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"launcher failed with exit code {rc} on {cmd}")
    r = json.loads(report.read_text(encoding="utf-8"))
    return r["wall_s"], r["rc"], r["maxrss_kb"] / 1024


def normalise(wall: float, cal_before: float, cal_after: float) -> float:
    """``wall`` in seconds at the reference host speed."""
    return wall * REF_CHUNK_S / ((cal_before + cal_after) / 2)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import momentsheaf.cli and exit:
    (normalised, raw)."""
    cmd = [sys.executable, "-c", "import momentsheaf.cli"]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out, err = Path(tmp) / "setup.out", Path(tmp) / "setup.err"
        spawn(cmd, out, err)  # fills the bytecode cache; users never pay that twice
        cal = chunk_seconds(SETUP_CAL_S)
        norm, raw = [], []
        for _ in range(SETUP_REPEATS):
            wall, rc, _ = spawn(cmd, out, err)
            if rc != 0:
                raise SystemExit(f"importing momentsheaf.cli failed:\n{err.read_text()}")
            after = chunk_seconds(SETUP_CAL_S)
            norm.append(normalise(wall, cal, after))
            raw.append(wall)
            cal = after
    return statistics.median(norm), statistics.median(raw)


def digest(job, out_dir: Path) -> str:
    """Hash of the job's stdout and artifact bytes."""
    h = hashlib.sha256()
    for path in [out_dir / f"{job.id}.stdout", *(out_dir / name for _, name in job.outputs)]:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def run_pass(jobs, out_dir: Path, traced: bool) -> dict:
    """One pass over the jobs, each in a fresh process.  The pass's wall time
    is the sum of its jobs' wall times, so this process's own work between
    jobs is not counted; ``norm_s`` is the same sum normalised."""
    out_dir.mkdir(parents=True)
    runs = []
    cal = chunk_seconds(CAL_S)
    for job in jobs:
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(out_dir / f"{job.id}.spans"),
                   job.id, "--", *job.argv(out_dir)]
        else:
            cmd = [sys.executable, "-m", "momentsheaf.cli", *job.argv(out_dir)]
        wall, rc, rss = spawn(cmd, out_dir / f"{job.id}.stdout", out_dir / f"{job.id}.stderr")
        after = chunk_seconds(CAL_S)
        runs.append({"job": job.id, "command": job.command, "wall_s": wall,
                     "norm_s": normalise(wall, cal, after), "cal_s": [cal, after],
                     "rc": rc, "rss_mb": rss})
        cal = after
    for job, run in zip(jobs, runs):
        run["digest"] = digest(job, out_dir)
    return {"wall_s": sum(r["wall_s"] for r in runs),
            "norm_s": sum(r["norm_s"] for r in runs), "runs": runs}


def check_first_pass(jobs, out_dir: Path, first: dict) -> dict[str, str | None]:
    from checks import check_output

    verdicts = {}
    for job, run in zip(jobs, first["runs"]):
        try:
            stdout = (out_dir / f"{job.id}.stdout").read_text(encoding="utf-8")
            artifacts = {
                name: (out_dir / name).read_text(encoding="utf-8")
                for _, name in job.outputs if (out_dir / name).exists()
            }
            verdicts[job.id] = check_output(job.check, run["rc"], stdout, artifacts)
        except Exception as exc:  # a malformed output must count as a failure
            verdicts[job.id] = f"check raised {type(exc).__name__}: {exc}"
    return verdicts


def judge(passes: list[dict], reference: dict[str, str], verdicts: dict) -> list[str]:
    """Failure messages; a job fails on a bad exit, a failed check, or a digest
    that differs from the first pass."""
    failures = []
    for k, p in enumerate(passes):
        for run in p["runs"]:
            why = None
            if run["rc"] != 0:
                why = f"exit code {run['rc']}"
            elif verdicts[run["job"]]:
                why = verdicts[run["job"]]
            elif run["digest"] != reference[run["job"]]:
                why = "output bytes differ from the first pass"
            if why:
                failures.append(f"pass {k} {run['job']}: {why}")
    return failures


def traced_pass(jobs, work: Path) -> tuple[dict, list, dict, list]:
    """The traced pass: its runs, all spans, the per-layer metrics, and notes
    on names the tracer could not wrap or measure."""
    p = run_pass(jobs, work / "traced", traced=True)
    spans, counted, notes = [], {}, set()
    for job in jobs:
        path = work / "traced" / f"{job.id}.spans"
        if not path.exists():
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        notes.update(record["errors"])
        base = len(spans)
        for s in record["spans"]:
            if s[3] >= 0:
                s[3] += base
            spans.append(s)
        for name, (n, secs) in record["counted"].items():
            cell = counted.setdefault(name, [0, 0.0])
            cell[0] += n
            cell[1] += secs
    return p, spans, layer_metrics(spans, counted), sorted(notes)


def source_id() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "momentsheaf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}


def median_of(passes, key) -> float:
    return statistics.median(key(p) for p in passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("kl-battery", "check-battery", "graph-battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # one CPU for the benchmark and every job it starts (children inherit it)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # a terminated benchmark still kills and reaps the job it is running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "momentsheaf" / "cli.py").is_file():
        sys.stderr.write(f"error: no momentsheaf sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import build

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        jobs, inputs = build(args.workload, args.seed, work)
        setup_s, setup_raw_s = measure_setup()

        passes, spent = [], 0.0
        # Passes, calibration included, stop when one more would end further
        # past the budget than the passes so far fall short of it.
        while True:
            out_dir = work / f"pass-{len(passes)}"
            start = time.perf_counter()
            passes.append(run_pass(jobs, out_dir, traced=False))
            spent += time.perf_counter() - start
            if len(passes) == 1:
                verdicts = check_first_pass(jobs, out_dir, passes[0])
            else:
                shutil.rmtree(out_dir)
            if spent + spent / len(passes) / 2 >= args.seconds:
                break
        reference = {r["job"]: r["digest"] for r in passes[0]["runs"]}

        traced = None
        if args.trace:
            traced, spans, layer, notes = traced_pass(jobs, work)
            untraced = median_of(passes, lambda p: p["norm_s"])
            layer["trace.overhead_ratio"] = (traced["norm_s"] - untraced) / untraced
        failures = judge(passes + ([traced] if traced else []), reference, verdicts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(jobs) * (len(passes) + (1 if traced else 0))
    by_command = {
        f"{c}_s": median_of(passes, lambda p, c=c: sum(
            r["norm_s"] for r in p["runs"] if r["command"] == c))
        for c in COMMANDS if any(j.command == c for j in jobs)
    }
    end_to_end = {
        "norm_wall_s": (median_of(passes, lambda p: p["norm_s"]), "s"),
        **{k: (v, "s") for k, v in by_command.items()},
        "peak_rss_mb": (median_of(passes, lambda p: max(r["rss_mb"] for r in p["runs"])), "MB"),
        "setup_s": (setup_s, "s"),
        "fail_ratio": (len(failures) / attempted, "ratio"),
        "wall_s": (median_of(passes, lambda p: p["wall_s"]), "s"),
        "setup_raw_s": (setup_raw_s, "s"),
        "cal_chunk_s": (statistics.median(
            c for p in passes for r in p["runs"] for c in r["cal_s"]), "s"),
    }
    machine = {"python": platform.python_version(), "nproc": os.cpu_count(), **source_id()}

    lines = [
        f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs x {len(passes)} "
        f"untraced passes (medians over {len(passes)} samples)"
        + (", plus 1 traced pass" if traced else ""),
        "inputs " + json.dumps(inputs, sort_keys=True),
        "machine " + json.dumps(machine, sort_keys=True),
    ]
    lines += [f"  {name} = {value:.6g} {unit}" for name, (value, unit) in end_to_end.items()]
    if traced:
        lines += [f"  {name} = {layer[name]:.6g} {unit}" for name, unit in METRICS]
        lines += [f"trace note: {n}" for n in notes]
    lines += [f"FAIL {f}" for f in failures]

    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in METRICS}
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]}
                   for name in END_TO_END}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "inputs": inputs, "machine": machine, "passes": passes,
              "end_to_end": {k: v[0] for k, v in end_to_end.items()},
              "failures": failures, "result": result}
    if traced:
        record["traced_pass"] = traced
        record["per_layer"] = layer
        with open(OUT / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job", "tail",
                                  "leaf", "stats"], "spans": spans}, fh)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                            encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
