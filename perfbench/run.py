#!/usr/bin/env python3
"""nullgvn benchmark: end-to-end metrics, or per-layer metrics from a trace.

    python3 perfbench/run.py --workload {large,report,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One invocation:

1. writes the workload's inputs from the seed (untimed);
2. times set-up in fresh interpreters;
3. runs the workload in one more fresh interpreter for S seconds, tracing
   off, and records its set-up time, each pass's wall time and the
   process's peak RSS;
4. replays the workload through the layer functions with spans on,
   computes reference verdicts with `solve_naive` and runs the interpreter
   checks (untimed);
5. times set-up in fresh interpreters again; `setup_s` is the median of
   all set-up samples;
6. checks the CLI's outputs against the reference and the interpreter;
7. prints every metric with its unit, then one JSON line: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1.

Spans go to .perfbench-out/<workload>/spans-seed<N>.jsonl. Exits 1 if a
check fails, 2 if the nullgvn sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Fresh interpreters that only set up, timed before the timed run and again
# after the replay, so that a run's set-up samples span the whole run.
SETUP_SAMPLES = 8
WORKER_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "unproved_frac": "frac",
}
# Printed with the end-to-end metrics but carried in the result line as
# `correct` and `failed`/`attempted`: both are 0 on a healthy program.
CHECKS = {"verdict_mismatch": "count", "error_frac": "frac"}

LAYER_TIMES = {
    "parse.s": "parse",
    "normalize.lift.s": "normalize.lift",
    "normalize.ssa.s": "normalize.ssa",
    "gvn.s": "gvn",
    "solver.constraints.s": "solver.constraints",
    "solver.solve.s": "solver.solve",
    "solver.classify.s": "solver.classify",
    "interp.enumerate.s": "interp.enumerate",
    "interp.equiv.s": "interp.equiv",
    "interp.soundness.s": "interp.soundness",
    "interp.terms.s": "interp.terms",
    "corpus.load.s": "corpus.load",
}
LAYER_COUNTS = (
    "parse.stmts",
    "normalize.lift.procs_out",
    "normalize.ssa.stmts_out",
    "gvn.stmts_out",
    "gvn.tagged",
    "solver.constraints.n",
    "solver.nodes",
    "solver.pts_sum",
    "interp.traces",
    "interp.equiv.inexact",
    "interp.equiv.failed",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "gvn.tagged_used_frac": "frac",
    "interp.truncated_frac": "frac",
    "cli.self_s": "s",
    "trace.workload_s": "s",
    "trace.coverage": "frac",
}


def _start_worker(workload: str, inputs: Path, seed: int, *rest: str):
    """Start a fresh interpreter and wait for it to finish set-up.
    Returns (set-up seconds, process)."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(inputs), *rest],
        stdout=subprocess.PIPE, cwd=ROOT, env=env,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker for {workload} failed during set-up")
    return elapsed, proc


def _finish(proc) -> None:
    try:
        proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def sample_setup(workload: str, inputs: Path, seed: int, n: int) -> list[float]:
    """Set-up times of n fresh interpreters that stop after set-up."""
    setups = []
    for _ in range(n):
        elapsed, proc = _start_worker(workload, inputs, seed, "--setup-only")
        _finish(proc)
        setups.append(elapsed)
    return setups


def measure(workload: str, inputs: Path, seed: int, seconds: int, result_path: Path):
    """Run the timed passes in a fresh interpreter. Returns (its set-up
    time, the worker's result)."""
    elapsed, proc = _start_worker(workload, inputs, seed, str(seconds), str(result_path))
    _finish(proc)
    return elapsed, json.loads(result_path.read_text(encoding="utf-8"))


# -- correctness ---------------------------------------------------------------


def _diff_verdicts(got, want) -> int:
    if got is None:
        return len(want)
    return sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))


def count_mismatches(workload: str, got: dict, want: dict) -> int:
    """Per-assert verdicts (per-program counts for `report`, which prints
    no per-assert verdicts) that differ from the reference."""
    if workload == "large":
        return _diff_verdicts(got["verdicts"], want["verdicts"])
    if workload == "report":
        rows = {row["bench"]: row for row in got["rows"] or ()}
        n = 0
        for w in want["rows"]:
            g = rows.get(w["bench"])
            if g is None:
                n += w["asserts"]
                continue
            n += sum(abs(g[k] - w[k]) for k in ("asserts", "ssa_unproved", "gvn_unproved"))
        return n
    return sum(
        _diff_verdicts(got["programs"].get(name, {}).get("verdicts"), w["verdicts"])
        for name, w in want["programs"].items()
    )


def unproved_frac(workload: str, outputs: dict) -> float:
    """Asserts not proved SAFE at ssa+gvn, over all asserts."""
    if workload == "report":
        rows = outputs["rows"]
        return sum(r["gvn_unproved"] for r in rows) / sum(r["asserts"] for r in rows)
    if workload == "large":
        verdicts = outputs["verdicts"]
    else:
        verdicts = [v for p in outputs["programs"].values() for v in p["verdicts"]]
    return sum(1 for v in verdicts if v[3] != "SAFE") / len(verdicts)


# -- per-layer -----------------------------------------------------------------


def per_layer(tracer, wall_s: float) -> dict[str, float]:
    from spans import duration

    roots = tracer.roots("workload")
    traced = sum(duration(r) for r in roots)
    covered = sum(duration(s) for root in roots for s in tracer.children(root["id"]))
    counts = tracer.counts
    metrics = {name: tracer.total(span) for name, span in LAYER_TIMES.items()}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    metrics["gvn.tagged_used_frac"] = counts.get("gvn.tagged_used", 0) / max(1, counts.get("gvn.tagged", 0))
    metrics["interp.truncated_frac"] = counts.get("interp.truncated", 0) / max(1, counts.get("interp.traces", 0))
    metrics["cli.self_s"] = wall_s - covered
    metrics["trace.workload_s"] = traced
    metrics["trace.coverage"] = covered / traced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nullgvn" / "__init__.py").is_file():
        print(f"error: no nullgvn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from replay import replay
    from spans import Tracer
    from workloads import make_inputs

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    files = make_inputs(args.workload, args.seed, work / "inputs")

    setups = sample_setup(args.workload, work / "inputs", args.seed, SETUP_SAMPLES)
    elapsed, result = measure(
        args.workload, work / "inputs", args.seed, args.seconds, work / "worker.json"
    )
    setups.append(elapsed)
    tracer = Tracer()
    reference, checks = replay(args.workload, files, tracer)
    tracer.write_jsonl(work / f"spans-seed{args.seed}.jsonl")
    setups += sample_setup(args.workload, work / "inputs", args.seed, SETUP_SAMPLES)

    outputs = result["outputs"]
    mismatch = count_mismatches(args.workload, outputs, reference) + checks.unsafe_failures
    attempted, failed = result["attempted"], result["failed"]
    correct = (
        mismatch == 0
        and failed == 0
        and result["outputs_stable"]
        and checks.oracle_violations == 0
    )
    wall_s = statistics.median(result["walls"])
    shown = reference if mismatch or failed else outputs
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "unproved_frac": unproved_frac(args.workload, shown),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(files)} programs, "
          f"{len(result['walls'])} timed passes, {len(setups)} set-up samples")
    for name, value in end_to_end.items():
        print(f"  {name:24s} {value:14.6f} {END_TO_END[name]}")
    print(f"  {'verdict_mismatch':24s} {mismatch:14d} {CHECKS['verdict_mismatch']}")
    print(f"  {'error_frac':24s} {failed / attempted:14.6f} {CHECKS['error_frac']}")
    print(f"  oracle violations {checks.oracle_violations}, unsafe SAFE verdicts "
          f"{checks.unsafe_failures}, outputs stable across passes: {result['outputs_stable']}")
    failed_equiv = tracer.counts.get("interp.equiv.failed", 0)
    if failed_equiv:
        print(f"  note: {failed_equiv} generated programs are not trace-equivalent to their "
              "transformed versions (reported, not gated; see perfbench/README.md)")
    if args.trace:
        layers = per_layer(tracer, wall_s)
        print("per layer (traced replay):")
        for name, value in layers.items():
            print(f"  {name:24s} {value:14.6f} {PER_LAYER_UNITS[name]}")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
