"""The benchmark's workloads: how their inputs are made, and one timed pass.

Inputs are written as `.ir` files; the program under test only ever sees
that text. A pass calls the documented CLI in-process (`nullgvn.cli.main`)
and, for `oracle`, the oracle's public functions.

- large:  one 6k-8k statement program, analysed with
          `nullgvn analyze FILE --format json`.
- report: small generated programs, about 20k statements in total, half of
          them defensive and half check-free, through
          `nullgvn report DIR --format json`.
- oracle: every bundled program through `nullgvn check-semantics` at both
          levels, plus the soundness and term replays.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("large", "report", "oracle")
LEVELS = ("ssa", "ssa+gvn")

# `large` is the top rung of the ROADMAP ladder (generator seed 1, 7,531
# statements) and does not vary with the workload seed: solve time varies
# 0.9-14 s between draws in the 6k-8k statement band, which would drown any
# change in the run-to-run spread.
LARGE_CONFIG = dict(seed=1, max_procs=100, max_blocks=50, max_stmts=20)
LARGE_BAND = (6000, 8000)

REPORT_SHAPE = dict(max_procs=8, max_blocks=8, max_stmts=6)
REPORT_STMTS = 20_000          # generate programs until the total reaches this
REPORT_DENSITIES = (0.85, 0.0)  # defensive and check-free, alternating

CHECK_DEPTH = 60   # check-semantics depth, also used by the benchmark's checks
REPLAY_DEPTH = 32  # soundness and term replays


def stmt_count(program) -> int:
    return sum(len(b.stmts) for p in program.procedures for b in p.blocks)


def make_inputs(workload: str, seed: int, dest: Path) -> list[Path]:
    """Write the workload's programs as `.ir` files under `dest`.

    The same workload and seed always give byte-identical files."""
    from nullgvn.corpus import GeneratorConfig, bundled_programs, generate
    from nullgvn.parse import print_program

    if workload == "large":
        program = generate(GeneratorConfig(**LARGE_CONFIG))
        n = stmt_count(program)
        if not LARGE_BAND[0] <= n <= LARGE_BAND[1]:
            raise RuntimeError(f"large input has {n} statements, outside {LARGE_BAND}")
        programs = {"large": program}
    elif workload == "report":
        rng = random.Random(seed)
        programs, total = {}, 0
        while total < REPORT_STMTS:
            density = REPORT_DENSITIES[len(programs) % len(REPORT_DENSITIES)]
            config = GeneratorConfig(
                seed=rng.randrange(2**31), null_check_density=density, **REPORT_SHAPE
            )
            program = generate(config)
            programs[f"p{len(programs):03d}"] = program
            total += stmt_count(program)
    elif workload == "oracle":
        programs = bundled_programs()
    else:
        raise ValueError(f"unknown workload {workload!r}")

    dest.mkdir(parents=True, exist_ok=True)
    for old in dest.glob("*.ir"):
        old.unlink()
    files = []
    for name, program in programs.items():
        path = dest / f"{name}.ir"
        path.write_text(print_program(program), encoding="utf-8")
        files.append(path)
    return sorted(files)


# -- one timed pass ------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run `nullgvn ARGV` in-process; returns (exit code, stdout).
    An exception escaping the CLI counts as an internal error."""
    from nullgvn import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - any escape is an operation failure
            code = cli.EXIT_INTERNAL
    return code, out.getvalue()


def verdict_rows(report) -> list[list]:
    """[proc, block, index, verdict] per assert, in report order."""
    return [[a.proc, a.block, a.index, a.verdict] for a in report.per_assert]


def _pass_large(files: list[Path]) -> tuple[dict, int, int]:
    code, out = _cli(["analyze", str(files[0]), "--format", "json"])
    if code != 0:
        return {"verdicts": None}, 1, 1
    data = json.loads(out)
    verdicts = [[a["proc"], a["block"], a["index"], a["verdict"]] for a in data["per_assert"]]
    return {"verdicts": verdicts}, 1, 0


REPORT_KEYS = ("bench", "procs", "asserts", "ssa_unproved", "gvn_unproved")


def _pass_report(files: list[Path]) -> tuple[dict, int, int]:
    code, out = _cli(["report", str(files[0].parent), "--format", "json"])
    if code != 0:
        return {"rows": None}, len(files), len(files)
    rows = [{k: row[k] for k in REPORT_KEYS} for row in json.loads(out)]
    return {"rows": rows}, len(files), len(files) - len(rows)


def _pass_oracle(files: list[Path], programs: dict) -> tuple[dict, int, int]:
    from nullgvn import (
        check_solution_soundness,
        classify_assertions,
        do_gvn,
        generate_constraints,
        lift_loops,
        solve_worklist,
        to_ssa,
    )
    from nullgvn.interp import check_term_consistency

    results, attempted, failed = {}, 0, 0
    for path in files:
        codes = [
            _cli(["check-semantics", str(path), "--level", level,
                  "--depth", str(CHECK_DEPTH)])[0]
            for level in LEVELS
        ]
        attempted += 4
        failed += sum(1 for c in codes if c != 0)
        try:
            program = programs[path.stem]
            transformed, recording = do_gvn(to_ssa(lift_loops(program)), instrument=True)
            solution = solve_worklist(generate_constraints(transformed))
            report = classify_assertions(transformed, solution)
            unsound = check_solution_soundness(transformed, solution, REPLAY_DEPTH)
            terms = check_term_consistency(transformed, recording, REPLAY_DEPTH)
        except Exception:  # noqa: BLE001 - both replays count as failed
            results[path.stem] = {"verdicts": None}
            failed += 2
            continue
        results[path.stem] = {"verdicts": verdict_rows(report)}
        failed += bool(unsound) + bool(terms)
    return {"programs": results}, attempted, failed


def run_pass(workload: str, files: list[Path], programs: dict | None) -> tuple[dict, int, int]:
    """One pass over the workload. Returns (outputs, attempted, failed):
    the outputs the correctness checks need, and operation counts."""
    if workload == "large":
        return _pass_large(files)
    if workload == "report":
        return _pass_report(files)
    return _pass_oracle(files, programs)
