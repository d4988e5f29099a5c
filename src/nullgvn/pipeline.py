"""Drives lift -> ssa -> gvn -> solve -> classify with timings."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import gvn as gvn_mod
from . import interp, normalize, solver
from .ir import Program

TRANSFORM_LEVELS = ("none", "ssa", "ssa+gvn")


@dataclass
class PipelineResult:
    transformed: Program          # after the requested transform level
    report: solver.SafetyReport


def _ms(t0: float) -> float:
    return (time.monotonic() - t0) * 1000.0


def transform_program(program: Program, level: str) -> tuple[Program, dict[str, float]]:
    """Apply the requested transform level; levels are cumulative, gvn
    implies ssa implies loop lifting."""
    if level not in TRANSFORM_LEVELS:
        raise ValueError(f"unknown transform level {level!r}")
    timings = {"lift": 0.0, "ssa": 0.0, "gvn": 0.0}
    prog = program
    if level != "none":
        t0 = time.monotonic()
        prog = normalize.lift_loops(prog)
        timings["lift"] = _ms(t0)
        t0 = time.monotonic()
        prog = normalize.to_ssa(prog)
        timings["ssa"] = _ms(t0)
    if level == "ssa+gvn":
        t0 = time.monotonic()
        prog = gvn_mod.do_gvn(prog)
        timings["gvn"] = _ms(t0)
    return prog, timings


def stage_witnesses(program: Program, depth: int) -> list[tuple[str, str | None]]:
    """`(stage, witness)` for the lift, ssa and gvn stages, in that order:
    the `traces_diff` witness of the stage's traces against the original's
    at `depth`, or None when they are equivalent. The original is
    enumerated once."""
    reference = interp.enumerate_traces(program, depth)
    lifted = normalize.lift_loops(program)
    ssa = normalize.to_ssa(lifted)
    return [
        (stage, interp.traces_diff(reference, interp.enumerate_traces(prog, depth)))
        for stage, prog in (("lift", lifted), ("ssa", ssa), ("gvn", gvn_mod.do_gvn(ssa)))
    ]


def _solve(
    transformed: Program, parse_ms: float, timings: dict[str, float]
) -> solver.SafetyReport:
    t0 = time.monotonic()
    constraints = solver.generate_constraints(transformed)
    constraints_ms = _ms(t0)
    t0 = time.monotonic()
    solution = solver.solve_worklist(constraints)
    solve_ms = _ms(t0)
    t0 = time.monotonic()
    report = solver.classify_assertions(transformed, solution)
    report.timings_ms = {
        "parse": parse_ms, **timings,
        "constraints": constraints_ms, "solve": solve_ms, "classify": _ms(t0),
    }
    return report


def analyze_program(
    program: Program, transform: str = "ssa+gvn", parse_ms: float = 0.0
) -> PipelineResult:
    transformed, timings = transform_program(program, transform)
    return PipelineResult(transformed, _solve(transformed, parse_ms, timings))


def analyze_levels(program: Program) -> tuple[solver.SafetyReport, solver.SafetyReport]:
    """The `ssa` and `ssa+gvn` reports of one program, the paper's two
    levels. Lifting and renaming run once: do_gvn copies its input, so both
    levels start from the same SSA program, and both reports' timings
    include that shared lift and ssa time."""
    ssa, timings = transform_program(program, "ssa")
    ssa_report = _solve(ssa, 0.0, timings)
    t0 = time.monotonic()
    transformed = gvn_mod.do_gvn(ssa)
    gvn_timings = {**timings, "gvn": _ms(t0)}
    return ssa_report, _solve(transformed, 0.0, gvn_timings)
