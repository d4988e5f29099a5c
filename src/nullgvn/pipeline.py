"""Drives lift -> ssa -> gvn -> solve -> classify with timings."""

from __future__ import annotations

import time
from typing import NamedTuple

from . import gvn as gvn_mod
from . import normalize, solver
from .ir import Program

# The transform stages in order, and how many of them each level runs.
STAGES = (("lift", normalize.lift_loops), ("ssa", normalize.to_ssa), ("gvn", gvn_mod.do_gvn))
_LEVEL_STAGES = {"none": 0, "ssa": 2, "ssa+gvn": 3}
TRANSFORM_LEVELS = tuple(_LEVEL_STAGES)


class PipelineResult(NamedTuple):
    transformed: Program          # after the requested transform level
    report: solver.SafetyReport


def _ms(t0: float) -> float:
    return (time.monotonic() - t0) * 1000.0


def _stages(program: Program, stages, timings: dict[str, float]):
    """Run `stages` in order from `program`, recording each one's time in
    `timings`; yields (stage, program after it)."""
    for stage, run in stages:
        t0 = time.monotonic()
        program = run(program)
        timings[stage] = _ms(t0)
        yield stage, program


def transform_program(program: Program, level: str) -> tuple[Program, dict[str, float]]:
    """Apply the requested transform level; levels are cumulative, gvn
    implies ssa implies loop lifting."""
    if level not in TRANSFORM_LEVELS:
        raise ValueError(f"unknown transform level {level!r}")
    timings = {stage: 0.0 for stage, _ in STAGES}
    prog = program
    for _, prog in _stages(program, STAGES[: _LEVEL_STAGES[level]], timings):
        pass
    return prog, timings


def stage_witnesses(program: Program, depth: int) -> list[tuple[str, str | None]]:
    """`(stage, witness)` for the lift, ssa and gvn stages, in that order:
    the `traces_diff` witness of the stage's traces against the original's
    at `depth`, or None when they are equivalent. The original is
    enumerated once."""
    from . import interp

    reference = interp.enumerate_traces(program, depth)
    return [
        (stage, interp.traces_diff(reference, interp.enumerate_traces(prog, depth)))
        for stage, prog in _stages(program, STAGES, {})
    ]


def _solve(
    transformed: Program, parse_ms: float, timings: dict[str, float]
) -> solver.SafetyReport:
    """Verdicts from the Null reachability pass, which decides each one as
    the full points-to solution would; `solve_worklist` does not run."""
    t0 = time.monotonic()
    constraints = solver.generate_constraints(transformed)
    constraints_ms = _ms(t0)
    t0 = time.monotonic()
    solution = solver.solve_null(constraints)
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
    timings = {stage: 0.0 for stage, _ in STAGES}
    ssa, gvn = (
        _solve(prog, 0.0, timings)
        for stage, prog in _stages(program, STAGES, timings)
        if stage != "lift"
    )
    return ssa, gvn
