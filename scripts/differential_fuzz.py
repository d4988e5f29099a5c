#!/usr/bin/env python3
"""Differential fuzzing loop: trace equivalence, solver agreement and
soundness, copy-only Null reachability against the wave solver (the Null
bits and verdicts), and the value numbering's term replay over a seed
range. Every seed is drawn twice: at the default shape and at one fixed
wider, loopier shape (WIDE), whose larger constraint graphs exercise the
wave solver's reordering. Exit status 1 if any seed misbehaves."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nullgvn.corpus import GeneratorConfig, generate
from nullgvn.gvn import check_tagged_dominance, do_gvn
from nullgvn.interp import check_solution_soundness, check_term_consistency
from nullgvn.pipeline import stage_witnesses, transform_program
from nullgvn.solver import (
    NULL_BIT,
    classify_assertions,
    generate_constraints,
    solve_naive,
    solve_null,
    solve_worklist,
)


WIDE = dict(max_procs=4, max_blocks=8, max_stmts=6, loop_prob=0.3)


def check(program, depth: int, where: str) -> int:
    """Run every check on one program, print each failure; returns their number."""
    failures = 0
    for stage, witness in stage_witnesses(program, depth):
        if witness is not None:
            print(f"{where}: {stage} changed the trace set")
            print(witness)
            failures += 1
    ssa, _ = transform_program(program, "ssa")
    transformed, recording = do_gvn(ssa, instrument=True)
    for level, prog in (("ssa", ssa), ("ssa+gvn", transformed)):
        cons = generate_constraints(prog)
        solution = solve_worklist(cons)
        if solve_naive(cons) != solution:
            print(f"{where}: solvers disagree at {level}")
            failures += 1
        null = solve_null(cons)
        if null.pts != [solution.pts[n] & NULL_BIT for n in range(len(cons.ids))] or (
            classify_assertions(prog, null) != classify_assertions(prog, solution)
        ):
            print(f"{where}: copy-only Null reachability disagrees with the wave solver at {level}")
            failures += 1
        if check_solution_soundness(prog, solution, depth // 2):
            print(f"{where}: points-to solution is not an over-approximation at {level}")
            failures += 1
    if check_term_consistency(transformed, recording, depth // 2):
        print(f"{where}: two occurrences of one term held different values")
        failures += 1
    if check_tagged_dominance(transformed):
        print(f"{where}: tagged assignment does not dominate a use")
        failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=500)
    parser.add_argument("--depth", type=int, default=64)
    args = parser.parse_args()

    failures = 0
    for seed in range(args.seeds):
        for shape, config in (
            ("default", GeneratorConfig(seed=seed)),
            ("wide", GeneratorConfig(seed=seed, **WIDE)),
        ):
            failures += check(generate(config), args.depth, f"seed {seed} ({shape})")
    print(f"{args.seeds} seeds checked, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
