#!/usr/bin/env python3
"""Differential fuzzing loop: trace equivalence, solver agreement and
soundness, copy-only Null reachability against the full solver (the Null
bits and verdicts), the value numbering's term replay, and the printer and
parser round trip of the program and of its lift, ssa and ssa+gvn
listings, over a seed range. Every seed is drawn twice: at the default
shape and at one fixed wider, loopier shape (WIDE), for larger constraint
graphs with copy cycles through the calls of lifted loops. Exit status 1 if
any seed misbehaves."""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nullgvn.corpus import GeneratorConfig, generate
from nullgvn.gvn import check_tagged_dominance, do_gvn
from nullgvn.ir import Alloc
from nullgvn.interp import check_solution_soundness, check_term_consistency
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.parse import parse_program, print_program
from nullgvn.pipeline import stage_witnesses
from nullgvn.solver import (
    NULL_BIT,
    classify_assertions,
    generate_constraints,
    solve_naive,
    solve_null,
    solve_worklist,
)


WIDE = dict(max_procs=4, max_blocks=8, max_stmts=6, loop_prob=0.3)


def round_trips(program) -> bool:
    """The program's listing parses back to an equal program.

    Lifting a loop with several exits copies its continuation, allocation
    sites included (its traces name them), into the lifted procedure, so a
    transformed program may repeat a site, which validation rejects. Its
    listing must then fail with exactly those diagnostics."""
    parsed = parse_program(print_program(program))
    sites = [
        s.site for p in program.procedures for b in p.blocks for s in b.stmts
        if isinstance(s, Alloc)
    ]
    repeated = {site for site in sites if sites.count(site) > 1}
    if not repeated:
        return parsed == program
    if not isinstance(parsed, list):
        return False
    found = [re.fullmatch(r"allocation site (\d+) already used in .+", d.message) for d in parsed]
    return all(found) and {int(m[1]) for m in found} == repeated


def check(program, depth: int, where: str) -> int:
    """Run every check on one program, print each failure; returns their number."""
    failures = 0
    for stage, witness in stage_witnesses(program, depth):
        if witness is not None:
            print(f"{where}: {stage} changed the trace set")
            print(witness)
            failures += 1
    lifted = lift_loops(program)
    ssa = to_ssa(lifted)
    transformed, recording = do_gvn(ssa, instrument=True)
    for level, prog in (("source", program), ("lift", lifted), ("ssa", ssa), ("ssa+gvn", transformed)):
        if not round_trips(prog):
            print(f"{where}: the {level} listing does not parse back to the same program")
            failures += 1
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
            print(f"{where}: copy-only Null reachability disagrees with the full solver at {level}")
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
