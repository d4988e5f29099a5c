#!/usr/bin/env python3
"""Measure the precision effect of the transformation on generated corpora.

Runs the analysis twice per program (SSA only, SSA plus the value-numbering
transformation) over two generator profiles: a defensive one where most
dereferences sit behind a null check, and a check-free baseline. Prints
per-profile aggregates in the shape of the corpus report table, including
the `ssa+gvn` pipeline's summed time over the `ssa` pipeline's (the paper's
overhead claim).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nullgvn.corpus import GeneratorConfig, generate
from nullgvn.pipeline import analyze_levels


def run_profile(name: str, density: float, count: int) -> None:
    ssa_unproved = gvn_unproved = asserts = 0
    ssa_ms = gvn_ms = gvn_phase_ms = 0.0
    regressions = 0
    for seed in range(count):
        program = generate(GeneratorConfig(seed=seed, null_check_density=density))
        ssa, gvn = analyze_levels(program)
        asserts += ssa.total
        ssa_unproved += ssa.unproved
        gvn_unproved += gvn.unproved
        ssa_ms += sum(ssa.timings_ms.values())
        gvn_ms += sum(gvn.timings_ms.values())
        gvn_phase_ms += gvn.timings_ms["gvn"]
        if gvn.unproved > ssa.unproved:
            regressions += 1
    reduction = ssa_unproved / gvn_unproved if gvn_unproved else float("inf")
    overhead = gvn_ms / ssa_ms if ssa_ms else float("nan")
    print(f"profile {name} (density={density}, n={count}):")
    print(f"  asserts                 : {asserts}")
    print(f"  unproved, SSA only      : {ssa_unproved}")
    print(f"  unproved, SSA+transform : {gvn_unproved}  ({reduction:.1f}x reduction)")
    print(f"  per-program regressions : {regressions}")
    print(f"  SSA pipeline time       : {ssa_ms:.0f} ms")
    print(f"  transformation phase    : {gvn_phase_ms:.0f} ms")
    print(f"  SSA+transform / SSA time: {overhead:.2f}x  ({gvn_ms:.0f} ms)")
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args()
    run_profile("defensive", 0.85, args.count)
    run_profile("no-checks", 0.0, args.count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
