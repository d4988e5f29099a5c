"""Static non-null checking for a small pointer IR.

Pipeline: parse -> loop lifting -> SSA -> null-check-driven value numbering
-> inclusion-based points-to analysis -> assertion verdicts, with a bounded
nondeterministic interpreter as the differential oracle for every
transformation step.
"""

from .ir import Program, Procedure, Block, Path, validate, cfg_is_acyclic
from .parse import parse_program, print_program
from .normalize import lift_loops, to_ssa, topo_sort, dominators
from .gvn import do_gvn, insert_tagged_assignments
from .solver import (
    generate_constraints,
    solve_naive,
    solve_worklist,
    classify_assertions,
)
from .corpus import bundled_programs, generate, GeneratorConfig

__version__ = "0.1.0"

# The oracle (the interpreter and its trace automata) loads on first use:
# analyze, transform and report never run it.
_ORACLE = ("enumerate_traces", "traces_equivalent", "check_solution_soundness")


def __getattr__(name: str):
    if name in _ORACLE:
        from . import interp

        return getattr(interp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
