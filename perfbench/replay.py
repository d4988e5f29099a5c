"""Replay of a workload through the layer functions, and the benchmark's
correctness checks.

The replay makes the layer calls the CLI makes for the workload, in the
same order, each inside a span named after its layer, under a `workload`
root span per program. The checks for that program follow under a `check`
root: reference verdicts from `solve_naive`, the interpreter's
`assert_fail` events against SAFE verdicts, and on the generated workloads
(whose CLI runs no oracle) trace equivalence plus the soundness and term
replays. Layer spans under `check` count toward the per-layer totals; only
the `workload` roots are compared with the untraced wall time. The
benchmark's own counting (statements, points-to facts, traces) runs after
each root span has closed, so it is never inside the traced time.

On `oracle` a failed equivalence, soundness or term replay fails the run,
as the workload's own `check-semantics` would. On the generated workloads a
trace-equivalence failure is counted in `interp.equiv.failed` and reported,
not gated: the seed commit already has generated programs that
`nullgvn check-semantics` rejects.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from nullgvn import (
    bundled_programs,
    check_solution_soundness,
    classify_assertions,
    do_gvn,
    enumerate_traces,
    generate_constraints,
    lift_loops,
    parse_program,
    solve_naive,
    solve_worklist,
    to_ssa,
    traces_equivalent,
)
from nullgvn.interp import check_term_consistency, project_trace
from nullgvn.ir import is_tagged, stmt_reads, stmt_writes
from nullgvn.solver import SAFE

from spans import Tracer
from workloads import CHECK_DEPTH, LEVELS, REPLAY_DEPTH, stmt_count, verdict_rows


def _tagged_stats(program) -> tuple[int, int]:
    """Tagged temporaries written, and how many of them are read at least once."""
    written, read = set(), set()
    for proc in program.procedures:
        for block in proc.blocks:
            for stmt in block.stmts:
                written.update((proc.name, v) for v in stmt_writes(stmt) if is_tagged(v))
                read.update((proc.name, v) for v in stmt_reads(stmt) if is_tagged(v))
    return len(written), len(written & read)


class Replay:
    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.oracle_violations = 0
        self.unsafe_failures = 0
        self._results: list[tuple] = []  # (layer, result) to count after the root

    @contextmanager
    def root(self, name: str):
        """A root span; what its layer calls produced is counted after it closes."""
        with self.tr.span(name):
            yield
        self._count()

    # -- layer calls, one span each ---------------------------------------------

    def parse(self, path: Path):
        text = path.read_text(encoding="utf-8")
        program = self.tr.call("parse", parse_program, text, str(path))
        if isinstance(program, list):
            raise RuntimeError(f"{path}: {program[0]}")
        self._results.append(("parse", program))
        return program

    def transform(self, program, level: str, instrument: bool = False):
        """Returns (ssa program, transformed program, gvn recording or None)."""
        tr = self.tr
        lifted = tr.call("normalize.lift", lift_loops, program)
        ssa = tr.call("normalize.ssa", to_ssa, lifted)
        self._results += [("normalize.lift", lifted), ("normalize.ssa", ssa)]
        if level == "ssa":
            return ssa, ssa, None
        if instrument:
            out, recording = tr.call("gvn", do_gvn, ssa, instrument=True)
        else:
            out, recording = tr.call("gvn", do_gvn, ssa), None
        self._results.append(("gvn", out))
        return ssa, out, recording

    def solve(self, program):
        """Constraint generation, the worklist solver and classification.
        Returns (constraints, solution)."""
        tr = self.tr
        cons = tr.call("solver.constraints", generate_constraints, program)
        solution = tr.call("solver.solve", solve_worklist, cons)
        tr.call("solver.classify", classify_assertions, program, solution)
        self._results.append(("solver", (cons, solution)))
        return cons, solution

    def traces(self, program):
        traces = self.tr.call("interp.enumerate", enumerate_traces, program, CHECK_DEPTH)
        self._results.append(("interp.enumerate", traces))
        return traces

    def equivalent(self, a, b) -> bool:
        ok = self.tr.call("interp.equiv", traces_equivalent, a, b)
        self._results.append(("interp.equiv", (a, b)))
        return ok

    def soundness(self, program, solution) -> None:
        found = self.tr.call(
            "interp.soundness", check_solution_soundness, program, solution, REPLAY_DEPTH
        )
        self.oracle_violations += len(found)

    def terms(self, program, recording) -> None:
        found = self.tr.call(
            "interp.terms", check_term_consistency, program, recording, REPLAY_DEPTH
        )
        self.oracle_violations += len(found)

    def _count(self) -> None:
        count = self.tr.count
        for layer, result in self._results:
            if layer == "parse":
                count("parse.stmts", stmt_count(result))
            elif layer == "normalize.lift":
                count("normalize.lift.procs_out", len(result.procedures))
            elif layer == "normalize.ssa":
                count("normalize.ssa.stmts_out", stmt_count(result))
            elif layer == "gvn":
                count("gvn.stmts_out", stmt_count(result))
                tagged, used = _tagged_stats(result)
                count("gvn.tagged", tagged)
                count("gvn.tagged_used", used)
            elif layer == "solver":
                cons, solution = result
                count("solver.constraints.n",
                      len(cons.base) + len(cons.copies) + len(cons.loads) + len(cons.stores))
                cells = [*solution.var_pt.values(), *solution.field_pt.values()]
                count("solver.nodes", sum(1 for s in cells if s))
                count("solver.pts_sum", sum(len(s) for s in cells))
            elif layer == "interp.enumerate":
                count("interp.traces", len(result))
                count("interp.truncated", sum(1 for t in result if t and t[-1] == ("truncated",)))
            else:
                pa, pb = ({project_trace(t) for t in side} for side in result)
                count("interp.equiv.inexact", len(pa ^ pb))
        self._results.clear()

    # -- checks ------------------------------------------------------------------

    def reference(self, program, cons):
        """Reference solution and per-assert verdicts from `solve_naive`."""
        solution = self.tr.call("check.solve_naive", solve_naive, cons)
        return solution, verdict_rows(classify_assertions(program, solution))

    def count_unsafe(self, traces, verdicts: list[list]) -> None:
        """Asserts the interpreter saw fail but the verdicts call SAFE."""
        safe = {(p, b, i) for p, b, i, v in verdicts if v == SAFE}
        failing = {ev[1] for t in traces for ev in t if ev[0] == "assert_fail"}
        self.unsafe_failures += len(safe & failing)

    def check_generated(self, program, ssa, transformed, cons) -> list[list]:
        """Checks for a program the workload only analyses: reference
        verdicts, assert failures against SAFE verdicts, trace equivalence,
        and (for ssa+gvn) the soundness and term replays."""
        solution, verdicts = self.reference(transformed, cons)
        after = self.traces(transformed)
        self.count_unsafe(after, verdicts)
        if not self.equivalent(self.traces(program), after):
            self.tr.count("interp.equiv.failed", 1)
        if transformed is not ssa:
            _, recording = self.tr.call("check.gvn_instrument", do_gvn, ssa, instrument=True)
            self.soundness(transformed, solution)
            self.terms(transformed, recording)
        return verdicts


def replay(workload: str, files: list[Path], tracer: Tracer) -> tuple[dict, Replay]:
    """Replay the workload and run the checks, one program at a time, so the
    replay never holds more than one program's results. Returns the
    reference outputs, shaped like a timed pass's outputs, and the replay
    with its failure counts."""
    r = Replay(tracer)
    with tracer.span("setup"):
        programs = tracer.call("corpus.load", bundled_programs)

    if workload == "large":
        with r.root("workload"):
            program = r.parse(files[0])
            ssa, transformed, _ = r.transform(program, "ssa+gvn")
            cons, _ = r.solve(transformed)
        with r.root("check"):
            verdicts = r.check_generated(program, ssa, transformed, cons)
        return {"verdicts": verdicts}, r

    if workload == "report":
        rows = []
        for path in files:
            with r.root("workload"):
                program = r.parse(path)
                analysed = []
                for level in LEVELS:
                    ssa, transformed, _ = r.transform(program, level)
                    analysed.append((ssa, transformed, r.solve(transformed)[0]))
            row = {"bench": path.stem, "procs": len(program.procedures)}
            with r.root("check"):
                for key, (ssa, transformed, cons) in zip(("ssa_unproved", "gvn_unproved"), analysed):
                    verdicts = r.check_generated(program, ssa, transformed, cons)
                    row["asserts"] = len(verdicts)
                    row[key] = sum(1 for v in verdicts if v[3] != SAFE)
            rows.append(row)
        return {"rows": rows}, r

    # oracle: check-semantics at both levels, then the soundness and term
    # replays on the bundled program, as a timed pass does.
    results = {}
    for path in files:
        with r.root("workload"):
            for level in LEVELS:
                program = r.parse(path)
                _, transformed, _ = r.transform(program, level)
                before, after = r.traces(program), r.traces(transformed)
                if not r.equivalent(before, after):
                    r.oracle_violations += 1
            _, transformed, recording = r.transform(programs[path.stem], "ssa+gvn", instrument=True)
            cons, solution = r.solve(transformed)
            r.soundness(transformed, solution)
            r.terms(transformed, recording)
        with r.root("check"):
            _, verdicts = r.reference(transformed, cons)
            r.count_unsafe(after, verdicts)
        results[path.stem] = {"verdicts": verdicts}
    return {"programs": results}, r
