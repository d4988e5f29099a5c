"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import time

import pytest

from nullgvn.corpus import GeneratorConfig, bundled_programs, generate
from nullgvn.gvn import check_tagged_dominance, do_gvn
from nullgvn.interp import check_solution_soundness, check_term_consistency
from nullgvn.ir import Assert, Assign, NullCheck, Path, Store, is_tagged
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.pipeline import analyze_program, stage_witnesses
from nullgvn.solver import generate_constraints, solve_naive, solve_worklist

N_GENERATED = 1000
DEPTH_SEMANTICS = 64
DEPTH_SOUNDNESS = 32


def criterion(number: int, ok: bool, summary: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {summary}")
    assert ok, f"criterion {number}: {summary}"


@pytest.fixture(scope="module")
def corpus_all():
    return bundled_programs()


@pytest.fixture(scope="module")
def generated():
    """seed -> (original, lifted, ssa, gvn) for the acceptance seeds."""
    out = {}
    for seed in range(N_GENERATED):
        program = generate(GeneratorConfig(seed=seed))
        lifted = lift_loops(program)
        ssa = to_ssa(lifted)
        out[seed] = (program, lifted, ssa, do_gvn(ssa))
    return out


def test_criterion_1_golden_listings(corpus_all):
    t0 = time.monotonic()
    out = do_gvn(corpus_all["chained_field_equiv"])
    tail = out.procedures[0].blocks[0].stmts[-9:]
    from nullgvn.ir import Assume

    expected = [
        Assign("y", Path("x", ("f", "g"))),
        Assign("z", Path("y", ("h",))),
        Assume(NullCheck(Path("z"), True)),
        Assign("gvnTmp__gvn1", Path("z")),
        Assign("a", Path("x", ("f",))),
        Assign("b", Path("gvnTmp__gvn1")),
        Assert(NullCheck(Path("gvnTmp__gvn1"), True)),
        Assign("gvnTmp__gvn2", Path("gvnTmp__gvn1")),
        Store("c", "g", "d"),
    ]
    chained_ok = tail == expected

    merged = do_gvn(corpus_all["branch_merge_check"])
    check = merged.proc_map()["check"]
    l3 = check.block_map()["L3"].stmts
    arm_tags = {
        s.lhs
        for label in ("L1", "L2")
        for s in check.block_map()[label].stmts
        if isinstance(s, Assign) and is_tagged(s.lhs)
    }
    merge_ok = (
        isinstance(l3[0], Assign)
        and is_tagged(l3[0].lhs)
        and l3[0].rhs == Path("x")
        and l3[0].lhs not in arm_tags
        and l3[1] == Assert(NullCheck(Path(l3[0].lhs), True))
    )
    elapsed = time.monotonic() - t0
    criterion(
        1,
        chained_ok and merge_ok and elapsed < 1.0,
        f"transformed listings match structurally ({elapsed:.2f}s)",
    )


def _unproved(program, level):
    return analyze_program(program, level).report.unproved


def test_criterion_2_precision_flips(corpus_all):
    t0 = time.monotonic()
    ssa_proves_reassign = _unproved(corpus_all["reassign_null_after_check"], "ssa") == 0
    cse_flip = (
        _unproved(corpus_all["guarded_copy"], "ssa") == 1
        and _unproved(corpus_all["guarded_copy"], "ssa+gvn") == 0
    )
    chain_flip = (
        _unproved(corpus_all["chained_field_equiv"], "ssa") == 1
        and _unproved(corpus_all["chained_field_equiv"], "ssa+gvn") == 0
    )
    kill = do_gvn(corpus_all["store_invalidates_check"])
    final = kill.procedures[0].blocks[0].stmts[-1]
    no_substitution = isinstance(final, Assign) and final.rhs == Path("x", ("f",))
    elapsed = time.monotonic() - t0
    criterion(
        2,
        ssa_proves_reassign and cse_flip and chain_flip and no_substitution and elapsed < 1.0,
        f"verdict flips and the field-kill stays conservative ({elapsed:.2f}s)",
    )


def test_criterion_3_semantics_preserved(corpus_all, generated):
    t0 = time.monotonic()
    programs = [*corpus_all.items(), *((seed, versions[0]) for seed, versions in generated.items())]
    mismatches = [
        (name, stage)
        for name, program in programs
        for stage, witness in stage_witnesses(program, DEPTH_SEMANTICS)
        if witness is not None
    ]
    elapsed = time.monotonic() - t0
    criterion(
        3,
        not mismatches and elapsed < 600,
        f"trace equivalence on {len(corpus_all)} bundled + {N_GENERATED} generated "
        f"programs at depth {DEPTH_SEMANTICS}, {len(mismatches)} mismatches "
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_solver_soundness(corpus_all, generated):
    t0 = time.monotonic()
    violations = 0
    for seed, (_, _, _, gvn_out) in generated.items():
        solution = solve_worklist(generate_constraints(gvn_out))
        if check_solution_soundness(gvn_out, solution, DEPTH_SOUNDNESS):
            violations += 1
    for name, program in corpus_all.items():
        out = do_gvn(to_ssa(lift_loops(program)))
        solution = solve_worklist(generate_constraints(out))
        if check_solution_soundness(out, solution, DEPTH_SOUNDNESS):
            violations += 1

    mutation_sources = {
        "alloc": "procedure main() { var x; L0: x := new(1); return; }",
        "null": "procedure main() { var x; L0: x := Null; return; }",
        "copy": "procedure main() { var x; var y; L0: x := new(1); y := x; return; }",
        "load": (
            "procedure main() { var a; var b; var c; "
            "L0: a := new(1); b := new(2); a.f := b; c := a.f; return; }"
        ),
        "store": (
            "procedure main() { var a; var b; "
            "L0: a := new(1); b := new(2); a.f := b; return; }"
        ),
    }
    from nullgvn.parse import parse_program

    insensitive = []
    for rule, src in mutation_sources.items():
        program = parse_program(src)
        broken = solve_worklist(generate_constraints(program, disable_rule=rule))
        if not check_solution_soundness(program, broken, DEPTH_SOUNDNESS):
            insensitive.append(rule)
    elapsed = time.monotonic() - t0
    criterion(
        4,
        violations == 0 and not insensitive and elapsed < 600,
        f"zero violations on the corpus; every disabled rule detected "
        f"({elapsed:.1f}s)",
    )


def test_criterion_5_solver_equivalence(corpus_all, generated):
    t0 = time.monotonic()
    mismatches = 0
    for name, program in corpus_all.items():
        cons = generate_constraints(do_gvn(to_ssa(lift_loops(program))))
        if solve_naive(cons) != solve_worklist(cons):
            mismatches += 1
    for seed, (_, _, _, gvn_out) in generated.items():
        cons = generate_constraints(gvn_out)
        if solve_naive(cons) != solve_worklist(cons):
            mismatches += 1
    elapsed = time.monotonic() - t0
    criterion(
        5,
        mismatches == 0,
        f"naive and worklist solutions identical everywhere ({elapsed:.1f}s)",
    )


def test_criterion_6_dominance(corpus_all, generated):
    t0 = time.monotonic()
    bad = 0
    for name, program in corpus_all.items():
        if check_tagged_dominance(do_gvn(to_ssa(lift_loops(program)))):
            bad += 1
    for seed, (_, _, _, gvn_out) in generated.items():
        if check_tagged_dominance(gvn_out):
            bad += 1
    elapsed = time.monotonic() - t0
    criterion(
        6,
        bad == 0,
        f"every tagged use dominated by its unique assignment ({elapsed:.1f}s)",
    )


def test_criterion_7_term_consistency(generated):
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for seed in range(200):
        ssa = generated[seed][2]
        out, recording = do_gvn(ssa, instrument=True)
        checked += 1
        if check_term_consistency(out, recording, DEPTH_SOUNDNESS):
            violations += 1
    elapsed = time.monotonic() - t0
    criterion(
        7,
        checked >= 200 and violations == 0,
        f"equal terms held equal values on {checked} programs ({elapsed:.1f}s)",
    )


def test_criterion_8_effect_direction(generated):
    t0 = time.monotonic()
    per_program_ok = True
    ssa_unproved = 0
    gvn_unproved = 0
    ssa_pipeline_ms = 0.0
    gvn_phase_ms = 0.0
    for seed in range(100):
        program = generated[seed][0]
        ssa_result = analyze_program(program, "ssa")
        gvn_result = analyze_program(program, "ssa+gvn")
        if gvn_result.report.unproved > ssa_result.report.unproved:
            per_program_ok = False
        ssa_unproved += ssa_result.report.unproved
        gvn_unproved += gvn_result.report.unproved
        ssa_pipeline_ms += sum(ssa_result.report.timings_ms.values())
        gvn_phase_ms += gvn_result.report.timings_ms["gvn"]
    reduction = ssa_unproved / max(1, gvn_unproved)
    overhead_ok = gvn_phase_ms <= 5 * ssa_pipeline_ms
    elapsed = time.monotonic() - t0
    criterion(
        8,
        per_program_ok and reduction >= 3.0 and overhead_ok and elapsed < 900,
        f"unproved {ssa_unproved} -> {gvn_unproved} ({reduction:.1f}x, "
        f"per-program monotone: {per_program_ok}); transformation time "
        f"{gvn_phase_ms:.0f}ms vs {ssa_pipeline_ms:.0f}ms baseline pipeline "
        f"({elapsed:.1f}s)",
    )
