from pathlib import Path as FsPath

from hypothesis import given, settings, strategies as st

from nullgvn.corpus import (
    GeneratorConfig,
    bundled_programs,
    bundled_sources,
    generate,
)
from nullgvn.gvn import do_gvn
from nullgvn.ir import Assert, Program, cfg_is_acyclic, validate
from nullgvn.normalize import lift_loops
from nullgvn.parse import parse_program, print_program

CORE = {
    "basic_interproc",
    "reassign_null_after_check",
    "guarded_copy",
    "store_invalidates_check",
    "chained_field_equiv",
    "chained_field_equiv_rewritten",
    "branch_merge_check",
}


def test_bundled_inventory(bundled):
    assert CORE <= set(bundled)
    adversarial = set(bundled) - CORE
    assert len(adversarial) >= 10
    for name, program in bundled.items():
        assert validate(program) == [], name


def test_bundled_programs_fresh_copies():
    a = bundled_programs()["guarded_copy"]
    b = bundled_programs()["guarded_copy"]
    assert a == b and a is not b


BUNDLED_NAMES = CORE | {
    "assert_chain",
    "call_invalidates_global_check",
    "deep_field_chain",
    "diamond_one_sided_check",
    "global_check_no_call",
    "loop_guarded_walk",
    "loop_multi_exit",
    "loop_nested",
    "loop_self",
    "merge_without_prior_mention",
    "null_equality_assume",
    "opaque_branching",
    "self_referential_load",
    "store_base_substitution",
    "store_kill_across_blocks",
    "tag_lookalike_names",
}


def test_packaged_programs_load_and_round_trip():
    sources = bundled_sources()
    assert set(sources) == BUNDLED_NAMES
    for name, text in sources.items():
        program = parse_program(text, name)
        assert isinstance(program, Program), name
        assert validate(program) == [], name
        assert parse_program(print_program(program), name) == program, name
    assert set(bundled_programs()) == BUNDLED_NAMES and len(BUNDLED_NAMES) == 23


def test_generator_golden_seed0():
    golden = (FsPath(__file__).parent / "golden_seed0.ir").read_text(encoding="utf-8")
    assert print_program(generate(GeneratorConfig(seed=0))) == golden


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generator_deterministic(seed):
    cfg = GeneratorConfig(seed=seed)
    assert print_program(generate(cfg)) == print_program(generate(cfg))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_programs_validate_and_assert(seed):
    program = generate(GeneratorConfig(seed=seed))
    assert validate(program) == []
    has_assert = any(
        isinstance(s, Assert)
        for p in program.procedures
        for b in p.blocks
        for s in b.stmts
    )
    assert has_assert


def test_loop_probability_zero_is_acyclic():
    for seed in range(60):
        program = generate(GeneratorConfig(seed=seed, loop_prob=0.0))
        assert all(cfg_is_acyclic(p) for p in program.procedures)
        assert lift_loops(program) == program


def test_zero_density_means_no_facts():
    for seed in range(40):
        program = generate(GeneratorConfig(seed=seed, loop_prob=0.0, null_check_density=0.0))
        assert do_gvn(program) == program


def test_loops_do_appear():
    loopy = 0
    for seed in range(80):
        program = generate(GeneratorConfig(seed=seed, loop_prob=0.5))
        if not all(cfg_is_acyclic(p) for p in program.procedures):
            loopy += 1
    assert loopy > 10
