"""Every pass returns a new program and leaves its input untouched: same
listing, equal to a deep snapshot, and no mutable part shared with the
output (statements and transfers are frozen and may be shared)."""

import copy

import pytest

from nullgvn.corpus import GeneratorConfig, bundled_programs, generate
from nullgvn.gvn import do_gvn, insert_tagged_assignments
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.parse import print_program

PASSES = {
    "lift_loops": ("original", lift_loops),
    "to_ssa": ("lifted", to_ssa),
    "insert_tagged_assignments": ("ssa", insert_tagged_assignments),
    "do_gvn": ("ssa", do_gvn),
    "do_gvn_instrument": ("ssa", lambda p: do_gvn(p, instrument=True)[0]),
}


@pytest.fixture(scope="module")
def inputs():
    """name -> {stage: program}: the bundled set and generated seeds, with
    loops common enough that lifting has work to do."""
    programs = dict(bundled_programs())
    for seed in range(30):
        programs[f"seed{seed}"] = generate(GeneratorConfig(seed=seed, loop_prob=0.4))
    out = {}
    for name, program in programs.items():
        lifted = lift_loops(program)
        out[name] = {"original": program, "lifted": lifted, "ssa": to_ssa(lifted)}
    return out


def mutable_parts(program) -> dict[int, str]:
    """id -> description of every list, procedure and block in a program."""
    parts = {id(program.globals): "globals", id(program.procedures): "procedures"}
    for proc in program.procedures:
        parts[id(proc)] = f"procedure {proc.name}"
        for attr in ("params", "returns", "locals", "blocks"):
            parts[id(getattr(proc, attr))] = f"{proc.name}.{attr}"
        for block in proc.blocks:
            parts[id(block)] = f"block {proc.name}/{block.label}"
            parts[id(block.stmts)] = f"{proc.name}/{block.label}.stmts"
    return parts


def assert_nothing_shared(a, b) -> None:
    pa, pb = mutable_parts(a), mutable_parts(b)
    shared = sorted(pa[i] for i in pa.keys() & pb.keys())
    assert not shared, f"shared with the input: {shared}"


@pytest.mark.parametrize("pass_name", sorted(PASSES))
def test_pass_leaves_input_alone(inputs, pass_name):
    stage, run = PASSES[pass_name]
    for name, stages in inputs.items():
        program = stages[stage]
        listing = print_program(program)
        snapshot = copy.deepcopy(program)
        out = run(program)
        assert print_program(program) == listing, name
        assert program == snapshot, name
        assert_nothing_shared(program, out)

