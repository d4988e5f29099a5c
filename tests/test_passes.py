"""The transform passes as a whole. Every pass returns a new program and
leaves its input untouched: same listing, equal to a deep snapshot, and no
mutable part shared with the output (statements and transfers are frozen
and may be shared). Their listings are pinned, and the names they make up
do not collide with declared ones."""

import copy
import hashlib
import json
from pathlib import Path as FsPath

import pytest

from nullgvn.corpus import GeneratorConfig, bundled_programs, generate
from nullgvn.gvn import check_tagged_dominance, do_gvn, insert_tagged_assignments
from nullgvn.ir import validate
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.parse import parse_program, print_program
from nullgvn.pipeline import stage_witnesses, transform_program

from conftest import parse_ok

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



GOLDEN_LISTINGS = FsPath(__file__).parent / "golden_listings.json"


def pinned_programs() -> dict:
    """The bundled programs and 200 generated ones (seeds 0-99 with the
    default generator, `default-N`, and with more blocks and loops,
    `loops-N`)."""
    programs = dict(bundled_programs())
    for seed in range(100):
        programs[f"default-{seed}"] = generate(GeneratorConfig(seed=seed))
        programs[f"loops-{seed}"] = generate(
            GeneratorConfig(seed=seed, max_blocks=8, loop_prob=0.4)
        )
    return programs


def transformed_listings() -> dict[str, dict[str, str]]:
    """name -> {level: sha256 of the listing} at `ssa` and `ssa+gvn`, for
    `pinned_programs()`."""
    out = {}
    for name, program in sorted(pinned_programs().items()):
        ssa = to_ssa(lift_loops(program))
        out[name] = {
            level: hashlib.sha256(print_program(p).encode("utf-8")).hexdigest()
            for level, p in (("ssa", ssa), ("ssa+gvn", do_gvn(ssa)))
        }
    return out


def test_transformed_listings_pinned():
    golden = json.loads(GOLDEN_LISTINGS.read_text(encoding="utf-8"))
    assert len(golden) == 223
    assert transformed_listings() == golden


GOLDEN_RECORDINGS = FsPath(__file__).parent / "golden_recordings.json"


def gvn_recordings() -> dict[str, str]:
    """name -> sha256 of `repr(sorted(recording.items()))`, the recording of
    `do_gvn(ssa, instrument=True)`: every (path, term) pair it relied on.
    Over `pinned_programs()` and five with many joins (`joins-N`)."""
    programs = pinned_programs()
    for seed in range(5):
        programs[f"joins-{seed}"] = generate(
            GeneratorConfig(seed=seed, max_procs=10, max_blocks=30)
        )
    out = {}
    for name, program in sorted(programs.items()):
        _, recording = do_gvn(to_ssa(lift_loops(program)), instrument=True)
        text = repr(sorted(recording.items()))
        out[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def test_gvn_recordings_pinned():
    golden = json.loads(GOLDEN_RECORDINGS.read_text(encoding="utf-8"))
    assert len(golden) == 228
    assert gvn_recordings() == golden


# Source text may declare names of the generated shapes (`ir.is_reserved_name`).
DECLARES_GENERATED_NAMES = {
    # a global tagged name: fresh tagged temporaries must number past it
    "global_tagged": (
        "var gvnTmp__gvn1; procedure main() { var x; L0: x := new(1); "
        "gvnTmp__gvn1 := x; assume (x != Null); return; }"
    ),
    # a declared SSA version: renaming must not reuse it
    "declared_version": (
        "procedure main() { var x; var x__2; L0: x := new(1); x := new(2); "
        "x__2 := Null; assert (x != Null); return; }"
    ),
}


@pytest.mark.parametrize("name", sorted(DECLARES_GENERATED_NAMES))
def test_fresh_names_avoid_declared_names(name):
    program = parse_ok(DECLARES_GENERATED_NAMES[name])
    for level in ("ssa", "ssa+gvn"):
        out, _ = transform_program(program, level)
        assert validate(out) == [], level
        assert parse_program(print_program(out)) == out, level
        assert check_tagged_dominance(out) == [], level
    assert [witness for _, witness in stage_witnesses(program, 20)] == [None] * 3
