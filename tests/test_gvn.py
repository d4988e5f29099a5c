import pytest

from nullgvn.gvn import (
    check_tagged_dominance,
    do_gvn,
    insert_tagged_assignments,
)
from nullgvn.interp import enumerate_traces, traces_equivalent
from nullgvn.ir import (
    Alloc,
    Assert,
    Assign,
    Assume,
    Block,
    Goto,
    NullCheck,
    Path,
    Procedure,
    Program,
    Return,
    Store,
    is_tagged,
    validate,
)
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.parse import print_program

from conftest import parse_ok


def recorded_terms(body: str) -> list[int]:
    """The terms `do_gvn(..., instrument=True)` records for the statements
    of a one-block `main` over x, y, z, v and w, in statement order."""
    program = parse_ok(
        f"procedure main() {{ var x; var y; var z; var v; var w; L1: {body} return; }}"
    )
    _, recording = do_gvn(program, instrument=True)
    return [term for _, records in sorted(recording.items()) for _, term in records]


# -- hashing -------------------------------------------------------------------


def test_hash_chain_allocates_through_fields():
    # the same chain read twice gets one term, distinct from its prefix's
    chain, again, prefix = recorded_terms(
        "x := new(1); y := x.f.g; z := x.f.g; w := x.f;"
    )
    assert chain == again
    assert prefix != chain


def test_hash_memoized_within_block():
    first, second = recorded_terms("x := new(1); y := x; z := x;")
    assert first == second


def test_hash_fresh_after_field_removal():
    # y := x.f; then the store's two reads, src v and base w; then z := x.f
    before, _, _, after = recorded_terms(
        "x := new(1); v := new(2); w := new(3); y := x.f; w.f := v; z := x.f;"
    )
    assert before != after


# -- tagged-assignment insertion -------------------------------------------------


def test_insert_after_assume():
    program = parse_ok(
        "procedure main() { var z; L1: z := new(1); assume (z != Null); return; }"
    )
    out = insert_tagged_assignments(program)
    stmts = out.procedures[0].blocks[0].stmts
    assert isinstance(stmts[1], Assume)
    assert isinstance(stmts[2], Assign) and is_tagged(stmts[2].lhs)
    assert stmts[2].rhs == Path("z")


def test_insert_after_assert_too():
    program = parse_ok(
        "procedure main() { var z; L1: z := new(1); assert (z != Null); return; }"
    )
    out = insert_tagged_assignments(program)
    stmts = out.procedures[0].blocks[0].stmts
    assert isinstance(stmts[1], Assert)
    assert isinstance(stmts[2], Assign) and is_tagged(stmts[2].lhs)


def test_insert_nothing_without_null_checks():
    program = parse_ok(
        "procedure main() { var z; L1: z := new(1); assume *; return; }"
    )
    assert insert_tagged_assignments(program) == program


# -- statement processing through do_gvn ---------------------------------------


def test_chained_field_golden(bundled):
    """The flagship rewrite: the whole RHS chain and the assert condition
    collapse onto the tagged temporary."""
    out = do_gvn(bundled["chained_field_equiv"])
    tail = out.procedures[0].blocks[0].stmts[-9:]
    assert tail[0] == Assign("y", Path("x", ("f", "g")))
    assert tail[1] == Assign("z", Path("y", ("h",)))
    assert tail[2] == Assume(NullCheck(Path("z"), True))
    assert tail[3] == Assign("gvnTmp__gvn1", Path("z"))
    assert tail[4] == Assign("a", Path("x", ("f",)))
    assert tail[5] == Assign("b", Path("gvnTmp__gvn1"))
    assert tail[6] == Assert(NullCheck(Path("gvnTmp__gvn1"), True))
    # the assert itself is harvested as well, then the final store remains
    assert tail[7] == Assign("gvnTmp__gvn2", Path("gvnTmp__gvn1"))
    assert tail[8] == Store("c", "g", "d")


def test_field_store_kills_equivalence(bundled):
    out = do_gvn(bundled["store_invalidates_check"])
    stmts = out.procedures[0].blocks[0].stmts
    # the final load of x.f must not be replaced by the tagged variable
    final = stmts[-1]
    assert isinstance(final, Assign)
    assert final.rhs == Path("x", ("f",))


def test_self_copy_keeps_term():
    program = parse_ok(
        """
        procedure main() {
          var x; var y;
          L1:
            x := new(1);
            assume (x != Null);
            x := x;
            y := x;
            return;
        }
        """
    )
    out = do_gvn(program)
    stmts = out.procedures[0].blocks[0].stmts
    # x := x rewrites to the tagged variable, and so does the later use
    tagged = [s.lhs for s in stmts if isinstance(s, Assign) and is_tagged(s.lhs)]
    assert len(tagged) == 1
    assert stmts[-2] == Assign("x", Path(tagged[0]))
    assert stmts[-1] == Assign("y", Path(tagged[0]))


# -- merges ---------------------------------------------------------------------


def test_merge_prepends_fresh_tagged(bundled):
    out = do_gvn(bundled["branch_merge_check"])
    check = out.proc_map()["check"]
    l3 = check.block_map()["L3"]
    first = l3.stmts[0]
    assert isinstance(first, Assign) and is_tagged(first.lhs)
    assert first.rhs == Path("x")
    cond = l3.stmts[1].cond
    assert cond == NullCheck(Path(first.lhs), True)
    # the merge temporary is fresh, not one of the arm temporaries
    arm_tags = {
        s.lhs
        for label in ("L1", "L2")
        for s in check.block_map()[label].stmts
        if isinstance(s, Assign) and is_tagged(s.lhs)
    }
    assert first.lhs not in arm_tags


def test_merge_requires_fact_on_all_arms(bundled):
    out = do_gvn(bundled["diamond_one_sided_check"])
    l1 = out.procedures[0].block_map()["L1"]
    assert isinstance(l1.stmts[0], Assert)
    assert l1.stmts[0].cond == NullCheck(Path("x"), True)


# One join, LD, with three predecessors. Topological order breaks ties by
# declaration order, so LB comes first although the goto names LC first.
THREE_WAY_JOIN = """
procedure main() {
  var x; var y; var z; var u; var v; var w; var a; var b; var c; var d;
  L0: x := new(1); y := new(2); z := new(3); goto LC, LA, LB;
  LB: u := x; v := y; w := y; assume (u.f != Null); assume (z != Null); goto LD;
  LA: u := x; v := y; w := y; assume (x.f != Null); goto LD;
  LC: u := x; v := z; assume (x.f != Null); goto LD;
  LD: a := u; b := v; c := w; d := z; return;
}
"""


def three_way_join():
    """The transformed blocks by label, and each block's recorded (path,
    term) pairs in statement order."""
    out, recording = do_gvn(parse_ok(THREE_WAY_JOIN), instrument=True)
    used: dict[str, list] = {}
    for (_, label, _), records in sorted(recording.items()):
        used.setdefault(label, []).extend(records)
    return out.procedures[0].block_map(), used


def test_join_keeps_only_variables_every_arm_agrees_on():
    _, used = three_way_join()
    at_join = {str(path): term for path, term in used["LD"]}
    in_arms = {term for label in ("LA", "LB", "LC") for _, term in used[label]}
    x_term = {str(p): t for p, t in used["LB"]}["x"]
    assert at_join["u"] == x_term                 # u := x on every arm
    assert at_join["z"] in in_arms                # z is never reassigned
    assert at_join["v"] not in in_arms            # y on two arms, z on the third
    assert at_join["w"] not in in_arms            # y on two arms, unset on LC


def test_join_skips_a_tag_only_one_arm_carries():
    blocks, _ = three_way_join()
    # z is checked on LB alone, so it is not known non-null at LD
    assert Assign("d", Path("z")) in blocks["LD"].stmts
    assert all(
        s.rhs != Path("z")
        for s in blocks["LD"].stmts
        if isinstance(s, Assign) and is_tagged(s.lhs)
    )


def test_join_rematerializes_a_tag_every_arm_carries_once():
    blocks, _ = three_way_join()
    tags = [s for s in blocks["LD"].stmts if isinstance(s, Assign) and is_tagged(s.lhs)]
    # u.f and x.f number the same on every arm; LB's expression is used
    assert len(tags) == 1 and blocks["LD"].stmts[0] == tags[0]
    assert tags[0].rhs == Path("u", ("f",))
    arm_tags = {
        s.lhs
        for label in ("LA", "LB", "LC")
        for s in blocks[label].stmts
        if isinstance(s, Assign) and is_tagged(s.lhs)
    }
    assert tags[0].lhs not in arm_tags


def test_entry_block_starts_empty():
    program = parse_ok(
        """
        procedure main() {
          var x;
          L1: x := new(1); assert (x != Null); return;
        }
        """
    )
    out = do_gvn(program)
    first = out.procedures[0].blocks[0].stmts[0]
    # nothing is prepended to the entry block
    assert not (isinstance(first, Assign) and is_tagged(first.lhs))
    assert first == program.procedures[0].blocks[0].stmts[0]


# -- whole-transformation properties ---------------------------------------------


def test_no_facts_is_identity():
    program = parse_ok(
        "procedure main() { var x; L1: x := new(1); assume *; assert *; return; }"
    )
    assert do_gvn(program) == program


def test_gvn_output_validates_and_dominates(bundled):
    for name, program in bundled.items():
        out = do_gvn(to_ssa(lift_loops(program)))
        assert validate(out) == [], name
        assert check_tagged_dominance(out) == [], name


TAG = "gvnTmp__gvn1"
SET_TAG = Assign(TAG, Path("x"))
READ_TAG = Assign("y", Path(TAG))


@pytest.mark.parametrize(
    "blocks, message",
    [
        (
            [Block("L0", [Alloc("x", 1), SET_TAG, SET_TAG], Return())],
            f"main: '{TAG}' assigned more than once",
        ),
        (
            [Block("L0", [Alloc("x", 1), READ_TAG], Return())],
            f"main: '{TAG}' used but never assigned",
        ),
        (
            [Block("L0", [Alloc("x", 1), READ_TAG, SET_TAG], Return())],
            f"main, block L0: '{TAG}' used at stmt 1 before its assignment at 2",
        ),
        (
            [
                Block("L0", [Alloc("x", 1)], Goto(("L1", "L2"))),
                Block("L1", [SET_TAG], Goto(("L3",))),
                Block("L2", [], Goto(("L3",))),
                Block("L3", [READ_TAG], Return()),
            ],
            f"main: assignment of '{TAG}' in L1 does not dominate use in L3",
        ),
    ],
    ids=["assigned_twice", "never_assigned", "read_before_assignment", "one_arm_of_diamond"],
)
def test_tagged_dominance_reports_each_violation(blocks, message):
    """Built from IR classes: `validate` rejects the first two programs."""
    proc = Procedure("main", [], [], ["x", "y", TAG], blocks, "L0")
    assert check_tagged_dominance(Program([], [proc], "main")) == [message]


def test_gvn_deterministic(bundled):
    program = bundled["branch_merge_check"]
    a = print_program(do_gvn(program))
    b = print_program(do_gvn(program))
    assert a == b


def test_only_insertions_and_rewrites(bundled):
    """Statement kinds and order are preserved; the pass only inserts tagged
    assignments and rewrites expressions in place."""
    for name, base in bundled.items():
        if name == "chained_field_equiv_rewritten":
            continue
        program = to_ssa(lift_loops(base))
        out = do_gvn(program)
        for proc_in, proc_out in zip(program.procedures, out.procedures):
            for blk_in, blk_out in zip(proc_in.blocks, proc_out.blocks):
                kept = [
                    s
                    for s in blk_out.stmts
                    if not (isinstance(s, Assign) and is_tagged(s.lhs))
                ]
                assert len(kept) == len(blk_in.stmts), (name, blk_in.label)
                for s_in, s_out in zip(blk_in.stmts, kept):
                    assert type(s_in) is type(s_out)


def test_gvn_trace_equivalent_on_corpus(bundled):
    for name, program in bundled.items():
        out = do_gvn(to_ssa(lift_loops(program)))
        assert traces_equivalent(
            enumerate_traces(program, 64), enumerate_traces(out, 64)
        ), name


def test_long_access_path_is_rewritten_without_recursion():
    fields = ".f" * 3000
    program = parse_ok(
        f"procedure main() {{ var x; var y; L1: x := new(1); "
        f"assume (x{fields[2:]} != Null); y := x{fields}; return; }}"
    )
    out = do_gvn(program)
    assert out.procedures[0].blocks[0].stmts[-1] == Assign("y", Path("gvnTmp__gvn1", ("f",)))
