import pytest

from nullgvn.ir import (
    Assign,
    Call,
    Goto,
    Return,
    cfg_is_acyclic,
    stmt_writes,
    validate,
)
from nullgvn.interp import enumerate_traces, traces_equivalent
from nullgvn.normalize import (
    CycleError,
    LiftError,
    dominators,
    lift_loops,
    to_ssa,
    topo_sort,
)
from nullgvn.parse import print_program

from conftest import parse_ok

DIAMOND = """
procedure main() {
  var x;
  L1: x := new(1); goto L2, L3;
  L2: x := new(2); goto L4;
  L3: x := Null; goto L4;
  L4: assert (x != Null); return;
}
"""


def test_topo_chain(bundled):
    assert topo_sort(bundled["basic_interproc"].procedures[0]) == ["L1", "L2"]


def test_topo_diamond_tie_break():
    proc = parse_ok(DIAMOND).procedures[0]
    assert topo_sort(proc) == ["L1", "L2", "L3", "L4"]


def test_topo_cycle_error():
    proc = parse_ok("procedure main() { L1: goto L1; }").procedures[0]
    with pytest.raises(CycleError):
        topo_sort(proc)


def test_dominators_chain(bundled):
    dom = dominators(bundled["basic_interproc"].procedures[0])
    assert dom["L2"] == {"L1", "L2"}


def test_dominators_diamond():
    dom = dominators(parse_ok(DIAMOND).procedures[0])
    assert dom["L4"] == {"L1", "L4"}


def test_dominators_merge_has_no_arm():
    proc = parse_ok(
        """
        procedure main() {
          L0: goto L1, L2;
          L1: goto L3;
          L2: goto L3;
          L3: return;
        }
        """
    ).procedures[0]
    dom = dominators(proc)
    assert "L1" not in dom["L3"] and "L2" not in dom["L3"]
    assert dom["L3"] == {"L0", "L3"}


# -- loop lifting --------------------------------------------------------------


def test_lift_loop_free_unchanged(bundled):
    program = bundled["basic_interproc"]
    assert lift_loops(program) == program


def test_lift_self_loop_shape(bundled):
    program = bundled["loop_self"]
    lifted = lift_loops(program)
    assert validate(lifted) == []
    assert all(cfg_is_acyclic(p) for p in lifted.procedures)
    names = [p.name for p in lifted.procedures]
    assert "loop_L1" in names
    loop = lifted.proc_map()["loop_L1"]
    assert "x" in loop.params and "x" in loop.returns
    assert traces_equivalent(
        enumerate_traces(program, 64), enumerate_traces(lifted, 64)
    )


def test_lift_nested_loops(bundled):
    program = bundled["loop_nested"]
    lifted = lift_loops(program)
    assert validate(lifted) == []
    assert all(cfg_is_acyclic(p) for p in lifted.procedures)
    new_procs = [p for p in lifted.procedures if p.name.startswith("loop_")]
    assert len(new_procs) == 2
    outer = lifted.proc_map()["loop_OUT"]
    callees = {
        s.callee
        for b in outer.blocks
        for s in b.stmts
        if isinstance(s, Call)
    }
    assert "loop_IN" in callees
    assert traces_equivalent(
        enumerate_traces(program, 64), enumerate_traces(lifted, 64)
    )


def test_lift_multi_exit(bundled):
    program = bundled["loop_multi_exit"]
    lifted = lift_loops(program)
    assert validate(lifted) == []
    assert all(cfg_is_acyclic(p) for p in lifted.procedures)
    assert traces_equivalent(
        enumerate_traces(program, 64), enumerate_traces(lifted, 64)
    )


def test_lift_irreducible_rejected():
    program = parse_ok(
        """
        procedure main() {
          var a;
          L0: a := new(1); goto L1, L2;
          L1: a := Null; goto L2;
          L2: a := a; goto L1;
        }
        """
    )
    with pytest.raises(LiftError) as info:
        lift_loops(program)
    assert "irreducible" in info.value.diagnostic.message


# -- SSA -----------------------------------------------------------------------


def test_ssa_reassignment_gets_version(bundled):
    program = bundled["reassign_null_after_check"]
    ssa = to_ssa(program)
    stmts = ssa.procedures[0].blocks[0].stmts
    texts = [stmt_writes(s) for s in stmts]
    assert texts == [("x",), (), ("y",), ("x__2",)]
    assert traces_equivalent(enumerate_traces(program, 32), enumerate_traces(ssa, 32))


def test_ssa_straight_line_identity():
    program = parse_ok(
        "procedure main() { var x; var y; L1: x := new(1); y := x; return; }"
    )
    assert to_ssa(program) == program


def test_ssa_diamond_merge_copies():
    program = parse_ok(DIAMOND)
    ssa = to_ssa(program)
    proc = ssa.procedures[0]
    blocks = proc.block_map()
    # both arms end with a copy into the same merged version
    last_l2 = blocks["L2"].stmts[-1]
    last_l3 = blocks["L3"].stmts[-1]
    assert isinstance(last_l2, Assign) and isinstance(last_l3, Assign)
    assert last_l2.lhs == last_l3.lhs
    merged = last_l2.lhs
    assert {last_l2.rhs.base, last_l3.rhs.base} == {"x__2", "x__3"}
    cond = blocks["L4"].stmts[0].cond
    assert cond.path.base == merged
    assert traces_equivalent(enumerate_traces(program, 32), enumerate_traces(ssa, 32))


def test_ssa_three_way_join_listing():
    """At L4, x is the same on two of three paths (merged), y differs on all
    three (merged), z differs but is dead (no copy and no version), and w
    agrees. Merge copies go at the end of each predecessor in declaration
    order, y before x, and take the next version of their variable."""
    program = parse_ok(
        "procedure main() {\n"
        "  var z; var y; var x; var w;\n"
        "  L0: w := new(1); x := new(2); y := new(3); z := new(4); goto L1, L2, L3;\n"
        "  L1: y := new(5); z := new(6); goto L4;\n"
        "  L2: y := new(7); goto L4;\n"
        "  L3: x := new(8); y := new(9); z := new(10); goto L4;\n"
        "  L4: assert (x != Null); assert (y != Null); z := w; assert (z != Null); return;\n"
        "}\n"
    )
    assert print_program(to_ssa(program)) == """\
procedure main() {
  var z;
  var y;
  var x;
  var w;
  var y__2;
  var z__2;
  var y__3;
  var x__2;
  var y__4;
  var z__3;
  var y__5;
  var x__3;
  var z__4;
  L0:
    w := new(1);
    x := new(2);
    y := new(3);
    z := new(4);
    goto L1, L2, L3;
  L1:
    y__2 := new(5);
    z__2 := new(6);
    y__5 := y__2;
    x__3 := x;
    goto L4;
  L2:
    y__3 := new(7);
    y__5 := y__3;
    x__3 := x;
    goto L4;
  L3:
    x__2 := new(8);
    y__4 := new(9);
    z__3 := new(10);
    y__5 := y__4;
    x__3 := x__2;
    goto L4;
  L4:
    assert (x__3 != Null);
    assert (y__5 != Null);
    z__4 := w;
    assert (z__4 != Null);
    return;
}
"""


def _assignment_counts(program):
    """(proc, var) -> assignment sites; locals are per-procedure scopes."""
    globals_ = set(program.globals)
    counts = {}
    for proc in program.procedures:
        for block in proc.blocks:
            for stmt in block.stmts:
                for v in stmt_writes(stmt):
                    key = ("", v) if v in globals_ else (proc.name, v)
                    counts.setdefault(key, []).append((proc, block.label, stmt))
    return counts


def assert_single_assignment(program):
    """Each non-global assigned once; merge copies may assign one variable
    once per predecessor of a single join."""
    for (owner, var), sites in _assignment_counts(program).items():
        if owner == "" or len(sites) == 1:
            continue
        proc = sites[0][0]
        blocks = {b for _, b, _ in sites}
        assert len(blocks) == len(sites), f"{var} assigned twice in one block"
        for _, label, stmt in sites:
            block = proc.block_map()[label]
            trailing = block.stmts[block.stmts.index(stmt):]
            assert all(isinstance(s, Assign) for s in trailing), (
                f"{var} merge copy not in the trailing copy group of {label}"
            )
        succ_sets = [
            set(proc.block_map()[b].transfer.targets)
            for b in blocks
            if isinstance(proc.block_map()[b].transfer, Goto)
        ]
        assert succ_sets and set.intersection(*succ_sets), f"{var} not a join merge"


def test_ssa_single_assignment_generated():
    from nullgvn.corpus import GeneratorConfig, generate

    for seed in range(30):
        program = to_ssa(lift_loops(generate(GeneratorConfig(seed=seed))))
        assert validate(program) == []
        assert_single_assignment(program)


def test_ssa_multi_return_routed_through_exit():
    program = parse_ok(
        """
        procedure f() returns (r) {
          L0: goto L1, L2;
          L1: r := new(1); return;
          L2: r := Null; return;
        }
        procedure main() { var x; L0: x := call f(); return; }
        """
    )
    ssa = to_ssa(program)
    assert validate(ssa) == []
    f = ssa.procedures[0]
    returns = [b for b in f.blocks if isinstance(b.transfer, Return)]
    assert len(returns) == 1
    assert traces_equivalent(enumerate_traces(program, 32), enumerate_traces(ssa, 32))
