import hashlib
import json
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings, strategies as st

from nullgvn import interp
from nullgvn.corpus import GeneratorConfig, generate
from nullgvn.gvn import do_gvn
from nullgvn.interp import (
    TraceLimitError,
    check_solution_soundness,
    check_term_consistency,
    enumerate_traces,
    is_truncated,
    project_trace,
    traces_diff,
    traces_equivalent,
)
from nullgvn.ir import Path
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.solver import generate_constraints, solve_worklist
from nullgvn.traces import Automaton, Traces, _read

from conftest import parse_ok


def test_blocked_interproc_trace(bundled):
    traces = enumerate_traces(bundled["basic_interproc"], 32)
    assert len(traces) == 1
    (trace,) = traces
    assert trace[0] == ("assign", "a", ("loc", 1, 1))
    assert trace[1] == ("assign", "x", "null")
    assert trace[-1][0] == "assume_blocked"


def test_alloc_then_assert_passes():
    program = parse_ok(
        "procedure main() { var x; L1: x := new(1); assert (x != Null); return; }"
    )
    traces = enumerate_traces(program, 32)
    assert len(traces) == 1
    kinds = [ev[0] for ev in next(iter(traces))]
    assert kinds == ["assign", "assert_pass", "return"]


def test_null_then_assert_fails():
    program = parse_ok(
        "procedure main() { var x; L1: x := Null; assert (x != Null); return; }"
    )
    traces = enumerate_traces(program, 32)
    assert len(traces) == 1
    assert next(iter(traces))[-1][0] == "assert_fail"


def test_unwritten_field_reads_null():
    program = parse_ok(
        "procedure main() { var x; var y; L1: x := new(1); y := x.f; return; }"
    )
    (trace,) = enumerate_traces(program, 32)
    assert ("assign", "y", "null") in trace


@pytest.mark.parametrize(
    "source, trace",
    [
        (
            "procedure main() { var x; var y; L1: x := Null; y := new(1); x.f := y; return; }",
            (
                ("assign", "x", "null"),
                ("assign", "y", ("loc", 1, 1)),
                ("null_deref", ("main", "L1", 2)),
            ),
        ),
        (
            "procedure main() { var x; var y; L1: y := x; return; }",
            (("unassigned", ("main", "L1", 0), "x"),),
        ),
        (
            "procedure main() { var x; L0: x := Null; assert (x.f != Null); return; }",
            (("assign", "x", "null"), ("null_deref", ("main", "L0", 1))),
        ),
        (
            "procedure main() { var y; L0: assume (y != Null); return; }",
            (("unassigned", ("main", "L0", 0), "y"),),
        ),
        (
            "procedure main() { var x; var y; L0: y := new(1); x.f := y; return; }",
            (("assign", "y", ("loc", 1, 1)), ("unassigned", ("main", "L0", 1), "x")),
        ),
        (
            "procedure main() { var x; var y; L0: x := new(1); x.f := y; return; }",
            (("assign", "x", ("loc", 1, 1)), ("unassigned", ("main", "L0", 1), "y")),
        ),
        (
            "procedure main() returns (r, s) { L0: r := new(1); return; }",
            (("assign", "r", ("loc", 1, 1)), ("return", (("loc", 1, 1), "undef"))),
        ),
    ],
    ids=[
        "store_through_null",
        "unassigned_read",
        "assert_through_null",
        "assume_on_unassigned",
        "store_through_unassigned",
        "store_from_unassigned",
        "unset_return",
    ],
)
def test_single_trace_pinned(source, trace):
    assert list(enumerate_traces(parse_ok(source), 32)) == [trace]


def test_determinism(bundled):
    program = bundled["loop_multi_exit"]
    assert enumerate_traces(program, 48) == enumerate_traces(program, 48)


def test_depth_monotone(bundled):
    program = bundled["opaque_branching"]
    for k in (4, 6, 9):
        small = enumerate_traces(program, k)
        big = set(enumerate_traces(program, k + 1))
        for t in small:
            if t[-1] != ("truncated",):
                assert t in big
            else:
                body = t[:-1]
                assert any(u[: len(body)] == body for u in big)


def test_paths_with_one_raw_trace_give_one_trace():
    program = parse_ok(
        "procedure main() { L0: goto L1, L2; L1: goto L3; L2: goto L3; L3: return; }"
    )
    traces = enumerate_traces(program, 32)
    assert len(traces) == 1 and traces.truncated == 0
    assert list(traces) == [(("return", ()),)]


GOLDEN = json.loads((FsPath(__file__).parent / "golden_oracle.json").read_text(encoding="utf-8"))


def test_traces_pinned_at_depth_48(bundled):
    """Each bundled program's raw traces at depth 48: their count, how many
    are truncated, and the sha256 of their sorted reprs."""
    got = {}
    for name, program in bundled.items():
        traces = enumerate_traces(program, 48)
        digest = hashlib.sha256("\n".join(sorted(map(repr, traces))).encode()).hexdigest()
        got[name] = {"traces": len(traces), "truncated": traces.truncated, "sha256": digest}
    assert got == GOLDEN["traces_at_depth_48"]


ALLOCATION_LOOP = "procedure main() { var x; L0: x := new(1); goto L0, L1; L1: return; }"


def test_allocation_loop_runs_deep():
    """Every configuration's memo key is six ints, whatever the heap holds,
    and no walk recurses."""
    engine = interp._Engine(parse_ok(ALLOCATION_LOOP), 10_000, interp.DEFAULT_TRACE_CAP)
    traces = engine.run()
    assert (len(traces), traces.truncated) == (5000, 1)
    assert {tuple(map(type, key)) for key in engine.memo} == {(int,) * 6}


def test_traces_compare_past_len():
    """64 two-way choices give 2^64 traces at depth 400, more than `len` can
    return: truth and comparison read the exact counts instead."""
    stages = "".join(
        f" S{i}: goto A{i}, B{i}; A{i}: assert (x == Null); goto S{i + 1}; B{i}: goto S{i + 1};"
        for i in range(64)
    )
    program = parse_ok(f"procedure main() {{ var x; L: x := Null; goto S0; {stages} S64: return; }}")
    deep, shallow = enumerate_traces(program, 400), enumerate_traces(program, 100)
    assert (deep.total, shallow.total) == (2**64, 888_855_064_897)
    assert deep and shallow and deep != shallow and shallow != deep and deep != []
    assert not Traces(Automaton(), 0)  # node 0 accepts nothing


def test_soundness_reports_a_shared_configuration_once():
    """Both arms miss the same site at L3 after different events: it is
    reported once, with the first arm's trace as its witness."""
    program = parse_ok(
        "procedure main() { var x; var y; L0: y := Null; goto L1, L2;"
        " L1: assert (y == Null); goto L3; L2: assert (y == Null); goto L3;"
        " L3: x := new(1); return; }"
    )
    broken = solve_worklist(generate_constraints(program, disable_rule="alloc"))
    assert check_solution_soundness(program, broken, 32) == [(
        "missing_site", "main::x", 1,
        (("assign", "y", "null"), ("assert_pass", ("main", "L1", 0))),
    )]


def test_term_violation_on_a_shared_configuration_once():
    """Both arms rejoin at L3 through single-target gotos and replay its
    statements: the term violation there is reported once, with the first
    arm's trace."""
    program = parse_ok(
        "procedure main() { var x; var y; L0: y := Null; goto L1, L2;"
        " L1: assert (y == Null); goto L3; L2: assert (y == Null); goto L3;"
        " L3: x := new(1); y := x; return; }"
    )
    recording = {("main", "L3", 0): [(Path("y"), 1)], ("main", "L3", 1): [(Path("x"), 1)]}
    assert check_term_consistency(program, recording, 32) == [(
        1, ("main", "L3", 1), "x", None, 1,
        (("assign", "y", "null"), ("assert_pass", ("main", "L1", 0)), ("assign", "x", ("loc", 1, 1))),
    )]


WITNESS_PROGRAM = """
procedure f(var p : int) returns r : int { L0: r := p; return; }
procedure main() {
  var a; var b; var c; var d; var e;
  L0: a := Null; goto L1, L2;
  L1: goto L3, L4;
  L3: assert (a == Null); goto L5, L6;
  L4: assert (a == Null); goto L5, L6;
  L5: b := new(1); return;
  L6: return;
  L2: c := new(2); d := call f(c); goto L7, L8;
  L7: assume *; assert *; e := new(3); return;
  L8: e := d; assert (e != Null); return;
}
"""


def test_check_witnesses_pinned():
    """The full witness traces of both checks. The L4 arm's successors are
    memo hits on the L3 arm's; the L2 arm runs a call and its return, then
    an `assume *` and an `assert *` whose failing arms end their traces when
    they are next taken from the stack, before the L8 arm runs."""
    program = parse_ok(WITNESS_PROGRAM)
    a_null = ("assign", "a", "null")
    called = (a_null, ("assign", "c", ("loc", 2, 1)), ("assign", "r", ("loc", 2, 1)))
    passed = (*called, ("assert_pass", ("main", "L7", 1)))
    assert list(enumerate_traces(program, 32)) == [
        (a_null, ("assert_pass", ("main", "L3", 0)), ("assign", "b", ("loc", 1, 1)), RETURN),
        (a_null, ("assert_pass", ("main", "L3", 0)), RETURN),
        (a_null, ("assert_pass", ("main", "L4", 0)), ("assign", "b", ("loc", 1, 1)), RETURN),
        (a_null, ("assert_pass", ("main", "L4", 0)), RETURN),
        (*passed, ("assign", "e", ("loc", 3, 2)), RETURN),
        (*called, ("assert_fail", ("main", "L7", 1))),
        (*called, ("assume_blocked", ("main", "L7", 0))),
        (*called, ("assign", "e", ("loc", 2, 1)), ("assert_pass", ("main", "L8", 1)), RETURN),
    ]
    broken = solve_worklist(generate_constraints(program, disable_rule="alloc"))
    assert check_solution_soundness(program, broken, 32) == [
        ("missing_site", "main::b", 1, (a_null, ("assert_pass", ("main", "L3", 0)))),
        ("missing_site", "main::c", 2, (a_null,)),
        ("missing_site", "f::p", 2, called[:2]),
        ("missing_site", "f::r", 2, called[:2]),
        ("missing_site", "main::d", 2, called),
        ("missing_site", "main::e", 3, passed),
        ("missing_site", "main::e", 2, called),
    ]
    recording = {
        ("main", "L2", 1): [(Path("c"), 1)], ("main", "L7", 2): [(Path("a"), 1)],
        ("main", "L8", 0): [(Path("a"), 2)], ("main", "L8", 1): [(Path("e"), 2)],
    }
    assert check_term_consistency(program, recording, 32) == [
        (1, ("main", "L7", 2), "a", 1, None, passed),
        (2, ("main", "L8", 1), "e", None, 1, (*called, ("assign", "e", ("loc", 2, 1)))),
    ]


A_LOC = ("assign", "a", ("loc", 1, 1))
B_LOC = ("assign", "b", ("loc", 2, 2))
RETURN = ("return", ())


@pytest.mark.parametrize(
    "src, expected",
    [
        (
            "procedure f() { var a; L0: a := Null; return; }"
            "procedure main() { var a; L0: a := new(1); call f(); a := Null; return; }",
            [(A_LOC, ("assign", "a", "null"), ("assign", "a", "null"), RETURN)],
        ),
        (
            "procedure main() { var a; var b; var c; L0: a := new(1); b := new(2); goto L1, L2;"
            " L1: a.f := b; goto L3; L2: goto L3; L3: c := a.f; return; }",
            [(A_LOC, B_LOC, ("assign", "c", ("loc", 2, 2)), RETURN),
             (A_LOC, B_LOC, ("assign", "c", "null"), RETURN)],
        ),
        (
            "procedure f(var x : int) returns r : int {"
            " L0: goto L1, L2; L1: r := x; return; L2: r := Null; return; }"
            "procedure main() { var a; var b; L0: a := new(1); b := call f(a); a := b; return; }",
            [(A_LOC, ("assign", "r", ("loc", 1, 1)), RETURN),
             (A_LOC, ("assign", "r", "null"), ("assign", "a", "null"), RETURN)],
        ),
    ],
    # main's `a := Null` repeats the value f's own `a` took, and both are
    # kept; a store on one arm stays out of the other arm's heap; each
    # return from f writes its own copy of main's frame.
    ids=["repeated-value", "store-after-fork", "return-after-fork"],
)
def test_forked_paths_keep_their_own_state(src, expected):
    traces = enumerate_traces(parse_ok(src), 32)
    assert [project_trace(t) for t in traces] == expected
    assert traces_diff(traces, expected) is None and traces_diff(expected, traces) is None


def test_trace_cap():
    program = parse_ok(
        """
        procedure main() {
          L0: assume *; assume *; assume *; assume *; return;
        }
        """
    )
    with pytest.raises(TraceLimitError):
        enumerate_traces(program, 32, max_traces=2)


def test_projection_drops_tagged_and_versions():
    trace = (
        ("assign", "x", ("loc", 1, 1)),
        ("assign", "gvnTmp__gvn1", ("loc", 1, 1)),
        ("assign", "x__2", "null"),
        ("assert_pass", ("main", "L0", 3)),
    )
    assert project_trace(trace) == (
        ("assign", "x", ("loc", 1, 1)),
        ("assign", "x", "null"),
        ("assert_pass",),
    )


def test_projection_drops_value_preserving_reassignment():
    """Only the interpreter's `reassign` is dropped: an `assign` that repeats
    a value is kept, as the projection sees no frames."""
    trace = (
        ("assign", "x", ("loc", 1, 1)),
        ("reassign", "x__2", ("loc", 1, 1)),
        ("assign", "x", ("loc", 1, 1)),
        ("assign", "x", "null"),
    )
    assert project_trace(trace) == (
        ("assign", "x", ("loc", 1, 1)),
        ("assign", "x", ("loc", 1, 1)),
        ("assign", "x", "null"),
    )


def test_reassignment_after_callee_sets_same_name_is_kept():
    """main's `a := Null` changes main's `a`, though f's own `a` took Null
    just before: deleting it is a difference."""
    f = "procedure f() { var a; L0: a := Null; return; }"
    main = "procedure main() {{ var a; L0: a := new(1); call f(); {} return; }}"
    reset = enumerate_traces(parse_ok(f + main.format("a := Null;")), 32)
    kept = enumerate_traces(parse_ok(f + main.format("")), 32)
    witness = "trace only on the left side:\n  " + repr(
        (A_LOC, ("assign", "a", "null"), ("assign", "a", "null"), RETURN)
    )
    assert traces_diff(reset, kept) == witness
    assert traces_diff(tuple(reset), tuple(kept)) == witness


# Both procedures reassign `a` on one arm only, so SSA puts the merge copy
# `a__k := a` on the other arm. In `f` it copies the parameter's value, which
# no statement assigned; in `main` it copies a value that `f`'s own `a` has
# since overwritten by name.
REASSIGNED_ON_ONE_ARM = """
procedure f(a) {
  L0: goto L1, L2;
  L1: a := Null; a := new(2); goto L2;
  L2: assert (a != Null); return;
}
procedure main() {
  var a;
  L0: a := new(1); call f(a); goto L1, L2;
  L1: a := Null; a := new(3); goto L2;
  L2: assert (a != Null); return;
}
"""


def test_merge_copy_of_unchanged_value_is_a_reassign():
    program = parse_ok(REASSIGNED_ON_ONE_ARM)
    ssa = to_ssa(lift_loops(program))
    before = enumerate_traces(program, 32)
    after = enumerate_traces(ssa, 32)
    assert any(ev[0] == "reassign" for t in after for ev in t)
    assert traces_equivalent(before, after)
    assert traces_equivalent(before, enumerate_traces(do_gvn(ssa), 32))


def test_equivalence_reflexive(bundled):
    for program in bundled.values():
        t = enumerate_traces(program, 48)
        assert traces_equivalent(t, t)


def test_equivalence_detects_deleted_assert(bundled):
    program = bundled["assert_chain"]
    mutated = parse_ok(
        """
        procedure main() {
          var x; var y;
          L0: goto LA, LB;
          LA: x := new(1); goto L1;
          LB: x := Null; goto L1;
          L1: y := x; assert (y != Null); return;
        }
        """
    )
    a = enumerate_traces(program, 64)
    b = enumerate_traces(mutated, 64)
    assert not traces_equivalent(a, b)


def test_transformed_equivalence(bundled):
    program = bundled["chained_field_equiv"]
    out = do_gvn(to_ssa(lift_loops(program)))
    assert traces_equivalent(enumerate_traces(program, 64), enumerate_traces(out, 64))


# -- trace comparison against the quadratic reference ------------------------------


def _compatible(x: tuple, y: tuple) -> bool:
    """Reference match of two projected traces: equal when both are
    complete, otherwise one body a prefix of the other, where only a
    truncated trace's body may be the shorter one."""
    xt = bool(x) and x[-1] == ("truncated",)
    yt = bool(y) and y[-1] == ("truncated",)
    if not xt and not yt:
        return x == y
    xe = x[:-1] if xt else x
    ye = y[:-1] if yt else y
    if xt and not yt:
        return xe == ye[: len(xe)]
    if yt and not xt:
        return ye == xe[: len(ye)]
    return xe == ye[: len(xe)] or ye == xe[: len(ye)]


def reference_traces_diff(a, b):
    """traces_diff by trying every left-only trace against every trace of
    the other side."""
    pa = {project_trace(t) for t in a}
    pb = {project_trace(t) for t in b}
    for side, extra, other in (("left", pa - pb, pb), ("right", pb - pa, pa)):
        unmatched = [x for x in extra if not any(_compatible(x, y) for y in other)]
        if unmatched:
            return f"trace only on the {side} side:\n  {min(unmatched, key=repr)}"
    return None


TRUNC = ("truncated",)
E1 = ("assign", "x", ("loc", 1, 1))
E2 = ("assign", "x", "null")
E3 = ("assert_pass",)
RET = ("return", ("null",))


@st.composite
def trace_set_pair(draw):
    """Two sets of projected-shaped traces cut from a few shared bodies, so
    that empty traces, a bare truncation marker and prefixes in both
    directions all come up."""
    bodies = draw(st.lists(
        st.lists(st.sampled_from([E1, E2, E3, RET]), max_size=5).map(tuple),
        min_size=1, max_size=4,
    ))
    one = st.builds(
        lambda body, cut, truncated: body[:cut] + ((TRUNC,) if truncated else ()),
        st.sampled_from(bodies), st.integers(0, 5), st.booleans(),
    )
    return draw(st.lists(one, max_size=6)), draw(st.lists(one, max_size=6))


@settings(max_examples=300, deadline=None)
@given(pair=trace_set_pair())
def test_traces_diff_matches_reference(pair):
    a, b = pair
    assert traces_diff(a, b) == reference_traces_diff(a, b)
    assert traces_diff(b, a) == reference_traces_diff(b, a)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # a complete empty trace against a truncated empty body
        ([()], [(TRUNC,)], None),
        # a truncated trace matched only by a longer complete trace
        ([(E1, TRUNC), (E1, E2, RET)], [(E1, E2, RET)], None),
        # a complete trace matched only by a shorter truncated one
        ([(E1, E2, RET)], [(E1, TRUNC)], None),
        # a complete trace that is a strict prefix of another complete one
        ([(E1,), (E1, E2)], [(E1, E2)], f"trace only on the left side:\n  {(E1,)}"),
        # a truncated trace with nothing on the other side
        ([(TRUNC,)], [], f"trace only on the left side:\n  {(TRUNC,)}"),
    ],
    ids=["empty-vs-truncated-empty", "truncated-by-longer-complete",
         "complete-by-shorter-truncated", "complete-strict-prefix", "truncated-vs-nothing"],
)
def test_traces_diff_directed(a, b, expected):
    assert traces_diff(a, b) == expected == reference_traces_diff(a, b)


GENERATED = dict(max_blocks=8, max_stmts=3, loop_prob=0.4)


@settings(max_examples=100, deadline=None)
@given(
    seeds=st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
    depths=st.tuples(st.integers(2, 32), st.integers(2, 32)),
)
def test_traces_results_on_generated_programs(seeds, depths):
    """A run's projected automaton compares like its traces as plain tuples and
    like the reference: against the program's ssa+gvn version, the program
    cut at another depth, and another program (these two mostly not
    equivalent). A run's counts are those of its traces."""
    program, other = (generate(GeneratorConfig(seed=s, **GENERATED)) for s in seeds)
    depth, depth2 = depths
    a = enumerate_traces(program, depth)
    for b in (
        enumerate_traces(do_gvn(to_ssa(lift_loops(program))), depth),
        enumerate_traces(program, depth2),
        enumerate_traces(other, depth),
    ):
        for x, y in ((a, b), (b, a)):
            assert traces_diff(x, y) == traces_diff(tuple(x), tuple(y)) == reference_traces_diff(x, y)
        for t in (a, b):
            assert t.truncated == sum(map(is_truncated, t))
            assert len(t) == len(set(t))


RAW_EVENTS = [
    ("assign", "x", ("loc", 1, 1)),
    ("assign", "x__2", ("loc", 1, 1)),
    ("assign", "x__3", "null"),
    ("assign", "gvnTmp__gvn1", ("loc", 1, 1)),
    ("reassign", "x__2", "null"),
    ("reassign", "gvnTmp__gvn1", ("loc", 1, 1)),
    ("unassigned", ("main", "L0", 1), "y__2"),
    ("unassigned", ("main", "L1", 0), "y"),
    ("assert_pass", ("main", "L0", 2)),
    ("assert_pass", ("main", "L1", 2)),
    ("return", ("null",)),
]


@settings(max_examples=300, deadline=None)
@given(traces=st.lists(st.builds(
    lambda body, truncated: tuple(body) + ((TRUNC,) if truncated else ()),
    st.lists(st.sampled_from(RAW_EVENTS), max_size=6), st.booleans(),
), max_size=8))
def test_projection_of_an_automaton_lists_the_projected_traces(traces):
    """Raw traces read into an automaton and projected into another list
    exactly the projected traces, each once: tagged temporaries and
    `reassign` events vanish, SSA versions and locations collapse, and
    a truncated trace keeps its marker."""
    raw, root = _read(traces)
    out = Automaton()
    projected = Traces(out, out.project(raw, root))
    expected = {project_trace(t) for t in traces}
    assert len(projected) == len(expected) and set(projected) == expected
    assert projected.truncated == sum(map(is_truncated, expected))


# -- soundness oracle --------------------------------------------------------------


def test_soundness_clean_on_corpus(bundled):
    for name, program in bundled.items():
        out = do_gvn(to_ssa(lift_loops(program)))
        sol = solve_worklist(generate_constraints(out))
        assert check_solution_soundness(out, sol, 32) == [], name


def test_soundness_flags_each_disabled_rule():
    cases = {
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
    for rule, src in cases.items():
        program = parse_ok(src)
        broken = solve_worklist(generate_constraints(program, disable_rule=rule))
        assert check_solution_soundness(program, broken, 32), rule
        intact = solve_worklist(generate_constraints(program))
        assert check_solution_soundness(program, intact, 32) == [], rule


@pytest.mark.parametrize(
    "rule, body, expected",
    [
        ("alloc", "var x; L0: x := new(1);", [("missing_site", "main::x", 1)]),
        ("null", "var a; var b; L0: a := new(1); b := Null; a.f := b;",
         [("missing_null", "main::b"), ("missing_null_field", 1, "f")]),
        ("copy", "var x; var y; L0: x := new(1); y := x;", [("missing_site", "main::y", 1)]),
        ("load", "var a; var b; var c; L0: a := new(1); b := new(2); a.f := b; c := a.f;",
         [("missing_site", "main::c", 2)]),
        ("store", "var a; var b; L0: a := new(1); b := new(2); a.f := b;",
         [("missing_field_site", 1, "f", 2)]),
        (None, "var gvnTmp__gvn1; L0: gvnTmp__gvn1 := Null;",
         [("tagged_null", "main::gvnTmp__gvn1")]),
    ],
)
def test_soundness_violation_details(rule, body, expected):
    """Each kind of miss, trace aside, read from single bits of the solution."""
    program = parse_ok(f"procedure main() {{ {body} return; }}")
    sol = solve_worklist(generate_constraints(program, disable_rule=rule))
    assert [v[:-1] for v in check_solution_soundness(program, sol, 32)] == expected


def test_empty_program_sound():
    program = parse_ok("procedure main() { L1: return; }")
    sol = solve_worklist(generate_constraints(program))
    assert check_solution_soundness(program, sol, 32) == []


# -- same-term-same-value oracle ----------------------------------------------------


def test_term_consistency_on_corpus(bundled):
    for name, program in bundled.items():
        out, recording = do_gvn(to_ssa(lift_loops(program)), instrument=True)
        assert check_term_consistency(out, recording, 48) == [], name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 3000))
def test_term_consistency_generated(seed):
    program = generate(GeneratorConfig(seed=seed))
    out, recording = do_gvn(to_ssa(lift_loops(program)), instrument=True)
    assert check_term_consistency(out, recording, 32) == []


def test_term_check_catches_planted_lie(bundled):
    """Give two unrelated variables the same term and the replay notices."""
    program = bundled["reassign_null_after_check"]
    ssa = to_ssa(program)
    fake = {("main", "L1", 0): [(Path("x"), 1)], ("main", "L1", 3): [(Path("x__2"), 1)]}
    # x holds a location where the recording claims term 1, x__2 holds Null
    out = ssa
    violations = check_term_consistency(out, fake, 32)
    assert not violations  # both records precede the statements, x__2 unset at idx 3

    fake = {
        ("main", "L1", 1): [(Path("x"), 1)],
        ("main", "L1", 3): [(Path("y"), 1)],
    }
    violations = check_term_consistency(out, fake, 32)
    assert violations


def test_term_check_is_per_activation(bundled):
    """Each activation of a lifted loop evaluates its head afresh: a term
    recorded once at the head may hold another value in each recursive
    activation, but two of its occurrences within one activation must
    agree. A caller's activation outlives the calls it makes."""
    lifted = to_ssa(lift_loops(bundled["loop_self"]))
    head = ("loop_L1", "L1", 0)  # x on entry: a, then b, then a, ...
    assert check_term_consistency(lifted, {head: [(Path("x"), 1)]}, 32) == []
    within = {head: [(Path("x"), 1)], ("loop_L1", "exit", 0): [(Path("x"), 1)]}
    assert {v[:3] for v in check_term_consistency(lifted, within, 32)} == {
        (1, ("loop_L1", "exit", 0), "x")
    }
    across_call = {("main", "L0", 4): [(Path("a"), 2)], ("main", "L2", 0): [(Path("b"), 2)]}
    assert {v[:3] for v in check_term_consistency(lifted, across_call, 32)} == {
        (2, ("main", "L2", 0), "b")
    }
