import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from nullgvn.corpus import bundled_sources
from nullgvn.interp import (
    check_solution_soundness,
    enumerate_traces,
    is_truncated,
    traces_diff,
)
from nullgvn.ir import (
    Alloc,
    Assert,
    Assign,
    Assume,
    Block,
    Diagnostic,
    Goto,
    Node,
    NullCheck,
    Path,
    Procedure,
    Program,
    Return,
    cfg_is_acyclic,
    is_reserved_name,
    is_tagged,
    make_version,
    original_name,
    postorder,
    tag_index,
    validate,
)
from nullgvn.normalize import CycleError, topo_sort
from nullgvn.parse import parse_program
from nullgvn.pipeline import transform_program
from nullgvn.solver import generate_constraints, solve_worklist

from conftest import parse_ok


def test_tagged_naming():
    assert is_tagged("gvnTmp__gvn1")
    assert is_tagged("gvnTmp__gvn12")
    assert not is_tagged("gvnTmp")
    assert not is_tagged("x__2")
    assert original_name("x__2") == "x"
    assert original_name("x") == "x"
    assert original_name("gvnTmp__gvn1") == "gvnTmp__gvn1"
    assert original_name(make_version("x", 3)) == "x"
    assert tag_index("gvnTmp__gvn12") == 12
    assert tag_index("x__2") is None
    assert is_reserved_name("a__b")
    assert not any(map(is_reserved_name, ["x", "x__2", "gvnTmp__gvn1"]))


def walk(node):
    """Every IR node under `node`, itself included, and every string field
    value, as ("node", obj) and ("str", obj) pairs."""
    yield "node", node
    for name in node.__slots__:
        value = getattr(node, name)
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, Node):
                yield from walk(item)
            elif isinstance(item, str):
                yield "str", item


def test_ir_nodes_have_no_instance_dict(bundled):
    """Every IR class is slotted: no node carries a per-instance `__dict__`,
    before or after the transforms."""
    classes = set()
    for name, program in bundled.items():
        for level in ("none", "ssa+gvn"):
            out, _ = transform_program(program, level)
            for kind, obj in walk(out):
                if kind == "node":
                    assert not hasattr(obj, "__dict__"), (name, level, obj)
                    classes.add(type(obj).__name__)
    assert classes == {"Program", "Procedure", "Block", "Assign", "Alloc", "AssignNull",
                       "Store", "Assume", "Assert", "Call", "Goto", "Return", "Path",
                       "NullCheck", "Opaque"}
    diag = Diagnostic("error", "bad", where="procedure p")
    assert not hasattr(diag, "__dict__")
    moved = diag.replace(file="f.ir", line=3, col=4)
    assert str(moved) == "f.ir:3:4: error: bad"
    assert diag == Diagnostic("error", "bad", where="procedure p")


def test_node_equality_and_hash():
    """Nodes are equal when their class and fields are; equal nodes hash equal."""
    cond = NullCheck(Path("x"), True)
    assert Assume(cond) != Assert(cond)
    assert Path("x") == Path("x", ()) and Path("x") != Path("x", ("f",))
    assert Path("x") != "x"
    pairs = [
        (Path("x"), Path(base="x", fields=())),
        (Assign("y", Path("x", ("f",))), Assign(rhs=Path("x", ("f",)), lhs="y")),
        (Assert(cond), Assert(NullCheck(Path("x"), True))),
        (Diagnostic("error", "bad"), Diagnostic("error", "bad", "", 0, 0, "")),
        (Return(), Return()),
    ]
    for a, b in pairs:
        assert a == b and a is not b and hash(a) == hash(b)
    assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)


def test_frozen_nodes_refuse_assignment():
    path = Path("x")
    with pytest.raises(AttributeError):
        path.base = "y"
    with pytest.raises(AttributeError):
        del path.fields
    with pytest.raises(AttributeError):
        path.extra = 1
    assert path == Path("x")


def test_program_is_mutable_and_unhashable(bundled):
    program = bundled["guarded_copy"].clone()
    with pytest.raises(TypeError):
        hash(program)
    with pytest.raises(TypeError):
        hash(program.procedures[0].blocks[0])
    program.entry = "elsewhere"
    program.procedures[0].name = "renamed"
    assert (program.entry, program.procedures[0].name) == ("elsewhere", "renamed")
    assert program != bundled["guarded_copy"]


def test_deepcopy_and_pickle_round_trip(bundled):
    for name, program in bundled.items():
        for copied in (copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
            assert copied == program and copied is not program, name
            assert copied.procedures[0].blocks is not program.procedures[0].blocks, name


def test_node_repr():
    assert repr(Path("x")) == "Path(base='x', fields=())"
    assert (repr(Assign("y", Path("x", ("f",))))
            == "Assign(lhs='y', rhs=Path(base='x', fields=('f',)))")
    assert (repr(Diagnostic("error", "bad", where="procedure p"))
            == "Diagnostic(severity='error', message='bad', file='', line=0, col=0, "
               "where='procedure p')")


def test_diagnostic_keyword_construction():
    diag = Diagnostic(severity="error", message="bad", where="procedure p")
    assert diag == Diagnostic("error", "bad", "", 0, 0, "procedure p")
    assert str(diag) == "procedure p: error: bad"
    assert str(diag.replace(where="")) == "error: bad"


def test_clone_shares_statements_in_fresh_containers(bundled):
    for name, program in bundled.items():
        clone = program.clone()
        assert clone == program, name
        for p, q in zip(program.procedures, clone.procedures):
            assert p is not q and p.blocks is not q.blocks
            for a, b in zip(p.blocks, q.blocks):
                assert a is not b and a.stmts is not b.stmts
                assert all(s is t for s, t in zip(a.stmts, b.stmts))
                assert a.transfer is b.transfer


def test_parsed_names_are_shared():
    """The scanner shares equal words: in a parsed program equal identifiers
    are one object, however often the source repeats them."""
    for name, src in bundled_sources().items():
        names = [obj for kind, obj in walk(parse_ok(src)) if kind == "str"]
        assert len(names) > len(set(names)), name
        assert len({id(s) for s in names}) == len(set(names)), name


def test_scope_vars_first_occurrence_order():
    proc = Procedure("p", ["a", "b", "a"], ["r", "b", "s"], ["c", "a", "r", "c"],
                     [Block("L1", [], Return())], "L1")
    assert proc.scope_vars() == ["a", "b", "c", "r", "s"]


def test_validate_clean_program(bundled):
    for name, program in bundled.items():
        assert validate(program) == [], name


def test_validate_goto_undeclared_label():
    src = """
    procedure main() {
      var x;
      L1:
        x := new(1);
        goto L9;
    }
    """
    diags = parse_program(src)
    assert isinstance(diags, list)
    assert any("L9" in d.message for d in diags)


def test_validate_duplicate_site():
    prog = Program(
        globals=[],
        procedures=[
            Procedure(
                "main",
                [],
                [],
                ["x", "y"],
                [Block("L1", [Alloc("x", 3), Alloc("y", 3)], Return())],
                "L1",
            )
        ],
        entry="main",
    )
    diags = validate(prog)
    assert len(diags) == 1
    assert "3" in diags[0].message


def test_validate_call_arity():
    src = """
    procedure f(a) returns (r) { L1: r := a; return; }
    procedure main() { var x; L1: x := new(1); x := call f(x, x); return; }
    """
    diags = parse_program(src)
    assert isinstance(diags, list)
    assert any("args" in d.message for d in diags)


def test_validate_tagged_single_assignment():
    prog = Program(
        globals=[],
        procedures=[
            Procedure(
                "main",
                [],
                [],
                ["x", "gvnTmp__gvn1"],
                [
                    Block(
                        "L1",
                        [
                            Alloc("x", 1),
                            Assign("gvnTmp__gvn1", Path("x")),
                            Assign("gvnTmp__gvn1", Path("x")),
                        ],
                        Return(),
                    )
                ],
                "L1",
            )
        ],
        entry="main",
    )
    diags = validate(prog)
    assert any("gvnTmp__gvn1" in d.message for d in diags)


MAIN = "procedure main() { L0: return; }"


def _main(blocks, entry_block="L0", name="main"):
    """A program of one parameterless procedure, for cases the parser rules out."""
    return Program([], [Procedure(name, [], [], [], blocks, entry_block)], "main")


@pytest.mark.parametrize(
    "program, message",
    [
        (MAIN + MAIN, "error: duplicate procedure name 'main'"),
        ("procedure main(a) { L0: return; }",
         "error: entry procedure 'main' must take no parameters"),
        (MAIN + "procedure f(a) { var a; L0: return; }",
         "procedure f: error: params and locals overlap: ['a']"),
        ("var g; procedure main() { var g; L0: return; }",
         "procedure main: error: globals shadowed by procedure-scope names: ['g']"),
        (MAIN + "procedure f() returns (r, r) { L0: return; }",
         "procedure f: error: duplicate names in returns list"),
        ("var g;" + MAIN + "procedure f() returns (g) { L0: return; }",
         "procedure f: error: returns may not name globals: ['g']"),
        ("procedure main() { L0: goto L0; L0: return; }",
         "procedure main: error: duplicate block labels: ['L0']"),
        ("procedure f() { L0: return; } procedure main() { var x; L0: x := call f(); return; }",
         "procedure main, block L0, stmt 0: error: call to 'f' binds 1 outputs, callee returns 0"),
        (_main([Block("L0", [], Return())], name="f"),
         "error: entry procedure 'main' is not defined"),
        (_main([Block("L0", [], Goto(("L1",))), Block("L1", [], Return())], "L1"),
         "procedure main: error: entry block must be the first block"),
        (_main([Block("L0", [], Return())], "L9"),
         "procedure main: error: entry block 'L9' is not a declared label"),
        (_main([Block("L0", [], Goto(()))]), "procedure main, block L0: error: goto with no targets"),
        (_main([]), "procedure main: error: procedure has no blocks"),
    ],
    ids=["duplicate-procedure", "entry-params", "params-locals-overlap", "shadowed-global",
         "duplicate-returns", "returns-global", "duplicate-labels", "call-outputs",
         "no-entry-procedure", "entry-block-not-first", "entry-block-undeclared",
         "goto-no-targets", "no-blocks"],
)
def test_validate_messages(program, message):
    """Each structural rule's message, from source text through the parser
    or, where the parser rules the case out, from IR classes."""
    diags = parse_program(program) if isinstance(program, str) else validate(program)
    assert [str(d) for d in diags] == [message]


def test_cfg_acyclic_chain(bundled):
    f = bundled["basic_interproc"].procedures[0]
    assert cfg_is_acyclic(f)


def test_cfg_self_loop():
    p = parse_ok("procedure main() { L1: goto L1; }")
    assert not cfg_is_acyclic(p.procedures[0])


def test_cfg_diamond():
    p = parse_ok(
        """
        procedure main() {
          L1: goto L2, L3;
          L2: goto L4;
          L3: goto L4;
          L4: return;
        }
        """
    )
    assert cfg_is_acyclic(p.procedures[0])


def reference_postorder(succ, roots):
    """Recursive depth-first post-order, the textbook definition."""
    post, seen = [], set()

    def visit(node):
        seen.add(node)
        for nxt in succ[node]:
            if nxt not in seen:
                visit(nxt)
        post.append(node)

    for root in roots:
        if root not in seen:
            visit(root)
    return post


@st.composite
def digraph(draw):
    """Successor lists over up to 12 nodes, with self-loops and duplicate
    targets, plus a shuffled list of roots that may repeat."""
    n = draw(st.integers(1, 12))
    succ = {f"B{i}": draw(st.lists(st.sampled_from([f"B{j}" for j in range(n)]), max_size=4))
            for i in range(n)}
    roots = draw(st.permutations(list(succ)))
    roots = roots[: draw(st.integers(0, n))] + draw(st.lists(st.sampled_from(list(succ)), max_size=3))
    return succ, roots


@settings(max_examples=300, deadline=None)
@given(graph=digraph())
def test_postorder_matches_recursive_dfs(graph):
    succ, roots = graph
    assert postorder(succ, roots) == reference_postorder(succ, roots)


@settings(max_examples=300, deadline=None)
@given(graph=digraph())
def test_cfg_is_acyclic_iff_topo_sort_succeeds(graph):
    succ, _ = graph
    blocks = [Block(label, [], Goto(tuple(targets)) if targets else Return())
              for label, targets in succ.items()]
    proc = Procedure("main", [], [], [], blocks, blocks[0].label)
    try:
        topo_sort(proc)
    except CycleError:
        assert not cfg_is_acyclic(proc)
    else:
        assert cfg_is_acyclic(proc)


def test_postorder_long_chain_needs_no_recursion():
    n = 20_000
    succ = {i: [i + 1] for i in range(n)} | {n: []}
    assert postorder(succ, [0]) == list(range(n, -1, -1))


def test_deep_loop_oracle_needs_no_recursion():
    """10,000 steps of an allocation loop that forks on every iteration: the
    exploration, the automaton unions and walks and the hook replays are all
    iterative."""
    program = parse_ok("procedure main() { var x; L0: x := new(1); assume *; goto L0; }")
    transformed, _ = transform_program(program, "ssa+gvn")
    depth = 10_000
    a, b = enumerate_traces(program, depth), enumerate_traces(transformed, depth)
    assert traces_diff(a, b) is None and traces_diff(b, a) is None
    deepest = next(iter(a))  # walk order takes the first choice, which never stops
    assert is_truncated(deepest) and len(deepest) > depth // 4
    broken = solve_worklist(generate_constraints(program, disable_rule="alloc"))
    assert check_solution_soundness(program, broken, depth)
