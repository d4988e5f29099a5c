import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from nullgvn.corpus import GeneratorConfig, generate
from nullgvn.gvn import do_gvn
from nullgvn.ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Block,
    NullCheck,
    Path,
    Procedure,
    Program,
    Return,
    Store,
    NULL_SITE,
    is_tagged,
)
from nullgvn.normalize import lift_loops, to_ssa
from nullgvn.pipeline import TRANSFORM_LEVELS, transform_program
from nullgvn.solver import (
    NULL_BIT,
    RULES,
    SAFE,
    UNPROVED,
    Constraints,
    classify_assertions,
    eval_abstract,
    generate_constraints,
    solve_naive,
    solve_null,
    solve_worklist,
    var_key,
)

from conftest import parse_ok


def full(program):
    return do_gvn(to_ssa(lift_loops(program)))


def keyed(cons):
    """The graph's constraints with every node id mapped back to its key;
    tagged keys in id order."""
    key = {n: k for k, n in cons.ids.items()}
    return SimpleNamespace(
        base=[(key[n], site) for n, site in cons.base],
        copies=[(key[s], key[d]) for s, d in cons.copies],
        loads=[(key[b], f, key[x]) for b, f, x in cons.loads],
        stores=[(key[b], f, key[x]) for b, f, x in cons.stores],
        tagged=[key[n] for n in sorted(cons.tagged)],
    )


# -- constraint generation -------------------------------------------------------


def test_alloc_constraint():
    program = parse_ok("procedure main() { var x; L1: x := new(1); return; }")
    cons = keyed(generate_constraints(program))
    assert ("main::x", 1) in cons.base


def test_null_constraint():
    program = parse_ok("procedure main() { var x; L1: x := Null; return; }")
    cons = keyed(generate_constraints(program))
    assert ("main::x", NULL_SITE) in cons.base


def test_call_copies_params_and_returns():
    program = parse_ok(
        """
        procedure f(y) returns (u) { L1: u := y; return; }
        procedure main() { var a; var b; L1: a := new(1); b := call f(a); return; }
        """
    )
    cons = keyed(generate_constraints(program))
    assert ("main::a", "f::y") in cons.copies
    assert ("f::u", "main::b") in cons.copies


def test_access_path_decomposition():
    program = parse_ok(
        "procedure main() { var x; var y; L1: y := new(1); x := y.f.g; return; }"
    )
    cons = keyed(generate_constraints(program))
    assert ("main::y", "f", "$1") in cons.loads
    assert ("$1", "g", "main::x") in cons.loads
    # every load target may observe an unwritten field, hence Null
    assert ("$1", NULL_SITE) in cons.base
    assert ("main::x", NULL_SITE) in cons.base


def test_globals_share_one_node():
    program = parse_ok(
        """
        var g;
        procedure f() { L1: g := new(1); return; }
        procedure main() { var x; L1: call f(); x := g; return; }
        """
    )
    cons = keyed(generate_constraints(program))
    assert ("g", 1) in cons.base
    assert ("g", "main::x") in cons.copies


# -- solving ----------------------------------------------------------------------


def test_empty_program_empty_solution():
    program = parse_ok("procedure main() { L1: return; }")
    sol = solve_naive(generate_constraints(program))
    assert sol.var_pt == {} and sol.field_pt == {}


def test_constraints_record_tagged_keys(bundled):
    recorded = 0
    for name, program in bundled.items():
        out = full(program)
        globals_ = set(out.globals)
        expected = {g for g in globals_ if is_tagged(g)} | {
            var_key(proc.name, v, globals_)
            for proc in out.procedures
            for v in proc.scope_vars()
            if is_tagged(v)
        }
        assert set(keyed(generate_constraints(out)).tagged) == expected, name
        recorded += len(expected)
    assert recorded
    program = parse_ok("var g__gvn1; procedure main() { L1: g__gvn1 := Null; return; }")
    assert keyed(generate_constraints(program)).tagged == ["g__gvn1"]


def test_tagged_filter_strips_null(bundled):
    out = full(bundled["guarded_copy"])
    sol = solve_naive(generate_constraints(out))
    tagged = [k for k in sol.var_pt if "__gvn" in k]
    assert tagged
    for key in tagged:
        assert NULL_SITE not in sol.pt(key)
    for name, program in bundled.items():
        cons = generate_constraints(full(program))
        for sol in (solve_worklist(cons), solve_naive(cons)):
            for key, sites in sol.var_pt.items():
                if is_tagged(key.rsplit("::", 1)[-1]):
                    assert NULL_SITE not in sites, (name, key)


def test_ssa_split_isolates_null(bundled):
    ssa = to_ssa(bundled["reassign_null_after_check"])
    sol = solve_naive(generate_constraints(ssa))
    assert sol.pt("main::x") == {1}
    assert sol.pt("main::x__2") == {NULL_SITE}
    report = classify_assertions(ssa, sol)
    assert [a.verdict for a in report.per_assert] == [SAFE]


def test_worklist_matches_naive_on_corpus(bundled):
    for name, program in bundled.items():
        cons = generate_constraints(full(program))
        assert solve_naive(cons) == solve_worklist(cons), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 5000))
def test_worklist_matches_naive_generated(seed):
    cons = generate_constraints(full(generate(GeneratorConfig(seed=seed))))
    assert solve_naive(cons) == solve_worklist(cons)


@st.composite
def hand_built_keys(draw):
    """Small string-keyed constraint sets, as keyword arguments of
    `Constraints.build`, that the generator would not write: 2-6 var keys
    with a random tagged subset, 1-4 sites plus Null (small or sparse ids up
    to 10**12), 1-2 fields, a copy cycle among random copies, and a load and
    a store on one shared base."""
    keys = [f"v{i}" for i in range(draw(st.integers(2, 6)))]
    site_id = st.one_of(st.integers(1, 8), st.integers(1, 10**12))
    sites = [NULL_SITE, *sorted(draw(st.sets(site_id, min_size=1, max_size=4)))]
    fields = ["f", "g"][: draw(st.integers(1, 2))]
    key, site, fname = st.sampled_from(keys), st.sampled_from(sites), st.sampled_from(fields)
    cycle = draw(st.lists(key, min_size=2, max_size=4))
    shared = draw(key)
    return dict(
        base=draw(st.lists(st.tuples(key, site), min_size=1, max_size=8)),
        copies=list(zip(cycle, cycle[1:] + cycle[:1]))
        + draw(st.lists(st.tuples(key, key), max_size=8)),
        loads=[(shared, draw(fname), draw(key))]
        + draw(st.lists(st.tuples(key, fname, key), max_size=4)),
        stores=[(shared, draw(fname), draw(key))]
        + draw(st.lists(st.tuples(key, fname, key), max_size=4)),
        tagged=draw(st.lists(key, unique=True)),
    )


hand_built_constraints = hand_built_keys().map(lambda keys: Constraints.build(**keys))


@settings(max_examples=300, deadline=None)
@given(cons=hand_built_constraints)
def test_worklist_matches_naive_hand_built(cons):
    assert solve_worklist(cons) == solve_naive(cons)


@st.composite
def copy_forest_keys(draw):
    """String-keyed constraint sets, as keyword arguments of
    `Constraints.build`, where most keys have one incoming copy and nothing
    else: 4-16 var keys, 1-3 of them roots with a base fact each, every
    other key copied from one of the three keys before it (long single-copy
    chains that branch), in a random edge order; plus up to 3 extra copies
    (which may close a cycle or give a key a second input), and up to 2
    self copies, 2 more base facts, 3 loads and 3 stores, and a random
    tagged subset. Sites are 1-3 plus Null."""
    n = draw(st.integers(4, 16))
    keys = [f"v{i}" for i in range(n)]
    roots = draw(st.integers(1, 3))
    key, site = st.sampled_from(keys), st.sampled_from([NULL_SITE, 1, 2, 3])
    fname = st.sampled_from(["f", "g"])
    forest = [(keys[draw(st.integers(max(0, i - 3), i - 1))], keys[i]) for i in range(roots, n)]
    return dict(
        base=[(k, draw(site)) for k in keys[:roots]]
        + draw(st.lists(st.tuples(key, site), max_size=2)),
        copies=draw(st.permutations(forest))
        + draw(st.lists(st.tuples(key, key), max_size=3))
        + [(k, k) for k in draw(st.lists(key, max_size=2))],
        loads=draw(st.lists(st.tuples(key, fname, key), max_size=3)),
        stores=draw(st.lists(st.tuples(key, fname, key), max_size=3)),
        tagged=draw(st.lists(key, unique=True, max_size=n // 2)),
    )


@settings(max_examples=300, deadline=None)
@given(keys=copy_forest_keys())
def test_worklist_matches_naive_copy_forest(keys):
    cons = Constraints.build(**keys)
    assert solve_worklist(cons) == solve_naive(cons)


def test_tagged_node_in_null_copy_cycle():
    """Null enters a copy cycle a -> t -> b -> a at a; the tagged t stops it,
    so b only sees what passes through t, and a keeps its own Null."""
    cons = Constraints.build(
        base=[("a", NULL_SITE), ("a", 1), ("s", 2)],
        copies=[("a", "t"), ("t", "b"), ("b", "a")],
        loads=[("b", "f", "x")],
        stores=[("t", "f", "s")],
        tagged=["t"],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("a") == {NULL_SITE, 1}
    assert sol.pt("t") == sol.pt("b") == {1}
    assert sol.pt_field(1, "f") == {2} and sol.pt("x") == {2}


def test_tagged_node_in_store_load_cycle():
    """A store -> cell -> load cycle through a tagged key: t is stored into
    a.f, x loads a.f and copies on through y into t. The cycle collapses,
    yet Null stays per node: x holds its own, y receives it, and the
    tagged t and the cell t writes hold none."""
    cons = Constraints.build(
        base=[("a", 1), ("t", 2), ("x", NULL_SITE)],
        copies=[("x", "y"), ("y", "t")],
        loads=[("a", "f", "x")],
        stores=[("a", "f", "t")],
        tagged=["t"],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("x") == sol.pt("y") == {NULL_SITE, 2}
    assert sol.pt("t") == sol.pt_field(1, "f") == {2}


def test_null_only_base_writes_no_cell_and_loads_only_null():
    """Null has no fields. p gains Null late, through r.g := z (z Null) and
    p := r.g, and q holds Null from the start; neither holds another site.
    So p.f := s writes no cell, and y := q.f leaves y exactly the Null of
    its own base fact (an unwritten field reads as Null), although y copies
    on into s, the source of p.f := s."""
    cons = Constraints.build(
        base=[("r", 1), ("z", NULL_SITE), ("s", 3), ("q", NULL_SITE), ("y", NULL_SITE)],
        copies=[("y", "s")],
        loads=[("r", "g", "p"), ("q", "f", "y")],
        stores=[("r", "g", "z"), ("p", "f", "s")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.field_pt == {(1, "g"): {NULL_SITE}}
    assert sol.pt("p") == sol.pt("q") == sol.pt("y") == {NULL_SITE}
    assert sol.pt("s") == {NULL_SITE, 3}


def test_shared_store_hub_writes_every_cell():
    """Two bases store into field h: v0, which holds site 1 and gets site 2
    over a copy from v3, and v2, which gets both sites only through
    v2 := v0.f (v0 stores itself into its f cells). v2.h := v0 must reach
    the (1, h) cell too."""
    cons = Constraints.build(
        base=[("v0", 1), ("v3", 2)],
        copies=[("v3", "v0")],
        loads=[("v0", "f", "v2")],
        stores=[("v0", "f", "v0"), ("v0", "h", "v1"), ("v2", "h", "v0")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("v2") == sol.pt_field(1, "h") == {1, 2}


def test_null_cell_reaches_load_through_multi_site_hub():
    """q.f := z stores Null and site 3 into the (1, f) cell. p holds {1, 2}
    from the start, so x := p.f reads that cell as one of two: it must
    receive the cell's Null as well as its sites."""
    cons = Constraints.build(
        base=[("p", 1), ("p", 2), ("q", 1), ("z", NULL_SITE), ("y", 3)],
        loads=[("p", "f", "x")],
        stores=[("q", "f", "z"), ("q", "f", "y")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt_field(1, "f") == sol.pt("x") == {NULL_SITE, 3}


def test_grown_load_hub_passes_prior_sites_to_shared_load():
    """r.f := z writes {1, 2} into the (1, f) cell. p holds {1}, so
    p := p.f first reads that cell alone; then p grows to {1, 2} through
    its own load and reads the (2, f) cell as well. q := r.f gains {1, 2}
    at once, so x := q.f reads both cells from its first sites on, while
    p's base reached them one site at a time."""
    cons = Constraints.build(
        base=[("z", 1), ("z", 2), ("r", 1), ("p", 1)],
        loads=[("p", "f", "p"), ("r", "f", "q"), ("q", "f", "x")],
        stores=[("r", "f", "z")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("p") == sol.pt("q") == sol.pt("x") == {1, 2}


@st.composite
def shared_hub_keys(draw):
    """String-keyed constraint sets where loads and stores share base
    bitsets and cycles run through cells: 2-10 var keys with a random
    tagged subset, 1-5 sites plus Null, 3 fields, and up to 8 loads and 8
    stores over them."""
    keys = [f"v{i}" for i in range(draw(st.integers(2, 10)))]
    sites = [NULL_SITE, *range(1, draw(st.integers(1, 5)) + 1)]
    key, site = st.sampled_from(keys), st.sampled_from(sites)
    fname = st.sampled_from(["f", "g", "h"])
    return dict(
        base=draw(st.lists(st.tuples(key, site), min_size=1, max_size=12)),
        copies=draw(st.lists(st.tuples(key, key), max_size=12)),
        loads=draw(st.lists(st.tuples(key, fname, key), min_size=1, max_size=8)),
        stores=draw(st.lists(st.tuples(key, fname, key), min_size=1, max_size=8)),
        tagged=draw(st.lists(key, unique=True)),
    )


@settings(max_examples=300, deadline=None)
@given(keys=shared_hub_keys())
def test_worklist_matches_naive_shared_hubs(keys):
    cons = Constraints.build(**keys)
    assert solve_worklist(cons) == solve_naive(cons)


def test_worklist_matches_naive_on_second_ladder_rung():
    """The 2,599-statement rung of the benchmark ladder, at both levels."""
    program = generate(GeneratorConfig(seed=1, max_procs=60, max_blocks=40, max_stmts=15))
    for level in ("ssa", "ssa+gvn"):
        cons = generate_constraints(transform_program(program, level)[0])
        sols = solve_worklist(cons), solve_naive(cons)
        assert sols[0] == sols[1], level
        assert not any(site == NULL_SITE for sol in sols for site, _ in sol.field_pt), level


def test_huge_site_ids_stay_cheap():
    """Site ids are only required to be positive and unique, so they can be
    sparse and huge; the solver's bitsets must not grow with the id."""
    big, bigger = 10**12, 10**18 + 7
    cons = Constraints.build(
        base=[("a", big), ("s", bigger), ("b", NULL_SITE)],
        copies=[("a", "b")],
        loads=[("b", "f", "x")],
        stores=[("a", "f", "s")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("b") == {NULL_SITE, big}
    assert sol.pt_field(big, "f") == {bigger} and sol.pt("x") == {bigger}


def test_fan_in_chain_matches_naive():
    """20 allocated sources copy into one join, which feeds a 51-key copy
    chain. The keys are numbered join, chain, sources, so every source edge
    runs against the first-mention order. The whole chain ends with all 20
    sites, as in the naive solution, and no cell is made."""
    sources = [f"s{i}" for i in range(20)]
    chain = [f"c{i}" for i in range(51)]
    cons = Constraints.build(
        base=[(s, i + 1) for i, s in enumerate(sources)],
        copies=[*zip(["join", *chain], chain), *((s, "join") for s in sources)],
    )
    assert list(cons.ids)[:2] == ["join", "c0"] and cons.ids["s0"] == 52
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("c50") == set(range(1, 21))
    assert len(sol.pts) == 72


def test_successorless_base_is_routed_from_a_backward_chain():
    """A load and store base b with no copy out of it gets its sites from
    `a` through the copy chain a -> c2 -> c1 -> b, numbered c1, b, c2, a,
    so every copy of the chain runs against the first-mention order. Its
    load and store still reach the (1, f) cell once the sites arrive."""
    cons = Constraints.build(
        base=[("a", 1), ("a", NULL_SITE), ("y", 2)],
        copies=[("c1", "b"), ("c2", "c1"), ("a", "c2")],
        loads=[("b", "f", "x")],
        stores=[("b", "f", "y")],
    )
    assert list(cons.ids) == ["c1", "b", "c2", "a", "x", "y"]
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("a") == sol.pt("c2") == sol.pt("c1") == sol.pt("b") == {NULL_SITE, 1}
    assert sol.pt_field(1, "f") == {2}
    assert sol.pt("x") == sol.pt("y") == {2}


# -- single-copy nodes ---------------------------------------------------------------


def test_single_copy_cycle_with_no_other_input():
    """a -> b -> c -> a, and c -> x: every key's one input is a single
    copy, and nothing enters the cycle, so all four hold nothing. y's store
    reads a, and z loads the cell it writes, which stays empty."""
    cons = Constraints.build(
        base=[("y", 1)],
        copies=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "x")],
        loads=[("y", "f", "z")],
        stores=[("y", "f", "a")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.var_pt == {"y": {1}} and sol.field_pt == {}


def test_self_copy_keeps_its_own_class():
    """x := x is x's one copy in, from x itself, and y := x is y's. Both
    hold x's Null, and y's Null-only base makes no cell."""
    cons = Constraints.build(
        base=[("x", NULL_SITE), ("s", 2)],
        copies=[("x", "x"), ("x", "y")],
        loads=[("y", "f", "z")],
        stores=[("y", "f", "s")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.var_pt == {"x": {NULL_SITE}, "y": {NULL_SITE}, "s": {2}}
    assert sol.field_pt == {}


def test_tagged_single_copy_node_drops_null_alone():
    """t := s is the tagged t's one input. The tag strips Null from t
    alone: s keeps it, and u := t gets only the site. t, as a load base,
    reads the cell that s's store writes."""
    cons = Constraints.build(
        base=[("s", NULL_SITE), ("s", 1), ("y", 2)],
        copies=[("s", "t"), ("t", "u")],
        loads=[("t", "f", "x")],
        stores=[("s", "f", "y")],
        tagged=["t"],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("s") == {NULL_SITE, 1}
    assert sol.pt("t") == sol.pt("u") == {1}
    assert sol.pt_field(1, "f") == sol.pt("x") == {2}


def test_single_copy_node_with_null_base_fact():
    """n := s is n's one copy in, and n has a Null base fact of its own:
    n and m := n hold Null and s's site, while s holds no Null."""
    cons = Constraints.build(
        base=[("s", 1), ("n", NULL_SITE)],
        copies=[("s", "n"), ("n", "m")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.var_pt == {"s": {1}, "n": {NULL_SITE, 1}, "m": {NULL_SITE, 1}}


def test_merged_load_base_and_store_source():
    """b := a and w := v are the one inputs of the load and store base b
    and the store source w. b.f := w and x := b.f go through the cells of
    a's sites, which grow when c copies site 3 into a after a holds
    site 1."""
    cons = Constraints.build(
        base=[("a", 1), ("v", 2), ("c", 3)],
        copies=[("a", "b"), ("v", "w"), ("c", "a")],
        loads=[("b", "f", "x")],
        stores=[("b", "f", "w")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("a") == sol.pt("b") == {1, 3}
    assert sol.pt("w") == sol.pt("x") == {2}
    assert sol.field_pt == {(1, "f"): {2}, (3, "f"): {2}}


def test_copy_and_load_into_one_node_does_not_merge():
    """x := s and x := p.f: x has a load into it as well as its one copy,
    and the site the load brings stays out of s."""
    cons = Constraints.build(
        base=[("s", 1), ("p", 2), ("q", 3)],
        copies=[("s", "x")],
        loads=[("p", "f", "x")],
        stores=[("p", "f", "q")],
    )
    sol = solve_worklist(cons)
    assert sol == solve_naive(cons)
    assert sol.pt("s") == {1} and sol.pt("x") == {1, 3}


# -- the interned graph -------------------------------------------------------------


def first_mentions(copies, loads, stores, base, tagged):
    """Keys in the order copies, loads, stores, base and `tagged` first
    mention them: the numbering of `Constraints.build`."""
    return [
        *dict.fromkeys(
            [
                *(k for edge in copies for k in edge),
                *(k for b, _, x in (*loads, *stores) for k in (b, x)),
                *(k for k, _ in base),
                *tagged,
            ]
        )
    ]


def check_graph(cons):
    """Node ids are dense and distinct, numbered in first-mention order,
    and tagged nodes are nodes. Returns the graph's constraints keyed back
    to names (tagged keys in id order)."""
    assert list(cons.ids.values()) == list(range(len(cons.ids)))
    back = keyed(cons)
    assert list(cons.ids) == first_mentions(
        back.copies, back.loads, back.stores, back.base, back.tagged
    )
    assert cons.tagged <= set(range(len(cons.ids)))
    return back


@settings(max_examples=300, deadline=None)
@given(keys=hand_built_keys())
def test_graph_interns_hand_built_keys(keys):
    cons = Constraints.build(**keys)
    back = check_graph(cons)
    for kind in ("base", "copies", "loads", "stores"):
        assert getattr(back, kind) == keys[kind], kind
    assert sorted(back.tagged) == sorted(keys["tagged"])
    assert list(cons.ids) == first_mentions(
        keys["copies"], keys["loads"], keys["stores"], keys["base"], keys["tagged"]
    )


def test_graph_interns_corpus(bundled):
    """Every bundled program at every level, with each rule dropped and with
    none: the graph numbers its keys in first-mention order and rebuilds
    equal from its own keyed constraints."""
    for name, program in bundled.items():
        for level in TRANSFORM_LEVELS:
            out, _ = transform_program(program, level)
            for rule in (None, *RULES):
                cons = generate_constraints(out, disable_rule=rule)
                back = check_graph(cons)
                assert Constraints.build(**vars(back)) == cons, (name, level, rule)


def test_disabled_rule_drops_only_its_constraints(bundled):
    """With one rule dropped, the keyed constraints are the full graph's
    less exactly those the rule makes: its statements' constraints, and
    nothing of any other kind."""
    for name, program in bundled.items():
        for level in TRANSFORM_LEVELS:
            out, _ = transform_program(program, level)
            globals_ = set(out.globals)
            nulls = Counter(
                (var_key(proc.name, stmt.lhs, globals_), NULL_SITE)
                for proc in out.procedures
                for block in proc.blocks
                for stmt in block.stmts
                if isinstance(stmt, AssignNull)
            )
            full = vars(keyed(generate_constraints(out)))
            full["tagged"] = set(full["tagged"])  # keyed lists them in id order
            for rule in RULES:
                cut = vars(keyed(generate_constraints(out, disable_rule=rule)))
                cut["tagged"] = set(cut["tagged"])
                want = dict(full)
                if rule == "alloc":
                    want["base"] = [fact for fact in full["base"] if fact[1] == NULL_SITE]
                elif rule == "null":
                    assert Counter(cut["base"]) == Counter(full["base"]) - nulls
                    assert len(cut["base"]) == len(full["base"]) - nulls.total()
                    want["base"] = cut["base"]
                else:
                    want[{"copy": "copies", "load": "loads", "store": "stores"}[rule]] = []
                assert cut == want, (name, level, rule)


def test_constraint_generation_peak_stays_near_its_graph():
    """Constraint generation makes each var key once, so its transient
    string-keyed constraints stay small next to the graph it keeps: on the
    2.6k rung at `ssa+gvn` its tracemalloc peak is at most 1.4 times the
    memory the graph holds (1.62 times when every mention made its own key
    string)."""
    program = generate(GeneratorConfig(seed=1, max_procs=60, max_blocks=40, max_stmts=15))
    out, _ = transform_program(program, "ssa+gvn")
    tracemalloc.start()
    try:
        cons = generate_constraints(out)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cons.ids) > 2_000
    assert peak <= 1.4 * kept, (peak, kept)


def test_first_ladder_rung_counts():
    """The smallest rung of the benchmark ladder (555 statements), read
    through the attributes the benchmark reads: constraints per kind,
    worklist pops, non-empty points-to sets, their summed sizes, and the
    UNPROVED count. Pops count the worklist's pops (one per pending
    delta)."""
    program = generate(GeneratorConfig(seed=1, max_procs=20, max_blocks=20, max_stmts=10))
    expected = {
        "ssa": ((211, 182, 145, 22), 478, 292, 3_822, 113),
        "ssa+gvn": ((204, 590, 138, 22), 954, 616, 9_618, 26),
    }
    for level, want in expected.items():
        out, _ = transform_program(program, level)
        cons = generate_constraints(out)
        sol = solve_worklist(cons)
        sets = [s for s in (*sol.var_pt.values(), *sol.field_pt.values()) if s]
        report = classify_assertions(out, sol)
        assert report.total == 115, level
        got = (
            (len(cons.base), len(cons.copies), len(cons.loads), len(cons.stores)),
            sol.pops,
            len(sets),
            sum(map(len, sets)),
            report.unproved,
        )
        assert got == want, level


# -- classification ---------------------------------------------------------------


def test_classification_flip(bundled):
    program = bundled["chained_field_equiv"]
    ssa = to_ssa(lift_loops(program))
    sol = solve_worklist(generate_constraints(ssa))
    assert classify_assertions(ssa, sol).unproved == 1
    out = do_gvn(ssa)
    sol = solve_worklist(generate_constraints(out))
    assert classify_assertions(out, sol).unproved == 0


def test_null_assert_unproved():
    program = parse_ok(
        "procedure main() { var x; L1: x := Null; assert (x != Null); return; }"
    )
    sol = solve_worklist(generate_constraints(program))
    report = classify_assertions(program, sol)
    assert [a.verdict for a in report.per_assert] == [UNPROVED]


def test_opaque_assert_unproved():
    program = parse_ok("procedure main() { L1: assert *; return; }")
    sol = solve_worklist(generate_constraints(program))
    assert classify_assertions(program, sol).per_assert[0].verdict == UNPROVED


def test_report_json_schema():
    program = parse_ok(
        "procedure main() { var x; L1: x := new(1); assert (x != Null); return; }"
    )
    sol = solve_worklist(generate_constraints(program))
    report = classify_assertions(program, sol)
    report.timings_ms = {"parse": 0.1, "lift": 0.0, "ssa": 0.0, "gvn": 0.0,
                         "constraints": 0.1, "solve": 0.2, "classify": 0.1}
    data = report.to_json_dict()
    assert set(data) == {"asserts_total", "asserts_unproved", "per_assert", "timings_ms"}
    assert data["asserts_total"] == 1 and data["asserts_unproved"] == 0
    assert set(data["per_assert"][0]) == {"proc", "block", "index", "verdict"}
    assert set(data["timings_ms"]) == {
        "parse", "lift", "ssa", "gvn", "constraints", "solve", "classify"
    }


# -- performance smoke -------------------------------------------------------------


def copy_chain(n: int, segments: int) -> Program:
    """n copies declared in segment-reversed order: the naive solver needs
    about `segments` passes while the worklist propagates each edge once."""
    names = [f"c{i}" for i in range(n + 1)]
    stmts = [Alloc(names[0], 1)]
    copies = [Assign(names[i + 1], Path(names[i])) for i in range(n)]
    seg = max(1, n // segments)
    chunks = [copies[i : i + seg] for i in range(0, n, seg)]
    for chunk in reversed(chunks):
        stmts.extend(chunk)
    proc = Procedure("main", [], [], names, [Block("L0", stmts, Return())], "L0")
    return Program([], [proc], "main")


def test_worklist_beats_naive_on_long_chain():
    cons = generate_constraints(copy_chain(10_000, 200))
    t0 = time.monotonic()
    fast = solve_worklist(cons)
    t_fast = time.monotonic() - t0
    t0 = time.monotonic()
    slow = solve_naive(cons)
    t_slow = time.monotonic() - t0
    assert fast == slow
    assert fast.pt("main::c10000") == {1}
    assert t_slow >= 10 * t_fast, f"naive {t_slow:.3f}s vs worklist {t_fast:.3f}s"


# -- bitset verdicts against sets ----------------------------------------------------


def eval_sets(sol, proc_name, path, globals_):
    """Set-based reference for eval_abstract, over materialized sets."""
    sites = set(sol.var_pt.get(var_key(proc_name, path.base, globals_), ()))
    for f in path.fields:
        sites = {NULL_SITE}.union(*(sol.field_pt.get((site, f), ()) for site in sites))
    return sites


def query_paths(program):
    """(proc, path): every assert path, every assigned path, and every
    asserted variable read through one and two of the program's fields."""
    stmts = [(p.name, s) for p in program.procedures for b in p.blocks for s in b.stmts]
    fields = sorted(
        {f for _, s in stmts if isinstance(s, Assign) for f in s.rhs.fields}
        | {s.field for _, s in stmts if isinstance(s, Store)}
    )
    for proc_name, stmt in stmts:
        if isinstance(stmt, Assign):
            yield proc_name, stmt.rhs
        elif isinstance(stmt, Assert) and isinstance(stmt.cond, NullCheck):
            base = stmt.cond.path.base
            yield proc_name, stmt.cond.path
            yield from ((proc_name, Path(base, (f,))) for f in fields)
            yield from ((proc_name, Path(base, (f, g))) for f in fields for g in fields)


def check_bits_against_sets(program) -> int:
    """eval_abstract on the worklist bitsets gives the same sites, and so
    the same Null verdict, as a set-based evaluation over solve_naive, and
    classification agrees on both solutions. Returns the number of
    multi-field paths compared."""
    cons = generate_constraints(program)
    fast, naive = solve_worklist(cons), solve_naive(cons)
    globals_ = set(program.globals)
    multi = 0
    for proc_name, path in query_paths(program):
        bits = eval_abstract(fast, proc_name, path, globals_)
        sites = eval_sets(naive, proc_name, path, globals_)
        assert set(fast.sites(bits)) == sites, (proc_name, str(path))
        assert (not bits & NULL_BIT) == (NULL_SITE not in sites), (proc_name, str(path))
        multi += len(path.fields) > 1
    verdicts = [a.verdict for a in classify_assertions(program, fast).per_assert]
    assert verdicts == [a.verdict for a in classify_assertions(program, naive).per_assert]
    return multi


def test_bit_verdicts_match_sets_on_corpus(bundled):
    multi = 0
    for name, program in bundled.items():
        ssa = to_ssa(lift_loops(program))
        multi += check_bits_against_sets(ssa) + check_bits_against_sets(do_gvn(ssa))
    assert multi


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 5000))
def test_bit_verdicts_match_sets_generated(seed):
    ssa = to_ssa(lift_loops(generate(GeneratorConfig(seed=seed))))
    check_bits_against_sets(ssa)
    check_bits_against_sets(do_gvn(ssa))


# -- verdicts from Null over copies ----------------------------------------------------


def check_null_projection(program) -> None:
    """On constraint-generated graphs, solve_null's bit of every var node is
    the full solver's Null bit, so both give the same verdicts. This is an
    independent check of the fact in the solver's docstring."""
    cons = generate_constraints(program)
    null, full_sol = solve_null(cons), solve_worklist(cons)
    assert null.pts == [full_sol.pts[n] & NULL_BIT for n in range(len(cons.ids))]
    assert classify_assertions(program, null) == classify_assertions(program, full_sol)


def test_null_reachability_decides_verdicts(bundled):
    """The bundled programs and 100 generated ones at every level, and the
    first ladder rung (555 statements) at `ssa` and `ssa+gvn`."""
    programs = [*bundled.values(), *(generate(GeneratorConfig(seed=s)) for s in range(100))]
    for program in programs:
        for level in ("none", "ssa", "ssa+gvn"):
            check_null_projection(transform_program(program, level)[0])
    rung = generate(GeneratorConfig(seed=1, max_procs=20, max_blocks=20, max_stmts=10))
    for level in ("ssa", "ssa+gvn"):
        check_null_projection(transform_program(rung, level)[0])
