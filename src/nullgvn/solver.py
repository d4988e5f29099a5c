"""Field-sensitive, flow- and context-insensitive inclusion-based points-to
analysis, plus non-null assertion classification.

The program is treated as a bag of statements. Each statement contributes
set constraints over points-to sets: allocation and Null assignment seed
base facts, copies are subset edges, field reads/writes are conditional
edges through (site, field) cells. Calls become parameter and return
copies. Variables are namespaced per procedure; globals share one node.

Tagged variables never admit the Null site: constraint generation records
their nodes once, and the filter runs inside the fixpoint (equivalently, at
every insertion), which stops Null from propagating through them.

A field read can also observe a field that was never written, which
evaluates to Null at runtime, so every read contributes the Null site to
its target in addition to the conditional rule. Null itself is a constant,
not an object: a field access through it ends the run, so loads and stores
go through the cells of non-Null sites only, and no (Null, field) cell
exists.

`generate_constraints` returns the constraint graph, which owns the var
node ids (keys in first-mention order) and the site numbering (Null as bit
0). `solve_worklist` solves it in waves (Pereira & Berlin's wave
propagation, CGO'09): it keeps its own topological order of the graph,
collapses the cycles that edges added against that order close (after
Hardekopf & Lin, "The Ant and the Grasshopper", PLDI'07, and Pearce, Kelly
& Hankin's online cycle detection, SCAM'03), and pushes each node's new
non-Null sites on once per wave. Before the waves, every var node whose
one input is a single copy joins its source's class (Rountev & Chandra's
off-line variable substitution, PLDI'00), so edge sets, order slots and
pushes exist for representatives only. A tag mask clears only Null, so the
members of a merged class or a collapsed cycle share their non-Null sites.
No edge depends on Null, so Null is a per-node flag that spreads once,
after the waves, into untagged nodes only. Loads and stores reach the
(site, field) cells through one hub per (field, base bitset), so each
distinct bitset walks its sites once.
Both solvers return a `PointsToSolution`, a view over int bitsets in the
graph's numbering: verdicts and the soundness replay test bits, and sets
are built only when a caller asks for them. `solve_naive` is the set-based
reference; it packs its sets with the graph's `site_bit`, so there is no
second numbering.

Verdicts need only Null over copies. Every load target carries a Null base
fact (an unwritten field reads as Null), so a load target holds Null
already, or never does if it is tagged: no load decides whether a var node
holds Null. A var node therefore holds Null exactly when a Null base fact
reaches it over copy edges through untagged nodes only. And a field path
always reads as maybe-Null, since `eval_abstract` starts each field step
from Null, so an assert on a field path is never SAFE. `solve_null` is
that one reachability pass, and it is what the pipeline's verdicts read.
The wave solver's non-Null sites and cells are what the oracle paths read:
the soundness replay, the agreement with `solve_naive`, and the fuzz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice

from .ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Call,
    NullCheck,
    Path,
    Program,
    Store,
    NULL_SITE,
    is_tagged,
)

RULES = ("alloc", "null", "copy", "load", "store")


def var_key(proc_name: str | None, name: str, globals_: set[str]) -> str:
    """Solver node for a variable; globals share one namespace."""
    if proc_name is None or name in globals_:
        return name
    return f"{proc_name}::{name}"


class _ScopeKeys(dict):
    """The var keys of one procedure by variable name, each string made on
    first use, so every mention of a variable shares one key."""

    def __init__(self, proc_name: str, globals_: set[str]):
        super().__init__()
        self.proc_name = proc_name
        self.globals_ = globals_

    def __missing__(self, name: str) -> str:
        key = self[name] = var_key(self.proc_name, name, self.globals_)
        return key


@dataclass
class Constraints:
    """The constraint graph over dense var node ids (`ids`, numbered by
    `build`) and the one site numbering: `sites[i]` is bit i of every
    points-to bitset, Null at bit 0 and the other sites ascending."""

    base: list[tuple[int, int]]          # site in pt(x)
    copies: list[tuple[int, int]]        # pt(src) <= pt(dst)
    loads: list[tuple[int, str, int]]    # x := base.f
    stores: list[tuple[int, str, int]]   # base.f := src
    tagged: set[int]                     # never admit Null
    ids: dict[str, int]
    sites: list[int]
    site_bit: dict[int, int]

    @classmethod
    def build(cls, base=(), copies=(), loads=(), stores=(), tagged=()) -> Constraints:
        """Intern string-keyed constraints: keys are numbered in the order
        copies, loads, stores, base and `tagged` first mention them. `ids`
        keeps one string per key, the first mention's; the tuples are
        dropped. `generate_constraints` hands over tuples that already
        share one string per variable."""
        ids: dict[str, int] = {}
        for key in (
            *(k for edge in copies for k in edge),
            *(k for b, _, x in (*loads, *stores) for k in (b, x)),
            *(k for k, _ in base),
            *tagged,
        ):
            ids.setdefault(key, len(ids))
        sites = [NULL_SITE, *sorted({site for _, site in base} - {NULL_SITE})]
        return cls(
            base=[(ids[k], site) for k, site in base],
            copies=[(ids[s], ids[d]) for s, d in copies],
            loads=[(ids[b], f, ids[x]) for b, f, x in loads],
            stores=[(ids[b], f, ids[x]) for b, f, x in stores],
            tagged={ids[k] for k in tagged},
            ids=ids,
            sites=sites,
            site_bit={site: i for i, site in enumerate(sites)},
        )


def generate_constraints(program: Program, disable_rule: str | None = None) -> Constraints:
    """One constraint per statement occurrence. `disable_rule` drops one of
    RULES, used by the fault-injection tests to prove the oracle notices.
    Each variable's key string is made once and shared by every mention."""
    if disable_rule is not None and disable_rule not in RULES:
        raise ValueError(f"unknown rule {disable_rule!r}")
    globals_ = set(program.globals)
    keys = {proc.name: _ScopeKeys(proc.name, globals_) for proc in program.procedures}
    # keyed by those shared strings, for Constraints.build to number
    base, copies, loads, stores = [], [], [], []
    tagged = [g for g in program.globals if is_tagged(g)] + [
        keys[proc.name][v]
        for proc in program.procedures
        for v in proc.scope_vars()
        if is_tagged(v)
    ]
    temp_count = 0

    def on(rule: str) -> bool:
        return rule != disable_rule

    def add_path(key: _ScopeKeys, lhs_key: str, path: Path) -> None:
        """Decompose `lhs := base.f1...fn` into single-level reads through
        analysis-internal temporaries ($n is not a legal identifier)."""
        nonlocal temp_count
        src = key[path.base]
        for f in path.fields[:-1]:
            temp_count += 1
            tmp = f"${temp_count}"
            if on("load"):
                loads.append((src, f, tmp))
            base.append((tmp, NULL_SITE))
            src = tmp
        if path.fields:
            if on("load"):
                loads.append((src, path.fields[-1], lhs_key))
            base.append((lhs_key, NULL_SITE))
        else:
            if on("copy"):
                copies.append((src, lhs_key))

    procs = program.proc_map()
    for proc in program.procedures:
        key = keys[proc.name]
        for block in proc.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, Alloc):
                    if on("alloc"):
                        base.append((key[stmt.lhs], stmt.site))
                elif isinstance(stmt, AssignNull):
                    if on("null"):
                        base.append((key[stmt.lhs], NULL_SITE))
                elif isinstance(stmt, Assign):
                    add_path(key, key[stmt.lhs], stmt.rhs)
                elif isinstance(stmt, Store):
                    if on("store"):
                        stores.append((key[stmt.base], stmt.field, key[stmt.src]))
                elif isinstance(stmt, Call):
                    callee = procs[stmt.callee]
                    callee_key = keys[callee.name]
                    if on("copy"):
                        for actual, formal in zip(stmt.args, callee.params):
                            copies.append((key[actual], callee_key[formal]))
                        for ret, out in zip(callee.returns, stmt.outs):
                            copies.append((callee_key[ret], key[out]))
                # assume/assert contribute nothing
    return Constraints.build(base, copies, loads, stores, tagged)


NULL_BIT = 1  # Null is bit 0 of every points-to bitset
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _sites(bits: int, bit_site: list[int]) -> list[int]:
    """The sites of a points-to bitset, lowest bit first: bit i is bit_site[i]."""
    digits = bin(bits)[:1:-1].encode().translate(_BIT_BYTES)  # 0/1 bytes, bit 0 first
    return list(compress(bit_site, digits))


class PointsToSolution:
    """A points-to solution as a view over a solver's int bitsets.

    `pts[n]` is node n's points-to set over the graph's site numbering: var
    nodes are the graph's, and `cells` maps each (site, field) to its node.
    `cells` may hold empty cells (the wave solver makes a load's cells
    before any store reaches them); `materialized` omits them. Verdicts
    and the soundness replay test bits directly; `materialized` builds
    every set once, for `var_pt`, `field_pt` and `==`. `pops` counts
    worklist pops (0 for the naive solver). A `solve_null` view holds only
    the Null bit of each var node and no cells, so `==` and `materialized`
    on it compare only those.
    """

    def __init__(self, graph: Constraints, pts: list[int], cells: dict, pops: int = 0):
        self.graph = graph
        self.pts = pts
        self.cells = cells
        self.pops = pops

    def bits(self, key: str) -> int:
        """Bitset of a var key; 0 if the key is not a node."""
        n = self.graph.ids.get(key)
        return 0 if n is None else self.pts[n]

    def cell_bits(self, site: int, fname: str) -> int:
        """Bitset of a (site, field) cell; 0 if never reached."""
        n = self.cells.get((site, fname))
        return 0 if n is None else self.pts[n]

    def holds(self, bits: int, site: int) -> bool:
        """Whether the bitset `bits` contains `site`."""
        i = self.graph.site_bit.get(site)
        return i is not None and bool(bits >> i & 1)

    def sites(self, bits: int) -> list[int]:
        return _sites(bits, self.graph.sites)

    def pt(self, key: str) -> set[int]:
        return set(self.sites(self.bits(key)))

    def pt_field(self, site: int, fname: str) -> set[int]:
        return set(self.sites(self.cell_bits(site, fname)))

    @cached_property
    def materialized(self) -> tuple[dict[str, set[int]], dict[tuple[int, str], set[int]]]:
        """(var_pt, field_pt): every non-empty var and cell set as a set."""
        pts = self.pts
        return tuple(
            {key: set(self.sites(pts[n])) for key, n in ids.items() if pts[n]}
            for ids in (self.graph.ids, self.cells)
        )

    @property
    def var_pt(self) -> dict[str, set[int]]:
        return self.materialized[0]

    @property
    def field_pt(self) -> dict[tuple[int, str], set[int]]:
        return self.materialized[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointsToSolution):
            return NotImplemented
        return self.materialized == other.materialized

    def __repr__(self) -> str:
        return f"PointsToSolution(var_pt={self.var_pt!r}, field_pt={self.field_pt!r})"


def solve_naive(graph: Constraints) -> PointsToSolution:
    """Fixpoint by repeated full passes over the constraints, on plain sets
    of sites per node: the reference the worklist solver is checked against.

    The Null site is stripped from a tagged variable as soon as it lands:
    filtering once per pass instead would let Null pass through a tagged
    variable within the pass.
    """
    var_pt: list[set[int]] = [set() for _ in graph.ids]
    field_pt: dict[tuple[int, str], set[int]] = {}
    tagged = graph.tagged

    def add_var(n: int, sites: set[int]) -> None:
        if n in tagged:
            sites = sites - {NULL_SITE}
        var_pt[n].update(sites)

    def snapshot():
        return [frozenset(v) for v in var_pt], {k: frozenset(v) for k, v in field_pt.items()}

    old = None
    while (new := snapshot()) != old:
        old = new
        for n, site in graph.base:
            add_var(n, {site})
        for src, dst in graph.copies:
            add_var(dst, var_pt[src])
        for base, fname, dst in graph.loads:
            for site in sorted(var_pt[base] - {NULL_SITE}):
                add_var(dst, field_pt.get((site, fname), set()))
        for base, fname, src in graph.stores:
            for site in sorted(var_pt[base] - {NULL_SITE}):
                field_pt.setdefault((site, fname), set()).update(var_pt[src])
    pack = [sum(1 << graph.site_bit[site] for site in v) for v in (*var_pt, *field_pt.values())]
    return PointsToSolution(graph, pack, {cell: n for n, cell in enumerate(field_pt, len(var_pt))})


def solve_worklist(graph: Constraints) -> PointsToSolution:
    """Wave solver: the same least fixpoint as solve_naive.

    Nodes are the graph's var nodes, then cells and hubs. A load hub stands
    for one (field, base bitset): it reads the cell of every site in the
    bitset and feeds every load whose base holds exactly that bitset. A
    store hub likewise writes what its sources hold into those cells. The
    hub of a one-site bitset is that site's cell, and a hub makes any cell
    of its sites that is missing. A hub made when a base's bitset grew
    takes the sites it shares with the base's previous bitset through that
    bitset's hub. Every edge is one kind: it carries non-Null sites between
    representatives and Null between nodes.

    Before any edge exists, a var node with exactly one incoming copy, no
    load into it and no non-Null base fact joins its source's class
    (off-line variable substitution): in the least fixpoint it holds
    exactly its source's non-Null sites, and Null is per node anyway. The
    copies still link, node to node, for Null. Each merged node then
    points straight at its representative, and only representatives get
    edge sets and a place in the order. Each wave:

    1. routes the loads and stores of every base whose bitset (its
       representative's non-Null sites) changed since it was last routed,
       through the hubs of the new bitset. New hubs and cells join the end
       of the order, and step 2 places them. After the copy edges, these
       are the only edges added;
    2. restores the topological order (`order`, over representatives from
       the start: merged var nodes never enter it).
       No position moves between reorders, so the only edges that run
       backward in it are those added against it since the last wave. One
       search (Tarjan, over predecessors) covers the order from the lowest
       of their targets to the end and finds the nodes there that reach
       one of their sources. Each cycle found collapses into one
       representative, and the searched nodes move, in topological order,
       ahead of the rest of that stretch, which keeps its order;
    3. sweeps the order once, from the lowest representative with sites
       pending, pushing each representative's new non-Null sites on to its
       successors; `pops` counts these pushes. A node without successors
       only collects.

    The waves stop when no base's bitset changed and no site is pending.
    Routing never reads Null, so by then every edge exists, and Null
    spreads once from its base facts, node by node over every edge, into
    untagged nodes only: the members of one collapsed cycle can differ.
    """
    n_vars = len(graph.ids)
    parent = list(range(n_vars))          # union-find: substitution, then cycles
    bits = [0] * n_vars                   # non-Null sites, per representative
    pending = [0] * n_vars                # bits not yet pushed on
    succ: list[set[int] | None] = [None] * n_vars  # per representative, None once merged
    pred: list[set[int] | None] = [None] * n_vars
    null_succ: list[list[int]] = [[] for _ in range(n_vars)]  # every edge, node to node
    order: list[int] = []                 # representatives, topologically
    pos = [0] * n_vars                    # index in `order`, per representative
    copy_src = [-1] * n_vars              # source of a node's one input, a copy; -1 none, -2 more
    backward: list[tuple[int, int]] = []  # edges added against the order
    dirty: list[int] = []                 # representatives with bits pending
    cells: dict[tuple[int, str], int] = {}
    load_hubs: dict[tuple[str, int], int] = {}
    store_hubs: dict[tuple[str, int], int] = {}
    bit_site, site_bit = graph.sites, graph.site_bit
    loads: dict[int, list[tuple[str, int]]] = {}
    stores: dict[int, list[tuple[str, int]]] = {}
    for src, dst in graph.copies:
        copy_src[dst] = src if copy_src[dst] == -1 else -2
    for b, fname, dst in graph.loads:
        loads.setdefault(b, []).append((fname, dst))
        copy_src[dst] = -2
    for b, fname, src in graph.stores:
        stores.setdefault(b, []).append((fname, src))
    for n, site in graph.base:
        if site != NULL_SITE:
            copy_src[n] = -2
    seen_bits = dict.fromkeys([*loads, *stores], 0)  # base -> bitset routed

    def find(n: int) -> int:
        root = n
        while parent[root] != root:
            root = parent[root]
        while parent[n] != root:
            parent[n], n = root, parent[n]
        return root

    def new_node() -> int:
        """A new node, at the end of the order."""
        n = len(parent)
        parent.append(n)
        bits.append(0)
        pending.append(0)
        succ.append(set())
        pred.append(set())
        null_succ.append([])
        pos.append(len(order))
        order.append(n)
        return n

    def gain(r: int, new: int) -> None:
        """Add the sites `new` to representative r, pending them if r has
        successors to push them to."""
        bits[r] |= new
        if succ[r]:
            if not pending[r]:
                dirty.append(r)
            pending[r] |= new

    def link(u: int, v: int) -> None:
        """Edge u -> v between the representatives of two nodes, and from
        node u to node v in `null_succ`."""
        null_succ[u].append(v)
        ru, rv = parent[u], parent[v]  # a merged var node points at its representative
        if parent[ru] != ru:
            ru = find(ru)
        if parent[rv] != rv:
            rv = find(rv)
        if ru != rv and rv not in succ[ru]:
            succ[ru].add(rv)
            pred[rv].add(ru)
            if pos[ru] > pos[rv]:
                backward.append((ru, rv))
            new = bits[ru] & ~bits[rv]
            if new:
                gain(rv, new)

    def add_cells(fname: str, sites: list[int]) -> None:
        """Cells for those of `sites` that have none. A cell is also the
        load and store hub of its site."""
        for site in sites:
            if (site, fname) not in cells:
                one = 1 << site_bit[site]
                cells[site, fname] = load_hubs[fname, one] = store_hubs[fname, one] = new_node()

    def hub(fname: str, b: int, old: int, load: bool) -> int:
        """The load hub (`load`) or store hub of (field, bitset `b`): a cell
        for one site, else a node linked with the cells of the sites in `b`
        but not in `old` (a bitset the base held before) and with the hub
        of `old`. A load hub reads them, a store hub writes them. New hubs
        and cells join the end of the order, each hub after its cells, and
        the next reorder places them."""
        hubs = load_hubs if load else store_hubs
        h = hubs.get((fname, b))
        if h is not None:
            return h
        prior = hubs.get((fname, old))
        sites = _sites(b & ~old if prior is not None else b, bit_site)
        add_cells(fname, sites)
        if not b & (b - 1):
            return cells[sites[0], fname]
        h = hubs[fname, b] = new_node()
        ends = [cells[site, fname] for site in sites]
        if prior is not None:
            ends.append(prior)
        for m in ends:
            if load:
                link(m, h)
            else:
                link(h, m)
        return h

    def route(b: int, now: int) -> None:
        """Route the loads and stores of base `b` through the hubs of its
        new bitset `now`."""
        old = seen_bits[b]
        seen_bits[b] = now
        for fname, dst in loads.get(b, ()):
            link(hub(fname, now, old, True), dst)
        for fname, src in stores.get(b, ()):
            link(src, hub(fname, now, old, False))

    def collapse(scc: list[int]) -> int:
        """Merge a cycle into its best-connected member, so that the
        fewest edge sets move; returns that representative."""
        r = max(scc, key=lambda m: len(succ[m]) + len(pred[m]))
        out, into, union = succ[r], pred[r], 0
        for m in scc:
            union |= bits[m]
            pending[m] = 0
            if m != r:
                parent[m] = r
                out |= succ[m]
                into |= pred[m]
                succ[m] = pred[m] = None
        out.difference_update(scc)
        into.difference_update(scc)
        bits[r] = union
        if union:
            pending[r] = union  # members' successors may lack other members' bits
            dirty.append(r)
        return r

    def reach_sccs(sources: list[int], lo: int) -> list[list[int]]:
        """Tarjan's SCCs, in topological order, of the representatives
        from order index `lo` to the end that reach `sources` there: one
        search per wave, from the lowest backward target on."""
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []
        on_stack: set[int] = set()
        sccs: list[list[int]] = []
        for root in sources:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(pred[root]))]
            while work:
                n, into = work[-1]
                for p in into:
                    if parent[p] != p:
                        p = find(p)
                    if p not in index:
                        if pos[p] >= lo:
                            index[p] = low[p] = len(index)
                            stack.append(p)
                            on_stack.add(p)
                            work.append((p, iter(pred[p])))
                            break
                    elif p in on_stack and index[p] < low[n]:
                        low[n] = index[p]
                else:
                    work.pop()
                    if work and low[n] < low[work[-1][0]]:
                        low[work[-1][0]] = low[n]
                    if low[n] == index[n]:
                        scc = []
                        while scc[-1:] != [n]:
                            scc.append(stack.pop())
                            on_stack.discard(scc[-1])
                        sccs.append(scc)
        return sccs

    def reorder() -> None:
        """Make every edge run forward in the order, collapsing cycles.
        `backward` holds representatives (once edges exist, only reorder
        merges nodes) and no position has moved since they were
        recorded."""
        lo = min(pos[rv] for _, rv in backward)
        block = reach_sccs([ru for ru, _ in backward], lo)
        backward.clear()
        moved = {m for scc in block for m in scc}
        order[lo:] = [scc[0] if len(scc) == 1 else collapse(scc) for scc in block] + [
            n for n in order[lo:] if n not in moved
        ]
        for i in range(lo, len(order)):
            pos[order[i]] = i

    # Substitution. Each node is given a parent once, while it is still a
    # root, so a cycle of single copies stays a tree: where the copies come
    # back round, find(src) is the node itself. Then every node points
    # straight at its representative.
    for n, src in enumerate(copy_src):
        if src >= 0:
            parent[n] = find(src)
    for n, r in enumerate(parent):
        if r == n:
            pos[n], succ[n], pred[n] = len(order), set(), set()
            order.append(n)
        elif parent[r] != r:
            parent[n] = find(r)
    for src, dst in graph.copies:
        link(src, dst)
    for n, site in graph.base:
        if site != NULL_SITE:
            gain(n, 1 << site_bit[site])

    pops = 0
    while True:
        grew = False
        for b, seen in seen_bits.items():
            now = bits[b if parent[b] == b else find(b)]
            if now != seen:
                route(b, now)
                grew = True
        if not grew and not dirty:
            break
        if backward:
            reorder()
        # No edge is added during the sweep, and after the reorder every
        # edge runs forward in `order`: one pass from the lowest pending
        # representative reaches every successor after its predecessors.
        start = min((pos[find(r)] for r in dirty), default=len(order))
        dirty.clear()
        for r in islice(order, start, None):
            delta = pending[r]
            if not delta:
                continue
            pending[r] = 0
            pops += 1
            for s in succ[r]:
                if parent[s] != s:
                    s = find(s)
                new = delta & ~bits[s]
                if new:
                    bits[s] |= new
                    if succ[s]:
                        pending[s] |= new

    null = _spread_null(graph, null_succ)
    pts = [bits[r if parent[r] == r else find(r)] | null[r] & NULL_BIT for r in range(len(parent))]
    return PointsToSolution(graph, pts, cells, pops)


def _spread_null(graph: Constraints, succ: list[list[int]]) -> bytearray:
    """Per node of `succ` (a successor list, var nodes first): 1 if Null
    reaches it from a Null base fact over `succ`, through untagged nodes
    only; 2 for a tagged node, which never holds Null; else 0."""
    null = bytearray(len(succ))
    for n in graph.tagged:
        null[n] = 2
    work = [n for n, site in graph.base if site == NULL_SITE]
    while work:
        n = work.pop()
        if not null[n]:
            null[n] = 1
            work.extend(succ[n])
    return null


def solve_null(graph: Constraints) -> PointsToSolution:
    """The Null projection of the least solution, for verdicts: `pts[n]` is
    NULL_BIT when Null reaches var node n over copy edges from a Null base
    fact, through untagged nodes only, else 0. No cells and no pops: a
    field path then reads Null, as it does in the full solution (see the
    module docstring)."""
    succ: list[list[int]] = [[] for _ in graph.ids]
    for src, dst in graph.copies:
        succ[src].append(dst)
    return PointsToSolution(graph, [b & NULL_BIT for b in _spread_null(graph, succ)], {})


# ---------------------------------------------------------------------------
# Assertion classification
# ---------------------------------------------------------------------------

SAFE = "SAFE"
UNPROVED = "UNPROVED"


@dataclass
class AssertVerdict:
    proc: str
    block: str
    index: int
    cond: str
    verdict: str


@dataclass
class SafetyReport:
    per_assert: list[AssertVerdict]
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.per_assert)

    @property
    def unproved(self) -> int:
        return sum(1 for a in self.per_assert if a.verdict == UNPROVED)

    def to_json_dict(self) -> dict:
        return {
            "asserts_total": self.total,
            "asserts_unproved": self.unproved,
            "per_assert": [
                {
                    "proc": a.proc,
                    "block": a.block,
                    "index": a.index,
                    "verdict": a.verdict,
                }
                for a in self.per_assert
            ],
            "timings_ms": dict(self.timings_ms),
        }


def eval_abstract(sol: PointsToSolution, proc_name: str, path: Path, globals_: set[str]) -> int:
    """Abstract value of an access path, as a bitset of `sol`: pt of the
    base chained through the field cells of every site it may reach."""
    bits = sol.bits(var_key(proc_name, path.base, globals_))
    for f in path.fields:
        nxt = NULL_BIT  # an unwritten field reads as Null
        for site in sol.sites(bits & ~NULL_BIT):  # Null has no fields
            nxt |= sol.cell_bits(site, f)
        bits = nxt
    return bits


def classify_assertions(program: Program, sol: PointsToSolution) -> SafetyReport:
    """Give every assert a verdict: SAFE when the abstract set of a
    `!= Null` condition excludes the Null site, UNPROVED otherwise (opaque
    and `== Null` asserts are never proved)."""
    globals_ = set(program.globals)
    verdicts = []
    for proc in program.procedures:
        for block in proc.blocks:
            for i, stmt in enumerate(block.stmts):
                if not isinstance(stmt, Assert):
                    continue
                verdict = UNPROVED
                if isinstance(stmt.cond, NullCheck) and stmt.cond.negated:
                    if not eval_abstract(sol, proc.name, stmt.cond.path, globals_) & NULL_BIT:
                        verdict = SAFE
                verdicts.append(
                    AssertVerdict(proc.name, block.label, i, str(stmt.cond), verdict)
                )
    return SafetyReport(verdicts)
