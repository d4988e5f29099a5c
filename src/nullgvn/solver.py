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
its target in addition to the conditional rule.

`generate_constraints` returns the constraint graph, which owns the var
node ids and the site numbering (Null as bit 0). Var keys are numbered in
reverse post-order of the copy graph (`_copy_order`, the shared depth-first
walk `ir.postorder`), and `solve_worklist` pops smallest id first, so a key
is visited after the keys that copy into it (topological propagation, as in
Pereira & Berlin's wave propagation, CGO'09). Both solvers read the graph
and return a `PointsToSolution`, a view over int bitsets in its numbering:
verdicts and the soundness replay test bits, and sets are built only when a
caller asks for them. `solve_naive` is the set-based reference; it packs its
sets with the graph's `site_bit`, so there is no second numbering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import compress

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
    postorder,
)

RULES = ("alloc", "null", "copy", "load", "store")


def var_key(proc_name: str | None, name: str, globals_: set[str]) -> str:
    """Solver node for a variable; globals share one namespace."""
    if proc_name is None or name in globals_:
        return name
    return f"{proc_name}::{name}"


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
        """Intern string-keyed constraints: copy-graph keys in reverse
        post-order (`_copy_order`), then the other keys in the order loads,
        stores, base and `tagged` first mention them."""
        ids = {key: n for n, key in enumerate(_copy_order(copies))}
        mentioned = [k for b, _, x in (*loads, *stores) for k in (b, x)]
        for key in (*mentioned, *(k for k, _ in base), *tagged):
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
    RULES, used by the fault-injection tests to prove the oracle notices."""
    if disable_rule is not None and disable_rule not in RULES:
        raise ValueError(f"unknown rule {disable_rule!r}")
    globals_ = set(program.globals)
    base, copies, loads, stores = [], [], [], []  # string-keyed, for Constraints.build
    tagged = [g for g in program.globals if is_tagged(g)] + [
        var_key(proc.name, v, globals_)
        for proc in program.procedures
        for v in proc.scope_vars()
        if is_tagged(v)
    ]
    temp_count = 0

    def on(rule: str) -> bool:
        return rule != disable_rule

    def add_path(proc_name: str, lhs_key: str, path: Path) -> None:
        """Decompose `lhs := base.f1...fn` into single-level reads through
        analysis-internal temporaries ($n is not a legal identifier)."""
        nonlocal temp_count
        src = var_key(proc_name, path.base, globals_)
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
        for block in proc.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, Alloc):
                    if on("alloc"):
                        base.append((var_key(proc.name, stmt.lhs, globals_), stmt.site))
                elif isinstance(stmt, AssignNull):
                    if on("null"):
                        base.append((var_key(proc.name, stmt.lhs, globals_), NULL_SITE))
                elif isinstance(stmt, Assign):
                    add_path(proc.name, var_key(proc.name, stmt.lhs, globals_), stmt.rhs)
                elif isinstance(stmt, Store):
                    if on("store"):
                        stores.append(
                            (
                                var_key(proc.name, stmt.base, globals_),
                                stmt.field,
                                var_key(proc.name, stmt.src, globals_),
                            )
                        )
                elif isinstance(stmt, Call):
                    callee = procs[stmt.callee]
                    if on("copy"):
                        for actual, formal in zip(stmt.args, callee.params):
                            copies.append(
                                (
                                    var_key(proc.name, actual, globals_),
                                    var_key(callee.name, formal, globals_),
                                )
                            )
                        for ret, out in zip(callee.returns, stmt.outs):
                            copies.append(
                                (
                                    var_key(callee.name, ret, globals_),
                                    var_key(proc.name, out, globals_),
                                )
                            )
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
    Verdicts and the soundness replay test bits directly; `materialized`
    builds every set once, for `var_pt`, `field_pt` and `==`. `pops` counts
    worklist pops (0 for the naive solver).
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
            for site in sorted(var_pt[base]):
                add_var(dst, field_pt.get((site, fname), set()))
        for base, fname, src in graph.stores:
            for site in sorted(var_pt[base]):
                field_pt.setdefault((site, fname), set()).update(var_pt[src])
    pack = [sum(1 << graph.site_bit[site] for site in v) for v in (*var_pt, *field_pt.values())]
    return PointsToSolution(graph, pack, {cell: n for n, cell in enumerate(field_pt, len(var_pt))})


def _copy_order(copies: list[tuple[str, str]]) -> list[str]:
    """The keys of the copy graph in reverse post-order: where the graph has
    no cycle, every key comes after all the keys that copy into it."""
    succ: dict[str, list[str]] = {}
    for src, dst in copies:
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    return postorder(succ, succ)[::-1]


def solve_worklist(graph: Constraints) -> PointsToSolution:
    """Constraint-graph solver with difference propagation; same least
    fixpoint as solve_naive, much faster on long copy chains.

    The graph owns var node ids and the site -> bit numbering; the solver
    only interns (site, field) cells, giving each the next free id when a
    load or store first reaches it. Each node has an admit mask that clears
    the Null bit on tagged nodes, so the filter runs at every insertion.
    Each node carries one pending delta and sits on the worklist at most
    once: it is pushed only when that delta turns non-zero. The worklist is
    a min-heap over node ids, and var ids follow the copy graph's reverse
    post-order, so a node whose copy sources are also pending is popped
    after them and passes on their bits in one visit. Copy edges pass the
    whole delta with one `|`; only load and store bases walk its sites.
    """
    n_vars = len(graph.ids)
    pts = [0] * n_vars
    pending = [0] * n_vars
    mask = [~NULL_BIT if n in graph.tagged else -1 for n in range(n_vars)]
    succ: list[set[int]] = [set() for _ in range(n_vars)]
    cells: dict[tuple[int, str], int] = {}
    loads: dict[int, list[tuple[str, int]]] = {}
    stores: dict[int, list[tuple[str, int]]] = {}
    work: list[int] = []
    bit_site = graph.sites

    def cell(site: int, fname: str) -> int:
        n = cells.get((site, fname))
        if n is None:
            n = cells[site, fname] = len(pts)
            pts.append(0)
            pending.append(0)
            mask.append(-1)
            succ.append(set())
        return n

    def add(n: int, bits: int) -> None:
        new = bits & mask[n] & ~pts[n]
        if new:
            pts[n] |= new
            if not pending[n]:
                heappush(work, n)
            pending[n] |= new

    def add_edge(src: int, dst: int) -> None:
        out = succ[src]
        if dst not in out:
            out.add(dst)
            if pts[src]:
                add(dst, pts[src])

    for base, fname, dst in graph.loads:
        loads.setdefault(base, []).append((fname, dst))
    for base, fname, src in graph.stores:
        stores.setdefault(base, []).append((fname, src))
    for src, dst in graph.copies:
        add_edge(src, dst)
    for n, site in graph.base:
        add(n, 1 << graph.site_bit[site])

    pops = 0
    while work:
        n = heappop(work)
        pops += 1
        delta = pending[n]
        pending[n] = 0
        if n in loads or n in stores:
            sites = _sites(delta, bit_site)
            for fname, dst in loads.get(n, ()):
                for site in sites:
                    add_edge(cell(site, fname), dst)
            for fname, src in stores.get(n, ()):
                for site in sites:
                    add_edge(src, cell(site, fname))
        for dst in succ[n]:
            add(dst, delta)
    return PointsToSolution(graph, pts, cells, pops)


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
        for site in sol.sites(bits):
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
