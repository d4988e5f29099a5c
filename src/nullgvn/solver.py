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
0). `solve_worklist` solves it by difference propagation over int bitsets.
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
`solve_worklist`'s non-Null sites and cells are what the oracle paths
read: the soundness replay, the agreement with `solve_naive`, and the fuzz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    `cells` may hold empty cells (a load base reaching a site makes its
    cell before any store writes it); `materialized` omits them. Verdicts
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
    """Difference propagation (Pearce, Kelly & Hankin, "Efficient
    field-sensitive pointer analysis of C", TOPLAS'07): the same least
    fixpoint as solve_naive.

    Nodes are the graph's var nodes, then the (site, field) cells, each
    numbered when a load or store first reaches it. Each node has one
    pending delta and sits on a LIFO worklist at most once: it is pushed
    only when that delta turns non-zero, and `pops` counts the pops. A
    tagged node's mask clears Null at every insertion. Copy edges pass the
    whole delta; a load or store base walks only its new non-Null sites and
    links their cells, so no (Null, field) cell exists.
    """
    n_vars = len(graph.ids)
    pts = [0] * n_vars
    pending = [0] * n_vars
    mask = [-1] * n_vars
    for n in graph.tagged:
        mask[n] = ~NULL_BIT
    succ: list[set[int]] = [set() for _ in range(n_vars)]
    cells: dict[tuple[int, str], int] = {}
    loads: dict[int, list[tuple[str, int]]] = {}
    stores: dict[int, list[tuple[str, int]]] = {}
    work: list[int] = []

    def add(n: int, bits: int) -> None:
        new = bits & mask[n] & ~pts[n]
        if new:
            pts[n] |= new
            if not pending[n]:
                work.append(n)
            pending[n] |= new

    def link(src: int, dst: int) -> None:
        if dst not in succ[src]:
            succ[src].add(dst)
            if pts[src]:
                add(dst, pts[src])

    def cell(site: int, fname: str) -> int:
        n = cells.get((site, fname))
        if n is None:
            n = cells[site, fname] = len(pts)
            pts.append(0)
            pending.append(0)
            mask.append(-1)
            succ.append(set())
        return n

    for b, fname, dst in graph.loads:
        loads.setdefault(b, []).append((fname, dst))
    for b, fname, src in graph.stores:
        stores.setdefault(b, []).append((fname, src))
    for src, dst in graph.copies:
        link(src, dst)
    for n, site in graph.base:
        add(n, 1 << graph.site_bit[site])

    pops = 0
    while work:
        n = work.pop()
        delta = pending[n]
        pending[n] = 0
        pops += 1
        if n in loads or n in stores:
            sites = _sites(delta & ~NULL_BIT, graph.sites)  # Null has no fields
            for fname, dst in loads.get(n, ()):
                for site in sites:
                    link(cell(site, fname), dst)
            for fname, src in stores.get(n, ()):
                for site in sites:
                    link(src, cell(site, fname))
        for dst in succ[n]:
            add(dst, delta)
    return PointsToSolution(graph, pts, cells, pops)


def solve_null(graph: Constraints) -> PointsToSolution:
    """The Null projection of the least solution, for verdicts: `pts[n]` is
    NULL_BIT when Null reaches var node n over copy edges from a Null base
    fact, through untagged nodes only, else 0. No cells and no pops: a
    field path then reads Null, as it does in the full solution (see the
    module docstring)."""
    succ: list[list[int]] = [[] for _ in graph.ids]
    for src, dst in graph.copies:
        succ[src].append(dst)
    null = bytearray(len(succ))  # 1: Null reached; 2: tagged, never holds Null
    for n in graph.tagged:
        null[n] = 2
    work = [n for n, site in graph.base if site == NULL_SITE]
    while work:
        n = work.pop()
        if not null[n]:
            null[n] = 1
            work.extend(succ[n])
    return PointsToSolution(graph, [b & NULL_BIT for b in null], {})


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
