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

`solve_worklist` numbers var keys in reverse post-order of the copy graph
(`_copy_order`, the shared depth-first walk `ir.postorder` over the copy
edges) and pops its worklist smallest id first, so a key is visited after
the keys that copy into it (topological propagation, as in Pereira &
Berlin's wave propagation, CGO'09). Its `PointsToSolution` is a view over
the solver's int bitsets, Null as bit 0: verdicts and the soundness replay
test bits, and sets are built only when a caller asks for them.
`solve_naive` is the set-based reference and packs its result into the
same view.
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
    base: list[tuple[str, int]] = field(default_factory=list)          # site in pt(x)
    copies: list[tuple[str, str]] = field(default_factory=list)        # pt(src) <= pt(dst)
    loads: list[tuple[str, str, str]] = field(default_factory=list)    # x := base.f
    stores: list[tuple[str, str, str]] = field(default_factory=list)   # base.f := src
    tagged: set[str] = field(default_factory=set)                      # never admit Null


def generate_constraints(program: Program, disable_rule: str | None = None) -> Constraints:
    """One constraint per statement occurrence. `disable_rule` drops one of
    RULES, used by the fault-injection tests to prove the oracle notices."""
    if disable_rule is not None and disable_rule not in RULES:
        raise ValueError(f"unknown rule {disable_rule!r}")
    globals_ = set(program.globals)
    cons = Constraints()
    cons.tagged = {g for g in program.globals if is_tagged(g)} | {
        var_key(proc.name, v, globals_)
        for proc in program.procedures
        for v in proc.scope_vars()
        if is_tagged(v)
    }
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
                cons.loads.append((src, f, tmp))
            cons.base.append((tmp, NULL_SITE))
            src = tmp
        if path.fields:
            if on("load"):
                cons.loads.append((src, path.fields[-1], lhs_key))
            cons.base.append((lhs_key, NULL_SITE))
        else:
            if on("copy"):
                cons.copies.append((src, lhs_key))

    procs = program.proc_map()
    for proc in program.procedures:
        for block in proc.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, Alloc):
                    if on("alloc"):
                        cons.base.append((var_key(proc.name, stmt.lhs, globals_), stmt.site))
                elif isinstance(stmt, AssignNull):
                    if on("null"):
                        cons.base.append((var_key(proc.name, stmt.lhs, globals_), NULL_SITE))
                elif isinstance(stmt, Assign):
                    add_path(proc.name, var_key(proc.name, stmt.lhs, globals_), stmt.rhs)
                elif isinstance(stmt, Store):
                    if on("store"):
                        cons.stores.append(
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
                            cons.copies.append(
                                (
                                    var_key(proc.name, actual, globals_),
                                    var_key(callee.name, formal, globals_),
                                )
                            )
                        for ret, out in zip(callee.returns, stmt.outs):
                            cons.copies.append(
                                (
                                    var_key(callee.name, ret, globals_),
                                    var_key(proc.name, out, globals_),
                                )
                            )
                # assume/assert contribute nothing
    return cons


NULL_BIT = 1  # Null is bit 0 of every points-to bitset
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _sites(bits: int, bit_site: list[int]) -> list[int]:
    """The sites of a points-to bitset, lowest bit first: bit i is bit_site[i]."""
    digits = bin(bits)[:1:-1].encode().translate(_BIT_BYTES)  # 0/1 bytes, bit 0 first
    return list(compress(bit_site, digits))


class PointsToSolution:
    """A points-to solution as a view over the solver's own arrays.

    `ids` maps each solver key to a node: a var key (str) or a (site, field)
    cell. `pts[n]` is node n's points-to set as an int bitset whose bit i
    stands for site `bit_site[i]`; bit 0 is always Null. Verdicts and the
    soundness replay test bits directly. Sets are built only when asked for:
    `pt`/`pt_field` build one, and `materialized` builds all of them once,
    for `var_pt`, `field_pt` and `==`. `pops` counts worklist pops (0 for
    the naive solver).
    """

    def __init__(self, ids: dict[object, int], pts: list[int], bit_site: list[int], pops: int = 0):
        self.ids = ids
        self.pts = pts
        self.bit_site = bit_site
        self.site_bit = {site: i for i, site in enumerate(bit_site)}
        self.pops = pops

    @classmethod
    def from_sets(
        cls, var_pt: dict[str, set[int]], field_pt: dict[tuple[int, str], set[int]]
    ) -> "PointsToSolution":
        """Pack set-valued points-to maps into bitsets; empty sets are dropped."""
        items = [(k, v) for k, v in (*var_pt.items(), *field_pt.items()) if v]
        sites = {site for _, v in items for site in v} - {NULL_SITE}
        sol = cls({}, [], [NULL_SITE, *sorted(sites)])
        for key, v in items:
            sol.ids[key] = len(sol.pts)
            sol.pts.append(sum(1 << sol.site_bit[site] for site in v))
        return sol

    def bits(self, key: object) -> int:
        """Bitset of a var key or a (site, field) cell; 0 if never reached."""
        n = self.ids.get(key)
        return 0 if n is None else self.pts[n]

    def holds(self, bits: int, site: int) -> bool:
        """Whether the bitset `bits` contains `site`."""
        i = self.site_bit.get(site)
        return i is not None and bool(bits >> i & 1)

    def sites(self, bits: int) -> list[int]:
        return _sites(bits, self.bit_site)

    def pt(self, key: str) -> set[int]:
        return set(self.sites(self.bits(key)))

    def pt_field(self, site: int, fname: str) -> set[int]:
        return set(self.sites(self.bits((site, fname))))

    @cached_property
    def materialized(self) -> tuple[dict[str, set[int]], dict[tuple[int, str], set[int]]]:
        """(var_pt, field_pt): every non-empty var and cell set as a set."""
        var_pt: dict[str, set[int]] = {}
        field_pt: dict[tuple[int, str], set[int]] = {}
        for key, n in self.ids.items():
            if self.pts[n]:
                target = var_pt if isinstance(key, str) else field_pt
                target[key] = set(self.sites(self.pts[n]))
        return var_pt, field_pt

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


def solve_naive(constraints: Constraints) -> PointsToSolution:
    """Fixpoint by repeated full passes over the constraints, on plain sets:
    the reference the worklist solver is checked against.

    The Null site is stripped from a tagged variable as soon as it lands:
    filtering once per pass instead would let Null pass through a tagged
    variable within the pass.
    """
    var_pt: dict[str, set[int]] = {}
    field_pt: dict[tuple[int, str], set[int]] = {}
    tagged = constraints.tagged

    def add_var(key: str, sites: set[int]) -> None:
        if key in tagged:
            sites = sites - {NULL_SITE}
        var_pt.setdefault(key, set()).update(sites)

    def snapshot():
        return (
            {k: frozenset(v) for k, v in var_pt.items() if v},
            {k: frozenset(v) for k, v in field_pt.items() if v},
        )

    old = snapshot()
    while True:
        for key, site in constraints.base:
            add_var(key, {site})
        for src, dst in constraints.copies:
            if var_pt.get(src):
                add_var(dst, var_pt[src])
        for base, fname, dst in constraints.loads:
            for site in sorted(var_pt.get(base, ())):
                cell = field_pt.get((site, fname))
                if cell:
                    add_var(dst, cell)
        for base, fname, src in constraints.stores:
            if not var_pt.get(src):
                continue
            for site in sorted(var_pt.get(base, ())):
                field_pt.setdefault((site, fname), set()).update(var_pt[src])
        new = snapshot()
        if new == old:
            return PointsToSolution.from_sets(var_pt, field_pt)
        old = new


def _copy_order(copies: list[tuple[str, str]]) -> list[str]:
    """The keys of the copy graph in reverse post-order: where the graph has
    no cycle, every key comes after all the keys that copy into it."""
    succ: dict[str, list[str]] = {}
    for src, dst in copies:
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    return postorder(succ, succ)[::-1]


def solve_worklist(constraints: Constraints) -> PointsToSolution:
    """Constraint-graph solver with difference propagation; same least
    fixpoint as solve_naive, much faster on long copy chains.

    Every var key and every (site, field) cell is interned to a dense node
    id. Var keys are numbered first, in reverse post-order of the copy graph
    (`_copy_order`); cells get the next free id when a load or store first
    reaches them. Sites are numbered densely too, Null as bit 0 and the rest
    in ascending order (site ids need not be small), and a points-to set is
    an int bitset over those numbers. Each node has an admit mask that
    clears the Null bit on tagged keys, so the filter runs at every
    insertion. Each node carries one pending delta and sits on the worklist
    at most once: it is pushed only when that delta turns non-zero. The
    worklist is a min-heap over node ids, so a node whose copy sources are
    also pending is popped after them and passes on their bits in one
    visit. Copy edges pass the whole delta with one `|`; only load and
    store bases walk its sites. The solution is a view over the final
    bitsets; no set is built here.
    """
    ids: dict[object, int] = {}
    pts: list[int] = []
    pending: list[int] = []
    mask: list[int] = []
    succ: list[set[int]] = []
    loads: dict[int, list[tuple[str, int]]] = {}
    stores: dict[int, list[tuple[str, int]]] = {}
    work: list[int] = []
    tagged = constraints.tagged
    bit_site = [NULL_SITE, *sorted({site for _, site in constraints.base} - {NULL_SITE})]
    site_bit = {site: i for i, site in enumerate(bit_site)}

    def node(key: object) -> int:
        n = ids.get(key)
        if n is None:
            n = ids[key] = len(pts)
            pts.append(0)
            pending.append(0)
            mask.append(~NULL_BIT if key in tagged else -1)
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

    for key in _copy_order(constraints.copies):
        node(key)
    for base, fname, dst in constraints.loads:
        loads.setdefault(node(base), []).append((fname, node(dst)))
    for base, fname, src in constraints.stores:
        stores.setdefault(node(base), []).append((fname, node(src)))
    for src, dst in constraints.copies:
        add_edge(node(src), node(dst))
    for key, site in constraints.base:
        add(node(key), 1 << site_bit[site])

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
                    add_edge(node((site, fname)), dst)
            for fname, src in stores.get(n, ()):
                for site in sites:
                    add_edge(src, node((site, fname)))
        for dst in succ[n]:
            add(dst, delta)
    return PointsToSolution(ids, pts, bit_site, pops)


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
            nxt |= sol.bits((site, f))
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
