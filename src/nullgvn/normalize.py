"""Control-flow normalization: loop lifting, topological order, dominators, SSA."""

from __future__ import annotations

import functools
import heapq
import operator

from .ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Assume,
    Block,
    Call,
    Diagnostic,
    Goto,
    NullCheck,
    Path,
    Procedure,
    Program,
    Return,
    Store,
    cfg_is_acyclic,
    make_version,
    postorder,
    predecessors,
    stmt_reads,
    stmt_writes,
    successors,
)


class CycleError(Exception):
    """Raised when a topological order is requested for a cyclic CFG."""


class LiftError(Exception):
    """Raised for control flow that loop lifting cannot handle."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def topo_sort(proc: Procedure) -> list[str]:
    """Topological order of block labels; ties broken by declaration order."""
    index = {b.label: i for i, b in enumerate(proc.blocks)}
    succ = successors(proc)
    indeg = {b.label: 0 for b in proc.blocks}
    for label, targets in succ.items():
        for t in set(targets):
            indeg[t] += 1
    ready = [index[l] for l, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        label = proc.blocks[heapq.heappop(ready)].label
        order.append(label)
        # the heap pops the lowest index whatever the order of pushes
        for t in set(succ[label]):
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, index[t])
    if len(order) != len(proc.blocks):
        raise CycleError(f"procedure {proc.name}: control-flow graph has a cycle")
    return order


def dominators(proc: Procedure) -> dict[str, set[str]]:
    """Standard dominance relation, dom[B] = blocks on every entry-to-B path.

    Works on cyclic graphs (iterative dataflow); blocks unreachable from the
    entry keep the full block set, the usual lattice-top convention.
    """
    labels = [b.label for b in proc.blocks]
    all_blocks = set(labels)
    preds = predecessors(proc)
    dom = {l: set(all_blocks) for l in labels}
    dom[proc.entry_block] = {proc.entry_block}
    changed = True
    while changed:
        changed = False
        for l in labels:
            if l == proc.entry_block:
                continue
            ps = preds[l]
            if ps:
                new = set.intersection(*(dom[p] for p in ps)) | {l}
            else:
                new = set(all_blocks)
            if new != dom[l]:
                dom[l] = new
                changed = True
    return dom


# ---------------------------------------------------------------------------
# Loop lifting
# ---------------------------------------------------------------------------

def _back_edges(proc: Procedure, dom: dict[str, set[str]]) -> list[tuple[str, str]]:
    edges = []
    for b in proc.blocks:
        if isinstance(b.transfer, Goto):
            for t in b.transfer.targets:
                if t in dom[b.label]:
                    edges.append((b.label, t))
    return edges


def _loop_body(proc: Procedure, header: str, latches: list[str]) -> set[str]:
    """Natural loop body: header plus blocks reaching a latch without passing it."""
    return {header, *postorder({**predecessors(proc), header: []}, latches)}


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        taken.add(base)
        return base
    i = 2
    while f"{base}_{i}" in taken:
        i += 1
    name = f"{base}_{i}"
    taken.add(name)
    return name


def _region_vars(proc: Procedure, labels: set[str], globals_: set[str]) -> tuple[list[str], list[str]]:
    """(reads, writes) of procedure-scope variables within the given blocks,
    both in declaration order."""
    reads: set[str] = set()
    writes: set[str] = set()
    for b in proc.blocks:
        if b.label not in labels:
            continue
        for stmt in b.stmts:
            reads.update(stmt_reads(stmt))
            writes.update(stmt_writes(stmt))
    scope = proc.scope_vars()
    return (
        [v for v in scope if v in reads and v not in globals_],
        [v for v in scope if v in writes and v not in globals_],
    )


def _retarget(block: Block, mapping: dict[str, str]) -> None:
    if isinstance(block.transfer, Goto):
        block.transfer = Goto(tuple(mapping.get(t, t) for t in block.transfer.targets))


def _prune_unreachable(proc: Procedure) -> None:
    seen = set(postorder(successors(proc), [proc.entry_block]))
    proc.blocks = [b for b in proc.blocks if b.label in seen]


def _lift_one(program: Program, proc: Procedure, header: str, latches: list[str]) -> None:
    """Extract the loop at `header` into a fresh recursive procedure.

    Loops whose exit edges all share one target keep the minimal interface
    (params = variables read in the body, returns = variables written); the
    caller continues at the exit target. Loops with several distinct exit
    targets are lifted together with their whole continuation, since the
    caller cannot otherwise replay which exit an execution took.
    """
    globals_ = set(program.globals)
    proc_names = {p.name for p in program.procedures}
    labels = {b.label for b in proc.blocks}
    succ = successors(proc)
    body = _loop_body(proc, header, latches)
    exit_targets = sorted(
        {t for b in body for t in succ[b] if t not in body},
        key=[b.label for b in proc.blocks].index,
    )
    block_map = proc.block_map()
    new_name = _fresh(f"loop_{header}", proc_names)

    if len(exit_targets) == 1:
        region = body
        params, returns = _region_vars(proc, region, globals_)
        new_locals = []  # every variable the body mentions is passed in or out
    else:
        # Whole continuation: everything reachable from the header.
        region = set(postorder(succ, [header]))
        reads, writes = _region_vars(proc, region, globals_)
        params = [v for v in proc.scope_vars() if v in set(reads) | set(proc.returns)]
        returns = list(proc.returns)
        new_locals = [v for v in writes if v not in params and v not in returns]

    region_blocks = [block_map[header]] + [
        b for b in proc.blocks if b.label in region and b.label != header
    ]
    lifted_blocks = [Block(b.label, list(b.stmts), b.transfer) for b in region_blocks]
    lifted_labels = {b.label for b in lifted_blocks}
    rec_label = _fresh("rec", set(lifted_labels))
    rec_call = Call(tuple(returns), new_name, tuple(params))
    retarget = {header: rec_label}
    if len(exit_targets) == 1:
        exit_label = _fresh("exit", lifted_labels | {rec_label})
        retarget[exit_targets[0]] = exit_label
    for b in lifted_blocks:
        _retarget(b, retarget)
    lifted_blocks.append(Block(rec_label, [rec_call], Return()))
    if len(exit_targets) == 1:
        lifted_blocks.append(Block(exit_label, [], Return()))

    lifted = Procedure(
        name=new_name,
        params=list(params),
        returns=list(returns),
        locals=new_locals,
        blocks=lifted_blocks,
        entry_block=header,
    )

    # Rewire the original procedure: every jump to the header becomes a call.
    call_label = _fresh(f"call_{header}", set(labels) | {rec_label})
    call_stmt = Call(tuple(returns), new_name, tuple(params))
    if len(exit_targets) == 1:
        call_block = Block(call_label, [call_stmt], Goto((exit_targets[0],)))
    else:
        call_block = Block(call_label, [call_stmt], Return())
    for b in proc.blocks:
        _retarget(b, {header: call_label})
    if proc.entry_block == header:
        proc.blocks = [call_block] + [b for b in proc.blocks if b.label != header]
        proc.entry_block = call_label
    else:
        insert_at = next(i for i, b in enumerate(proc.blocks) if b.label == header)
        proc.blocks = (
            proc.blocks[:insert_at] + [call_block] + proc.blocks[insert_at + 1 :]
        )
    _prune_unreachable(proc)
    program.procedures.append(lifted)


def lift_loops(program: Program) -> Program:
    """Replace every natural loop by a fresh recursive procedure.

    Afterwards every procedure's CFG is acyclic. Irreducible control flow
    (a cycle with no dominating header) is rejected with a diagnostic.
    """
    prog = program.clone()
    budget = 10_000
    # Lifting rewrites only the current procedure and appends the lifted
    # one, which this loop then visits in turn.
    for proc in prog.procedures:
        while not cfg_is_acyclic(proc):
            dom = dominators(proc)
            edges = _back_edges(proc, dom)
            if not edges:
                raise LiftError(
                    Diagnostic(
                        "error",
                        "irreducible control flow: cycle has no dominating header",
                        where=f"procedure {proc.name}",
                    )
                )
            # Outermost header first: smallest dominator set is nearest the entry.
            header = min(
                {h for _, h in edges},
                key=lambda h: (len(dom[h]), [b.label for b in proc.blocks].index(h)),
            )
            budget -= 1
            if budget < 0:
                raise LiftError(
                    Diagnostic("error", "loop lifting did not converge", where="program")
                )
            _lift_one(prog, proc, header, [u for u, h in edges if h == header])
    return prog


# ---------------------------------------------------------------------------
# SSA renaming
# ---------------------------------------------------------------------------

def _single_return(proc: Procedure) -> None:
    """Route all returns through one exit block so the returns list is
    well-defined after renaming."""
    rets = [b for b in proc.blocks if isinstance(b.transfer, Return)]
    if len(rets) <= 1:
        return
    exit_label = _fresh("exit", {b.label for b in proc.blocks})
    for b in rets:
        b.transfer = Goto((exit_label,))
    proc.blocks.append(Block(exit_label, [], Return()))


def to_ssa(program: Program) -> Program:
    """Rename procedure-scope variables so each has a single assignment.

    Merge points get copies at the end of each predecessor block instead of
    phi statements; those copies are the one sanctioned exception to the
    single-assignment rule (one copy per predecessor, same target). Merges
    are materialized only for variables live at the join, otherwise the
    copy itself could read a variable that one incoming path never
    assigned. Globals are never renamed, their dataflow crosses procedures.
    """
    prog = program.clone()
    globals_ = set(prog.globals)
    for proc in prog.procedures:
        _ssa_proc(proc, globals_)
    return prog


def _live_at_entry(proc: Procedure, order: list[str]) -> dict[str, set[str]]:
    """Backward liveness over original names; the returns list counts as a
    read at every return block. `order` is a topological order of the
    (acyclic) CFG, so one pass against it visits every block after all of
    its successors."""
    succ = successors(proc)
    block_map = proc.block_map()
    live_in: dict[str, set[str]] = {}
    for label in reversed(order):
        block = block_map[label]
        live: set[str] = set()
        for s in succ[label]:
            live |= live_in[s]
        if isinstance(block.transfer, Return):
            live.update(proc.returns)
        for stmt in reversed(block.stmts):
            # `stmt_writes` and `stmt_reads`, spelt out for the kinds that
            # touch at most one variable each way
            kind = type(stmt)
            if kind is Assign:
                live.discard(stmt.lhs)
                live.add(stmt.rhs.base)
            elif kind is Alloc or kind is AssignNull:
                live.discard(stmt.lhs)
            elif kind is Assume or kind is Assert:
                if type(stmt.cond) is NullCheck:
                    live.add(stmt.cond.path.base)
            else:
                live.difference_update(stmt_writes(stmt))
                live.update(stmt_reads(stmt))
        live_in[label] = live
    return live_in


def _ssa_proc(proc: Procedure, globals_: set[str]) -> None:
    _single_return(proc)
    order = topo_sort(proc)
    preds = predecessors(proc)
    block_map = proc.block_map()
    scope = proc.scope_vars()
    rank = {v: i for i, v in enumerate(scope)}
    live_in = _live_at_entry(proc, order)
    declared = set(scope) | globals_
    counts: dict[str, int] = {}
    new_names: list[str] = []

    def version(name: str) -> str:
        n = counts.get(name, 0) + 1
        counts[name] = n
        if n == 1:
            return name
        fresh = make_version(name, n)
        # Source text may declare a name of the generated shape `x__N`.
        while fresh in declared:
            n += 1
            fresh = make_version(name, n)
        counts[name] = n
        new_names.append(fresh)
        return fresh

    # A block's environment maps every procedure-scope variable to the
    # version that holds its value, and every global to itself: globals are
    # read as they are and never renamed. A statement that renames nothing
    # is kept as it is.
    exit_env: dict[str, dict[str, str]] = {}
    for label in order:
        block = block_map[label]
        ps = preds[label]
        if len(ps) == 1:
            env = exit_env[ps[0]].copy()
        elif not ps:
            env = {v: v for v in (*globals_, *scope)}
        else:
            envs = [exit_env[p] for p in ps]
            env = dict(functools.reduce(operator.and_, (e.items() for e in envs)))
            # The variables whose versions differ, merged in declaration
            # order, which numbers the merged versions.
            for v in sorted(envs[0].keys() - env.keys(), key=rank.__getitem__):
                if v in live_in[label]:
                    merged = version(v)
                    for p, incoming in zip(ps, envs):
                        block_map[p].stmts.append(Assign(merged, Path(incoming[v])))
                    env[v] = merged
                else:
                    # Dead at the join: any predecessor's version will do,
                    # nothing reads it before the next assignment.
                    env[v] = envs[0][v]
        renamed = []
        for stmt in block.stmts:
            kind = type(stmt)
            if kind is Assign:
                rhs, lhs = stmt.rhs, stmt.lhs
                base = env[rhs.base]
                if base is not rhs.base:
                    rhs = Path(base, rhs.fields)
                if lhs not in globals_:
                    lhs = version(lhs)
                    env[stmt.lhs] = lhs
                if lhs is not stmt.lhs or rhs is not stmt.rhs:
                    stmt = Assign(lhs, rhs)
            elif kind is Alloc or kind is AssignNull:
                lhs = stmt.lhs
                if lhs not in globals_:
                    lhs = version(lhs)
                    env[stmt.lhs] = lhs
                    if lhs is not stmt.lhs:
                        stmt = Alloc(lhs, stmt.site) if kind is Alloc else AssignNull(lhs)
            elif kind is Store:
                base, src = env[stmt.base], env[stmt.src]
                if base is not stmt.base or src is not stmt.src:
                    stmt = Store(base, stmt.field, src)
            elif kind is Assume or kind is Assert:
                cond = stmt.cond
                if type(cond) is NullCheck:
                    path = cond.path
                    base = env[path.base]
                    if base is not path.base:
                        stmt = kind(NullCheck(Path(base, path.fields), cond.negated))
            elif kind is Call:
                args = tuple([env[a] for a in stmt.args])
                outs = []
                for out in stmt.outs:
                    if out not in globals_:
                        fresh = version(out)
                        env[out] = fresh
                        out = fresh
                    outs.append(out)
                stmt = Call(tuple(outs), stmt.callee, args)
            else:
                raise TypeError(f"unknown statement {stmt!r}")
            renamed.append(stmt)
        block.stmts = renamed
        exit_env[label] = env

    ret_blocks = [b for b in proc.blocks if isinstance(b.transfer, Return)]
    old_returns = list(proc.returns)
    if ret_blocks and proc.returns:
        env = exit_env[ret_blocks[0].label]
        proc.returns = [env[r] for r in proc.returns]
    proc.locals = proc.locals + new_names
    # A renamed returns list may orphan the original names, which remain in
    # use as the first version; they turn into plain locals.
    for r in old_returns:
        if r not in proc.returns and r not in proc.locals and r not in proc.params:
            proc.locals.append(r)
