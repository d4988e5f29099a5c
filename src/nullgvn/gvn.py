"""Value-numbering transformation that propagates non-null facts.

Two passes per program. The first inserts a fresh tagged temporary
`gvnTmp__gvnN := e` after every `assume (e != Null)` / `assert (e != Null)`,
so the fact "e is non-null here" gets a name that is never reassigned.
The second walks each procedure's blocks in topological order, numbers
expressions with opaque terms (equal terms mean equal runtime values), and
substitutes expressions whose term is known non-null with the tagged
temporary that carries the same value.
"""

from __future__ import annotations

import itertools

from . import normalize
from .ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Assume,
    Block,
    Call,
    NullCheck,
    Path,
    Procedure,
    Program,
    Store,
    is_tagged,
    make_tagged,
    predecessors,
    stmt_reads,
    stmt_writes,
    tag_index,
)


def _next_tag_index(program: Program) -> int:
    top = 0
    for proc in program.procedures:
        for name in proc.scope_vars():
            index = tag_index(name)
            if index is not None:
                top = max(top, index)
    return top + 1


def _harvest(cond) -> Path | None:
    """The expression a condition proves non-null, if any."""
    if isinstance(cond, NullCheck) and cond.negated:
        return cond.path
    return None


def insert_tagged_assignments(program: Program) -> Program:
    """After each non-null assume/assert, assign the checked expression to a
    fresh tagged variable. Returns a new program; nothing else changes."""
    prog = program.clone()
    counter = itertools.count(_next_tag_index(prog))
    for proc in prog.procedures:
        for block in proc.blocks:
            out = []
            for stmt in block.stmts:
                out.append(stmt)
                if isinstance(stmt, (Assume, Assert)):
                    expr = _harvest(stmt.cond)
                    if expr is not None:
                        tag = make_tagged(next(counter))
                        out.append(Assign(tag, expr))
                        proc.locals.append(tag)
            block.stmts = out
    return prog


class GvnState:
    """Per-procedure state for the numbering pass.

    non_null_exprs : block label -> set of terms known non-null there
    var2expr       : tagged variable -> the expression it was assigned
    default_var    : block label -> {term: tagged variable used to substitute}
    hash_value     : block label -> {variable: term}
    hash_function  : field -> {term: term}, shared across blocks; removing a
                     field invalidates every term built through it
    """

    def __init__(self, globals_: set[str], terms: itertools.count):
        self.non_null_exprs: dict[str, set[int]] = {}
        self.var2expr: dict[str, Path] = {}
        self.default_var: dict[str, dict[int, str]] = {}
        self.hash_value: dict[str, dict[str, int]] = {}
        self.hash_function: dict[str, dict[int, int]] = {}
        self.curr_block: str | None = None
        self.globals = globals_
        self._terms = terms
        # (path, term) pairs for the statement being processed, recorded for
        # the dynamic same-term-same-value check.
        self.last_records: list[tuple[Path, int]] = []

    def new_term(self) -> int:
        return next(self._terms)

    def prefix_terms(self, expr: Path) -> list[int]:
        """Terms for an access path's prefixes, shortest first (element k
        numbers the prefix with k fields), allocating fresh terms on first
        sight."""
        hv = self.hash_value[self.curr_block]
        term = hv.get(expr.base)
        if term is None:
            term = self.new_term()
            hv[expr.base] = term
        terms = [term]
        for f in expr.fields:
            table = self.hash_function.setdefault(f, {})
            nxt = table.get(term)
            if nxt is None:
                nxt = self.new_term()
                table[term] = nxt
            term = nxt
            terms.append(term)
        return terms

    def compute_hash(self, expr: Path) -> int:
        """Term for an access path, allocating fresh terms on first sight."""
        return self.prefix_terms(expr)[-1]

    def get_expr(self, expr: Path) -> Path:
        """Substitute an expression whose term is known non-null.

        The whole expression is tried first, then each shorter prefix,
        keeping the fields that follow it. A term is substitutable only once
        a tagged assignment for it has been processed in this block, hence
        the default_var guard.
        """
        terms = self.prefix_terms(expr)
        default = self.default_var.setdefault(self.curr_block, {})
        non_null = self.non_null_exprs[self.curr_block]
        for k in reversed(range(len(terms))):
            if terms[k] in non_null and terms[k] in default:
                return Path(default[terms[k]], expr.fields[k:])
        return expr

    def _rewrite_var(self, name: str) -> str:
        return self.get_expr(Path(name)).base

    def process_stmt(self, stmt):
        """Rewrite one statement and update the numbering state.

        Uses are rewritten against the pre-statement state; the target's new
        term is committed afterwards, so `x := x.f` hashes the old x.
        """
        self.last_records = []
        hv = self.hash_value[self.curr_block]
        if isinstance(stmt, (Assume, Assert)):
            cond = stmt.cond
            if isinstance(cond, NullCheck):
                path = self.get_expr(cond.path)
                self.last_records.append((path, self.compute_hash(path)))
                cond = NullCheck(path, cond.negated)
            return type(stmt)(cond)
        if isinstance(stmt, Assign):
            term = self.compute_hash(stmt.rhs)
            rhs = self.get_expr(stmt.rhs)
            hv[stmt.lhs] = term
            self.last_records.append((rhs, term))
            return Assign(stmt.lhs, rhs)
        if isinstance(stmt, (Alloc, AssignNull)):
            hv[stmt.lhs] = self.new_term()
            return stmt
        if isinstance(stmt, Store):
            src = self._rewrite_var(stmt.src)
            base = self._rewrite_var(stmt.base)
            self.last_records.append((Path(src), self.compute_hash(Path(src))))
            self.last_records.append((Path(base), self.compute_hash(Path(base))))
            # The store may alias any object reaching this field: every term
            # built through it is stale from here on (in processing order).
            self.hash_function.pop(stmt.field, None)
            return Store(base, stmt.field, src)
        if isinstance(stmt, Call):
            args = tuple(self._rewrite_var(a) for a in stmt.args)
            for a in args:
                self.last_records.append((Path(a), self.compute_hash(Path(a))))
            # The callee may store to any field and reassign any global.
            self.hash_function.clear()
            for out in stmt.outs:
                hv.pop(out, None)
            for g in self.globals:
                hv.pop(g, None)
            return Call(stmt.outs, stmt.callee, args)
        return stmt

    def merge_into_block(self, block: Block, preds: list[str], namer) -> list[Assign]:
        """Start a block: intersect predecessor facts and materialize a fresh
        tagged assignment for each surviving non-null term.

        Returns the assignments to prepend. default_var entries for them are
        filled in when the statement loop processes the assignments, exactly
        like in-block harvests.
        """
        self.curr_block = block.label
        if not preds:
            self.non_null_exprs[block.label] = set()
            self.hash_value[block.label] = {}
            self.default_var[block.label] = {}
            return []
        terms = set.intersection(*(self.non_null_exprs[p] for p in preds))
        merged: dict[str, int] = {}
        for var, term in self.hash_value[preds[0]].items():
            if all(self.hash_value[p].get(var) == term for p in preds[1:]):
                merged[var] = term
        self.non_null_exprs[block.label] = terms
        self.hash_value[block.label] = merged
        self.default_var[block.label] = {}
        prefix = []
        for term in sorted(terms):
            donor = None
            for p in preds:
                if term in self.default_var[p]:
                    donor = self.default_var[p][term]
                    break
            if donor is None:
                continue
            expr = self.var2expr[donor]
            # A store or call between the harvest and this merge may have
            # invalidated the expression; re-evaluating it here would then
            # bind the tagged variable to a different (possibly Null) value.
            # Only terms whose expression still hashes the same are usable.
            if self.compute_hash(expr) != term:
                continue
            tag = make_tagged(next(namer))
            self.var2expr[tag] = expr
            prefix.append(Assign(tag, expr))
        return prefix


def _run_pass(proc: Procedure, globals_: set[str], terms, namer, recording):
    state = GvnState(globals_, terms)
    order = normalize.topo_sort(proc)
    index = {label: i for i, label in enumerate(order)}
    preds = predecessors(proc)
    block_map = proc.block_map()
    for label in order:
        block = block_map[label]
        ordered_preds = sorted(preds[label], key=index.get)
        prefix = state.merge_into_block(block, ordered_preds, namer)
        for tagged_stmt in prefix:
            proc.locals.append(tagged_stmt.lhs)
        block.stmts = prefix + block.stmts
        new_stmts = []
        for i, stmt in enumerate(block.stmts):
            new_stmt = state.process_stmt(stmt)
            if recording is not None and state.last_records:
                recording[(proc.name, label, i)] = list(state.last_records)
            if isinstance(new_stmt, Assign) and is_tagged(new_stmt.lhs):
                term = state.compute_hash(new_stmt.rhs)
                state.non_null_exprs[label].add(term)
                state.default_var[label][term] = new_stmt.lhs
                if new_stmt.lhs not in state.var2expr:
                    state.var2expr[new_stmt.lhs] = stmt.rhs
            new_stmts.append(new_stmt)
        block.stmts = new_stmts


def do_gvn(program: Program, instrument: bool = False):
    """Run the whole transformation; the result is semantically equivalent.

    With instrument=True also returns {(proc, block, stmt index): [(path,
    term), ...]} describing, per rewritten statement, the expressions whose
    terms the pass relied on; the interpreter can replay them to confirm
    that equal terms held equal values.
    """
    prog = insert_tagged_assignments(program)
    namer = itertools.count(_next_tag_index(prog))
    terms = itertools.count(1)
    recording: dict | None = {} if instrument else None
    globals_ = set(prog.globals)
    for proc in prog.procedures:
        _run_pass(proc, globals_, terms, namer, recording)
    if instrument:
        return prog, recording
    return prog


# ---------------------------------------------------------------------------
# Structural obligations
# ---------------------------------------------------------------------------

def check_tagged_dominance(program: Program) -> list[str]:
    """Every use of a tagged variable must be dominated by its unique
    assignment (same block: the assignment comes first). Returns violations."""
    errors = []
    for proc in program.procedures:
        dom = normalize.dominators(proc)
        assigned_at: dict[str, tuple[str, int]] = {}
        for block in proc.blocks:
            for i, stmt in enumerate(block.stmts):
                for v in stmt_writes(stmt):
                    if is_tagged(v):
                        if v in assigned_at:
                            errors.append(f"{proc.name}: '{v}' assigned more than once")
                        assigned_at[v] = (block.label, i)
        for block in proc.blocks:
            for i, stmt in enumerate(block.stmts):
                for v in stmt_reads(stmt):
                    if not is_tagged(v):
                        continue
                    if v not in assigned_at:
                        errors.append(f"{proc.name}: '{v}' used but never assigned")
                        continue
                    def_label, def_idx = assigned_at[v]
                    if def_label == block.label:
                        if def_idx >= i:
                            errors.append(
                                f"{proc.name}, block {block.label}: '{v}' used at "
                                f"stmt {i} before its assignment at {def_idx}"
                            )
                    elif def_label not in dom[block.label]:
                        errors.append(
                            f"{proc.name}: assignment of '{v}' in {def_label} does "
                            f"not dominate use in {block.label}"
                        )
    return errors
