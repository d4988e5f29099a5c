"""Value-numbering transformation that propagates non-null facts.

Two passes per program. The first inserts a fresh tagged temporary
`gvnTmp__gvnN := e` after every `assume (e != Null)` / `assert (e != Null)`,
so the fact "e is non-null here" gets a name that is never reassigned.
The second, `_number`, walks each procedure's blocks in topological order,
numbers expressions with opaque terms (equal terms mean equal runtime
values), and substitutes expressions whose term is known non-null with the
tagged temporary that carries the same value. Each block keeps one facts
record: variable -> term, the non-null terms, and term -> tagged variable;
the field tables and each tagged variable's expression are per procedure.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from . import normalize
from .ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Assume,
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
    """One past the largest N of any declared `gvnTmp__gvnN`, global or local."""
    names = itertools.chain(program.globals, *(p.scope_vars() for p in program.procedures))
    return max((tag_index(name) or 0 for name in names), default=0) + 1


def _harvest(cond) -> Path | None:
    """The expression a condition proves non-null, if any."""
    if isinstance(cond, NullCheck) and cond.negated:
        return cond.path
    return None


def insert_tagged_assignments(program: Program, namer=None) -> Program:
    """After each non-null assume/assert, assign the checked expression to a
    fresh tagged variable, numbered by `namer` (by default from one past
    every declared tag). Returns a new program; nothing else changes."""
    prog = program.clone()
    if namer is None:
        namer = itertools.count(_next_tag_index(prog))
    for proc in prog.procedures:
        for block in proc.blocks:
            out = []
            for stmt in block.stmts:
                out.append(stmt)
                if isinstance(stmt, (Assume, Assert)):
                    expr = _harvest(stmt.cond)
                    if expr is not None:
                        tag = make_tagged(next(namer))
                        out.append(Assign(tag, expr))
                        proc.locals.append(tag)
            block.stmts = out
    return prog


class _Facts(NamedTuple):
    """What the numbering knows at a point of one block."""

    values: dict[str, int]   # variable -> term
    non_null: set[int]       # terms known non-null
    tagged: dict[int, str]   # term -> tagged variable assigned it in this block


def _number(proc: Procedure, globals_: set[str], terms, namer, recording) -> None:
    """Number one procedure's expressions and substitute tagged variables.

    Blocks are visited in topological order; fresh terms, tagged names and
    the field-table kills all follow that order. A block starts from the
    facts its predecessors agree on: a copy of its one predecessor's, or the
    intersection of their (variable, term) pairs and non-null terms. Each
    non-null term that a predecessor's tagged variable carries is then
    materialized again by a fresh tagged assignment at the top of the
    block, in term order, if its expression still numbers the same there.
    A statement in which nothing was substituted is kept as it is.
    Terms are opaque integers from `terms`: equal terms mean equal runtime
    values. With `recording`, each statement's (path, term) pairs are
    stored under (procedure, block, statement index).
    """
    # field -> {term: term}, in processing order across blocks; a store to
    # the field or any call drops the tables it may invalidate.
    fields: dict[str, dict[int, int]] = {}
    exprs: dict[str, Path] = {}  # tagged variable -> the expression it was assigned
    facts: dict[str, _Facts] = {}

    def read(path: Path, here: _Facts) -> tuple[Path, int]:
        """The term of `path`, allocating fresh terms on first sight, and
        `path` with its longest prefix that a tagged variable carries (every
        such term is non-null) replaced by that variable."""
        term = here.values.get(path.base)
        if term is None:
            term = here.values[path.base] = next(terms)
        carrier, at = here.tagged.get(term), 0
        for k, f in enumerate(path.fields, 1):
            table = fields.setdefault(f, {})
            nxt = table.get(term)
            if nxt is None:
                nxt = table[term] = next(terms)
            term = nxt
            if term in here.tagged:
                carrier, at = here.tagged[term], k
        if carrier is None:
            return path, term
        return Path(carrier, path.fields[at:]), term

    order = normalize.topo_sort(proc)
    index = {label: i for i, label in enumerate(order)}
    preds = predecessors(proc)
    block_map = proc.block_map()
    for label in order:
        block = block_map[label]
        ins = [facts[p] for p in sorted(preds[label], key=index.get)]
        if len(ins) > 1:
            values = dict(functools.reduce(operator.and_, (f.values.items() for f in ins)))
            here = _Facts(values, set.intersection(*(f.non_null for f in ins)), {})
        elif ins:
            here = _Facts(ins[0].values.copy(), ins[0].non_null.copy(), {})
        else:
            here = _Facts({}, set(), {})
        facts[label] = here
        prefix = []
        # Only a non-null term some predecessor's tagged variable carries
        # has an expression to re-materialize; the first predecessor's wins.
        carriers: dict[int, str] = {}
        for f in reversed(ins):
            carriers.update(f.tagged)
        for term in sorted(here.non_null.intersection(carriers)):
            donor = carriers[term]
            # A store or call since the donor's assignment may have changed
            # what its expression evaluates to; re-evaluating it here would
            # then bind the tagged variable to a different (possibly Null)
            # value, so only an expression that still numbers the same is used.
            if read(exprs[donor], here)[1] == term:
                tag = make_tagged(next(namer))
                proc.locals.append(tag)
                prefix.append(Assign(tag, exprs[donor]))

        # Uses are read against the state before the statement and its
        # target's new term is committed after, so `x := x.f` numbers the old x.
        out = []
        for i, stmt in enumerate(prefix + block.stmts):
            used = []
            if isinstance(stmt, Assign):
                rhs, term = read(stmt.rhs, here)
                here.values[stmt.lhs] = term
                used.append((rhs, term))
                if is_tagged(stmt.lhs):
                    here.non_null.add(term)
                    here.tagged[term] = stmt.lhs
                    exprs.setdefault(stmt.lhs, stmt.rhs)
                if rhs is not stmt.rhs:
                    stmt = Assign(stmt.lhs, rhs)
            elif isinstance(stmt, (Assume, Assert)) and isinstance(stmt.cond, NullCheck):
                used = [read(stmt.cond.path, here)]
                if used[0][0] is not stmt.cond.path:
                    stmt = type(stmt)(NullCheck(used[0][0], stmt.cond.negated))
            elif isinstance(stmt, (Alloc, AssignNull)):
                here.values[stmt.lhs] = next(terms)
            elif isinstance(stmt, Store):
                used = [read(Path(stmt.src), here), read(Path(stmt.base), here)]
                (src, _), (base, _) = used
                # The store may alias any object reaching this field: every
                # term built through it is stale from here on.
                fields.pop(stmt.field, None)
                if (base.base, src.base) != (stmt.base, stmt.src):
                    stmt = Store(base.base, stmt.field, src.base)
            elif isinstance(stmt, Call):
                used = [read(Path(a), here) for a in stmt.args]
                # The callee may store to any field and reassign any global.
                fields.clear()
                for v in (*stmt.outs, *globals_):
                    here.values.pop(v, None)
                args = tuple(p.base for p, _ in used)
                if args != stmt.args:
                    stmt = Call(stmt.outs, stmt.callee, args)
            if recording is not None and used:
                recording[(proc.name, label, i)] = used
            out.append(stmt)
        block.stmts = out


def do_gvn(program: Program, instrument: bool = False):
    """Run the whole transformation; the result is semantically equivalent.

    With instrument=True also returns {(proc, block, stmt index): [(path,
    term), ...]} describing, per rewritten statement, the expressions whose
    terms the pass relied on; the interpreter can replay them to confirm
    that equal terms held equal values.
    """
    namer = itertools.count(_next_tag_index(program))
    prog = insert_tagged_assignments(program, namer)
    terms = itertools.count(1)
    recording: dict | None = {} if instrument else None
    globals_ = set(prog.globals)
    for proc in prog.procedures:
        _number(proc, globals_, terms, namer, recording)
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
