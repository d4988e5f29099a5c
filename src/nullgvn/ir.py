"""Pointer-program intermediate representation: statements, blocks, procedures.

Every node class is a `Node`: its fields are its `__slots__`, so a node
carries no per-instance `__dict__` and a program holds one small object per
statement, path and block.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from typing import TypeVar

# Allocation sites are plain non-negative ints; site 0 stands for Null.
NULL_SITE = 0

# Generated names: SSA versions `x__N` and tagged temporaries `gvnTmp__gvnN`.
# Source text may use `__` only in names of these two forms.
_TAGGED_RE = re.compile(r"__gvn(\d+)$")
_VERSION_RE = re.compile(r"^(.+?)__(\d+)$")
_GENERATED_RE = re.compile(r"__(gvn)?\d+$")

T = TypeVar("T")


def is_tagged(name: str) -> bool:
    """True for temporaries introduced by the value-numbering pass.

    Tagged variables carry the invariant that they are never Null at
    runtime; the points-to solver strips the Null site from them.
    """
    return _TAGGED_RE.search(name) is not None


def make_tagged(index: int) -> str:
    return f"gvnTmp__gvn{index}"


def tag_index(name: str) -> int | None:
    """The N of a tagged temporary `...__gvnN`, or None for any other name."""
    m = _TAGGED_RE.search(name)
    return int(m.group(1)) if m else None


def make_version(name: str, n: int) -> str:
    """The name of the n-th SSA version of `name`."""
    return f"{name}__{n}"


def original_name(name: str) -> str:
    """Map an SSA version name (x__2, x__3, ...) back to its source variable."""
    m = _VERSION_RE.match(name)
    if m:
        return m.group(1)
    return name


def is_reserved_name(name: str) -> bool:
    """True for a name that contains `__` but is not a generated name."""
    return "__" in name and _GENERATED_RE.search(name) is None


class Node:
    """Base of the IR classes. A subclass lists its fields in `__slots__`,
    and defaults for trailing fields in `_defaults`; unless it writes its
    own, it gets an `__init__`, compiled once when the class is defined,
    that takes the fields by position or keyword. `Node` gives field-wise
    `__eq__`, `__hash__` and `__repr__`, `__reduce__` for copy and pickle,
    and `replace`. A subclass is frozen and hashable unless declared with
    `frozen=False`, which makes it mutable and unhashable."""

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        params = [f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in names]
        sets = [f"_set(self, {n!r}, {n})" if frozen else f"self.{n} = {n}" for n in names]
        namespace: dict = {}
        exec(
            f"def __init__(self, {', '.join(params)}):\n {'; '.join(sets) or 'pass'}\n"
            f"def _values(self):\n return ({''.join(f'self.{n}, ' for n in names)})\n",
            {"_set": object.__setattr__, "_defaults": cls._defaults},
            namespace,
        )
        if "__init__" not in cls.__dict__:
            cls.__init__ = namespace["__init__"]
        cls._values = namespace["_values"]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _frozen
        else:
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy of the node with the given fields changed."""
        return self.__class__(**dict(zip(self.__slots__, self._values()), **changes))


def _frozen(self, name, *value):
    """`__setattr__` and `__delattr__` of a frozen node."""
    raise AttributeError(f"cannot set or delete field {name!r} of a frozen {type(self).__name__}")


# ---------------------------------------------------------------------------
# Expressions and conditions
# ---------------------------------------------------------------------------

class Path(Node):
    """An access path: a base variable plus zero or more field selectors."""

    __slots__ = ("base", "fields")
    _defaults = {"fields": ()}

    def __str__(self) -> str:
        return ".".join((self.base, *self.fields))


class NullCheck(Node):
    """Condition of the form `path != Null` (negated=True) or `path == Null`."""

    __slots__ = ("path", "negated")

    def __str__(self) -> str:
        op = "!=" if self.negated else "=="
        return f"({self.path} {op} Null)"


class Opaque(Node):
    """A condition the analysis does not model; written `*` in source."""

    __slots__ = ()

    def __str__(self) -> str:
        return "*"


Cond = NullCheck | Opaque


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Assign(Node):
    """`x := y` or `x := y.f.g`; covers plain copies and field reads."""

    __slots__ = ("lhs", "rhs")


class Alloc(Node):
    """`x := new(site)`; site ids are positive and unique program-wide."""

    __slots__ = ("lhs", "site")


class AssignNull(Node):
    __slots__ = ("lhs",)


class Store(Node):
    """`x.f := y`; single-level stores only, source must be a variable."""

    __slots__ = ("base", "field", "src")


class Assume(Node):
    __slots__ = ("cond",)


class Assert(Node):
    __slots__ = ("cond",)


class Call(Node):
    """`o1, ... := call p(a1, ...)`; outs may be empty."""

    __slots__ = ("outs", "callee", "args")


Statement = Assign | Alloc | AssignNull | Store | Assume | Assert | Call


class Goto(Node):
    """Nondeterministic jump to one of the listed labels."""

    __slots__ = ("targets",)


class Return(Node):
    __slots__ = ()


Transfer = Goto | Return


# ---------------------------------------------------------------------------
# Program structure
# ---------------------------------------------------------------------------

class Block(Node, frozen=False):
    __slots__ = ("label", "stmts", "transfer")


class Procedure(Node, frozen=False):
    __slots__ = ("name", "params", "returns", "locals", "blocks", "entry_block")

    def block_map(self) -> dict[str, Block]:
        return {b.label: b for b in self.blocks}

    def scope_vars(self) -> list[str]:
        """Procedure-scope variables in declaration order (no duplicates)."""
        return list(dict.fromkeys((*self.params, *self.locals, *self.returns)))


class Program(Node, frozen=False):
    __slots__ = ("globals", "procedures", "entry")

    def proc_map(self) -> dict[str, Procedure]:
        return {p.name: p for p in self.procedures}

    def clone(self) -> "Program":
        """A copy a pass may rewrite in place: fresh lists, blocks and
        procedures, sharing the frozen statements and transfers."""
        procedures = [
            Procedure(p.name, list(p.params), list(p.returns), list(p.locals),
                      [Block(b.label, list(b.stmts), b.transfer) for b in p.blocks],
                      p.entry_block)
            for p in self.procedures
        ]
        return Program(list(self.globals), procedures, self.entry)


class Diagnostic(Node):
    __slots__ = ("severity", "message", "file", "line", "col", "where")
    _defaults = {"file": "", "line": 0, "col": 0, "where": ""}

    def __str__(self) -> str:
        loc = ""
        if self.file:
            loc = f"{self.file}:{self.line}:{self.col}: "
        elif self.where:
            loc = f"{self.where}: "
        return f"{loc}{self.severity}: {self.message}"


# ---------------------------------------------------------------------------
# Statement and CFG queries
# ---------------------------------------------------------------------------

def stmt_writes(stmt: Statement) -> tuple[str, ...]:
    """Variables assigned by a statement (call outputs count as assignments)."""
    if isinstance(stmt, (Assign, Alloc, AssignNull)):
        return (stmt.lhs,)
    if isinstance(stmt, Call):
        return stmt.outs
    return ()


def stmt_reads(stmt: Statement) -> tuple[str, ...]:
    """Variables read by a statement. Field names are not variables."""
    if isinstance(stmt, Assign):
        return (stmt.rhs.base,)
    if isinstance(stmt, Store):
        return (stmt.base, stmt.src)
    if isinstance(stmt, (Assume, Assert)):
        if isinstance(stmt.cond, NullCheck):
            return (stmt.cond.path.base,)
        return ()
    if isinstance(stmt, Call):
        return stmt.args
    return ()


def successors(proc: Procedure) -> dict[str, tuple[str, ...]]:
    out = {}
    for b in proc.blocks:
        if isinstance(b.transfer, Goto):
            out[b.label] = b.transfer.targets
        else:
            out[b.label] = ()
    return out


def predecessors(proc: Procedure) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in proc.blocks}
    for b in proc.blocks:
        if isinstance(b.transfer, Goto):
            for t in b.transfer.targets:
                if t in preds and b.label not in preds[t]:
                    preds[t].append(b.label)
    return preds


def postorder(succ: Mapping[T, Iterable[T]], roots: Iterable[T]) -> list[T]:
    """The nodes reachable from `roots`, in depth-first post-order.

    Roots and each node's successors are taken in the order given; a node
    is visited once, from the first root and edge that reaches it. The walk
    keeps its own stack, so long chains need no recursion.
    """
    post: list[T] = []
    seen: set[T] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, out = stack[-1]
            for nxt in out:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                post.append(node)
    return post


def cfg_is_acyclic(proc: Procedure) -> bool:
    """True iff the block-level goto graph has no cycle: every edge, a
    self-loop included, runs forward in reverse post-order."""
    succ = successors(proc)
    rank = {label: i for i, label in enumerate(reversed(postorder(succ, succ)))}
    return all(rank[u] < rank[v] for u, targets in succ.items() for v in targets)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _where(proc: str, block: str | None = None, index: int | None = None) -> str:
    """The location a validation diagnostic names."""
    where = f"procedure {proc}"
    if block is not None:
        where += f", block {block}"
    if index is not None:
        where += f", stmt {index}"
    return where


def validate(program: Program) -> list[Diagnostic]:
    """Check all structural invariants; returns an empty list iff they hold.

    Each statement's names are gathered once and checked against the scope
    in one set query; a location is spelt out only for a diagnostic.
    """
    diags: list[Diagnostic] = []

    def err(message: str, *at) -> None:
        """`at` locates the error: (procedure[, block[, statement index]])."""
        diags.append(Diagnostic("error", message, where=_where(*at) if at else ""))

    names = [p.name for p in program.procedures]
    for n in sorted({n for n in names if names.count(n) > 1}):
        err(f"duplicate procedure name '{n}'")
    procs = program.proc_map()
    if program.entry not in procs:
        err(f"entry procedure '{program.entry}' is not defined")
    elif procs[program.entry].params:
        err(f"entry procedure '{program.entry}' must take no parameters")

    globals_ = set(program.globals)
    seen_sites: dict[int, tuple[str, str, int]] = {}
    tagged_assigns: dict[str, int] = {}
    tagged_seen: set[str] = set()

    for proc in program.procedures:
        params, locals_, returns = set(proc.params), set(proc.locals), set(proc.returns)
        if params & locals_:
            err(f"params and locals overlap: {sorted(params & locals_)}", proc.name)
        clash = (params | locals_) & globals_
        if clash:
            err(f"globals shadowed by procedure-scope names: {sorted(clash)}", proc.name)
        if len(proc.returns) != len(returns):
            err("duplicate names in returns list", proc.name)
        if returns & globals_:
            err(f"returns may not name globals: {sorted(returns & globals_)}", proc.name)
        scope = params | locals_ | returns | globals_
        tagged = {v for v in scope if is_tagged(v)}

        labels = [b.label for b in proc.blocks]
        label_set = set(labels)
        if len(labels) != len(label_set):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            err(f"duplicate block labels: {dupes}", proc.name)
        if not proc.blocks:
            err("procedure has no blocks", proc.name)
            continue
        if proc.entry_block not in label_set:
            err(f"entry block '{proc.entry_block}' is not a declared label", proc.name)
        elif proc.entry_block != proc.blocks[0].label:
            err("entry block must be the first block", proc.name)

        for block in proc.blocks:
            transfer = block.transfer
            if type(transfer) is Goto and not (
                transfer.targets and label_set.issuperset(transfer.targets)
            ):
                if not transfer.targets:
                    err("goto with no targets", proc.name, block.label)
                for t in transfer.targets:
                    if t not in label_set:
                        err(f"goto to undeclared label '{t}'", proc.name, block.label)
            for i, stmt in enumerate(block.stmts):
                # reads, then writes: `stmt_reads` and `stmt_writes`, spelt
                # out for the kinds that touch at most one variable each way
                kind = type(stmt)
                if kind is Assign:
                    names = (stmt.rhs.base, stmt.lhs)
                elif kind is Alloc or kind is AssignNull:
                    names = (stmt.lhs,)
                elif kind is Assume or kind is Assert:
                    names = (stmt.cond.path.base,) if type(stmt.cond) is NullCheck else ()
                else:
                    names = (*stmt_reads(stmt), *stmt_writes(stmt))
                if scope.issuperset(names):
                    mentions_tagged = tagged and not tagged.isdisjoint(names)
                else:
                    for v in names:
                        if v not in scope:
                            err(f"undeclared variable '{v}'", proc.name, block.label, i)
                    mentions_tagged = any(map(is_tagged, names))
                if kind is Alloc:
                    site = stmt.site
                    if site <= 0:
                        err(
                            f"allocation site id must be positive, got {site}",
                            proc.name, block.label, i,
                        )
                    elif site in seen_sites:
                        err(
                            f"allocation site {site} already used in {_where(*seen_sites[site])}",
                            proc.name, block.label, i,
                        )
                    else:
                        seen_sites[site] = (proc.name, block.label, i)
                elif kind is Call:
                    callee = procs.get(stmt.callee)
                    if callee is None:
                        err(
                            f"call to undefined procedure '{stmt.callee}'",
                            proc.name, block.label, i,
                        )
                    else:
                        if len(stmt.args) != len(callee.params):
                            err(
                                f"call to '{stmt.callee}' passes {len(stmt.args)} args, "
                                f"expects {len(callee.params)}",
                                proc.name, block.label, i,
                            )
                        if len(stmt.outs) != len(callee.returns):
                            err(
                                f"call to '{stmt.callee}' binds {len(stmt.outs)} outputs, "
                                f"callee returns {len(callee.returns)}",
                                proc.name, block.label, i,
                            )
                if mentions_tagged:
                    for v in stmt_writes(stmt):
                        if is_tagged(v):
                            tagged_assigns[v] = tagged_assigns.get(v, 0) + 1
                    tagged_seen.update(filter(is_tagged, names))

    for v in sorted(tagged_seen):
        n = tagged_assigns.get(v, 0)
        if n != 1:
            err(f"tagged variable '{v}' has {n} assignments, expected exactly 1")

    return diags
