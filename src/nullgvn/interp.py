"""Bounded nondeterministic interpreter: the differential oracle.

Explores every goto choice and both outcomes of opaque conditions, up to a
step budget per path (executed statements and control transfers both count,
so even statement-free cycles terminate). A trace is the sequence of
observable events along one path:

    ("assign", var, value)       assignment through a statement
    ("reassign", var, value)     assignment that leaves the value of its
                                 source variable (SSA versions collapsed)
                                 unchanged in its frame
    ("assert_pass", loc) / ("assert_fail", loc)
    ("null_deref", loc)          field access through Null
    ("assume_blocked", loc)      assume condition was false
    ("unassigned", loc, var)     read of a never-assigned variable
    ("return", values)           normal return of the entry procedure
    ("truncated",)               step budget exhausted

Values are summarized as "null" or ("loc", site, n) where n numbers the
allocations along the path, so summaries line up between a program and its
transformed versions. Parameter, output and return binding is silent: only
statements produce events, and binding an undefined source leaves the
destination untouched.

Hiding no-op assignments has one rule, kept per frame: each frame keeps
the value each source variable last held, and an assignment that leaves it
unchanged is a `reassign`, which the projection drops. A callee's frame
starts from its caller's values: loop lifting turns a loop into a callee
that continues its caller's frame, and a program and its lifted version
must record the same assignments. Whether the projection keeps an event is
a property of the event alone.

Each configuration is explored once. The events that can follow a state
depend only on its configuration: its frames (each with its variables, its
term-check scratch and its source values), its heap, its globals, the steps
taken and the next allocation uid. Every part of a configuration is
hash-consed into one table of tuples per run, so the memo key of a
configuration is six ints however large its heap or call stack:

- the caller frames, frozen when a call pushes a frame, as one chain id;
- the top frame, frozen when the key is taken;
- the heap, a persistent binary trie over uid bits (lowest bit first) whose
  nodes are interned, so equal heaps share one id and a write makes
  O(log n) nodes;
- the globals, the steps taken and the next uid.

The traces that can follow a configuration (its suffix language) are built
once, bottom-up, as a node of one hash-consed deterministic acyclic
automaton over raw events (see `traces`). A fork joins its successors'
nodes through a union memoized on node pairs, so duplicate traces vanish
structurally, and path counts give the number of distinct traces and how
many of them are truncated. Exploration is depth-first on an explicit
stack, so a configuration met again on a later path has finished and is a
memo hit. Event ids number events in the order the run first emits them,
which fixes the order the automaton lists its traces in. Nothing here
projects: `traces_diff` projects a run's automaton when it compares it.

A state's trace so far is one persistent list, (event id, older trace)
with the newest event first, or None: emitting prepends, and a fork's
successors share its list. A fork keeps its trace when its state was taken
from the stack and when it forked, and `Automaton.word` folds the events
between two such points into the automaton.

The checks (the soundness replay and the term check) set the engine's
hooks, which run before a statement, at a binding and at a store. They see
the first visit to each configuration, in the same order as a walk of
every path would; a memo hit skips only states whose facts they have
already seen. A trace is read back whole only for a check's report.

`enumerate_traces` returns a `Traces`: the distinct raw traces in the walk
order of the automaton, with their count and truncated count. The trace
types and their comparison live in `traces` and are re-exported here.
"""

from __future__ import annotations

from functools import reduce

from .ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Assume,
    Call,
    Goto,
    Opaque,
    Program,
    Store,
    is_tagged,
    original_name,
)
from .solver import NULL_BIT, PointsToSolution, var_key
from .traces import (
    ACCEPT,
    TRUNCATED,
    Automaton,
    Traces,
    dump_traces_jsonl,
    is_truncated,
    project_trace,
    traces_diff,
    traces_equivalent,
)

__all__ = [
    "DEFAULT_TRACE_CAP", "TRUNCATED", "TraceLimitError", "Traces",
    "check_solution_soundness", "check_term_consistency", "dump_traces_jsonl",
    "enumerate_traces", "is_truncated", "project_trace", "traces_diff",
    "traces_equivalent",
]

DEFAULT_TRACE_CAP = 10**6

_MISSING = object()


class TraceLimitError(Exception):
    """More automaton nodes and explored configurations than the configured
    cap; exploration was aborted."""


class _State:
    __slots__ = ("top", "below", "heap", "globals", "steps", "next_uid", "trace", "ending")

    def __init__(self, top: list):
        # The top frame, the only one ever written: [proc name, block label,
        # stmt index, vars dict, term -> value (the term check's scratch for
        # this activation), source variable -> value].
        self.top = top
        self.below = -1  # the interned chain of caller frames; -1: none
        self.heap = 0    # the interned heap trie; 0: empty
        self.globals = {}
        self.steps = 0
        self.next_uid = 1
        # The trace so far, newest event first: (event id, older trace) or
        # None, shared with the state's forked siblings.
        self.trace = None
        # The event that ends this state's trace when it is next taken from
        # the stack, so that it numbers after the events of earlier choices.
        self.ending = None

    def clone(self) -> "_State":
        st = _State.__new__(_State)
        p, l, i, v, t, s = self.top
        st.top = [p, l, i, dict(v), dict(t), dict(s)]
        st.below = self.below
        st.heap = self.heap
        st.globals = dict(self.globals)
        st.steps = self.steps
        st.next_uid = self.next_uid
        st.trace = self.trace
        st.ending = None
        return st


def _field(obj: tuple, name: str):
    """A field of a heap object (site, ((field, value), ...)); Null if unwritten."""
    for f, v in obj[1]:
        if f == name:
            return v
    return None


class _Fork:
    """An explored state that forked, waiting for its successors' languages."""

    __slots__ = ("key", "taken", "forked", "parent", "slot", "results", "pending")

    def __init__(self, key, taken, forked, parent, slot, n):
        self.key = key        # the state's configuration
        self.taken = taken    # its trace when it was taken from the stack
        self.forked = forked  # and when it forked
        self.parent = parent  # the fork before it, and the state's slot there
        self.slot = slot
        self.results = [None] * n  # each successor's node
        self.pending = n


class _Engine:
    def __init__(self, program: Program, depth_bound: int, max_traces: int):
        self.program = program
        self.procs = program.proc_map()
        # proc -> label -> (statements, distinct goto targets or None for return)
        self.blocks = {
            p.name: {
                b.label: (
                    b.stmts,
                    tuple(dict.fromkeys(b.transfer.targets))
                    if isinstance(b.transfer, Goto) else None,
                )
                for b in p.blocks
            }
            for p in program.procedures
        }
        self.globals = set(program.globals)
        self.depth = depth_bound
        self.max_traces = max_traces
        # The checks' hooks, run before a statement, at a binding and at a
        # store; None when unset.
        self.before_stmt = self.on_bind = self.on_store = None
        self.source = {
            v: original_name(v) for p in program.procedures for v in p.scope_vars()
        }
        # Interned tuples: frozen frames, caller chains (older chain, frame),
        # frozen maps and heap trie nodes (object or None, child 0, child 1).
        # Tuple 0 is the empty heap.
        self.tuples: list = [(None, 0, 0)]
        self.tids: dict = {(None, 0, 0): 0}
        self.raw = Automaton()
        self.memo: dict = {}  # configuration key -> node

    # -- interning -----------------------------------------------------------

    def intern(self, t) -> int:
        n = self.tids.get(t)
        if n is None:
            n = self.tids[t] = len(self.tuples)
            self.tuples.append(t)
        return n

    def freeze(self, frame: list) -> int:
        intern = self.intern
        p, l, i, v, t, s = frame
        return intern((p, l, i, intern(frozenset(v.items())),
                       intern(frozenset(t.items())), intern(frozenset(s.items()))))

    def key(self, st: _State) -> tuple:
        return (st.below, self.freeze(st.top), st.heap,
                self.intern(frozenset(st.globals.items())), st.steps, st.next_uid)

    def load(self, heap: int, uid: int) -> tuple:
        """The heap object at `uid`: (site, ((field, value), ...))."""
        tuples = self.tuples
        while uid:
            heap = tuples[heap][1 + (uid & 1)]
            uid >>= 1
        return tuples[heap][0]

    def store(self, heap: int, uid: int, obj: tuple) -> int:
        """The heap with `obj` at `uid`."""
        tuples, intern = self.tuples, self.intern
        path = []
        while uid:
            bit = uid & 1
            path.append((heap, bit))
            heap = tuples[heap][1 + bit]
            uid >>= 1
        _, zero, one = tuples[heap]
        heap = intern((obj, zero, one))
        for parent, bit in reversed(path):
            o, zero, one = tuples[parent]
            heap = intern((o, zero, heap) if bit else (o, heap, one))
        return heap

    # -- state access --------------------------------------------------------

    def lookup(self, st: _State, name: str):
        store = st.globals if name in self.globals else st.top[3]
        return store.get(name, _MISSING)

    def bind(self, st: _State, proc: str, name: str, value) -> bool:
        """Bind a variable; True if its source variable held another value."""
        if name in self.globals:
            changed = st.globals.get(name, _MISSING) != value
            st.globals[name] = value
        else:
            frame = st.top
            frame[3][name] = value
            sources = frame[5]
            source = self.source[name]
            changed = sources.get(source, _MISSING) != value
            sources[source] = value
        if self.on_bind is not None:
            self.on_bind(proc, name, value, st)
        return changed

    def site(self, st: _State, uid: int) -> int:
        return self.load(st.heap, uid)[0]

    def summary(self, st: _State, value):
        if value is None:
            return "null"
        return ("loc", self.site(st, value), value)

    def eval_path(self, st: _State, path):
        """("ok", value) | ("unassigned", var) | ("null_deref", None)."""
        value = self.lookup(st, path.base)
        if value is _MISSING:
            return ("unassigned", path.base)
        for f in path.fields:
            if value is None:
                return ("null_deref", None)
            value = _field(self.load(st.heap, value), f)
        return ("ok", value)

    def emit(self, st: _State, ev: tuple) -> None:
        """Add a raw event to the state's trace."""
        st.trace = (self.raw.event(ev), st.trace)

    def full_trace(self, st: _State) -> tuple:
        """The raw trace from the start to `st`."""
        names, events, trace = self.raw.events, [], st.trace
        while trace is not None:
            k, trace = trace
            events.append(names[k])
        return tuple(reversed(events))

    # -- execution -----------------------------------------------------------

    def run(self) -> Traces:
        entry = self.procs[self.program.entry]
        start = _State([entry.name, entry.entry_block, 0, {}, {}, {}])
        memo, raw = self.memo, self.raw
        root = _Fork(None, None, None, None, 0, 1)
        stack = [(start, root, 0)]
        while stack:
            st, fork, slot = stack.pop()
            trace = st.trace  # its events after `fork.forked` label its edge
            if st.ending is not None:
                node = raw.node(0, ((raw.event(st.ending), ACCEPT),))
            else:
                key = self.key(st)
                node = memo.get(key)
                if node is None:
                    successors = self.advance(st)
                    if successors is not None:
                        # The last successor has emitted nothing since the fork.
                        fork = _Fork(key, trace, successors[-1].trace, fork, slot,
                                     len(successors))
                        stack.extend((successors[i], fork, i)
                                     for i in range(len(successors) - 1, -1, -1))
                        continue
                    node = memo[key] = raw.word(st.trace, trace, ACCEPT)
            # Hand the language up, finishing each fork whose last successor it was.
            while True:
                fork.results[slot] = raw.word(trace, fork.forked, node)
                fork.pending -= 1
                if fork.pending or fork is root:
                    break
                node = memo[fork.key] = raw.word(
                    fork.forked, fork.taken, reduce(raw.union, fork.results))
                trace, slot, fork = fork.taken, fork.slot, fork.parent
            if len(raw.nodes) + len(memo) > self.max_traces:
                raise TraceLimitError(
                    f"exceeded {self.max_traces} automaton nodes and configurations"
                    f" at depth {self.depth}"
                )
        return Traces(raw, root.results[0])

    def advance(self, st: _State):
        """Run a state until its trace ends (None) or it forks: its
        successors, first choice first."""
        blocks = self.blocks
        before_stmt = self.before_stmt
        while True:
            if st.steps >= self.depth:
                self.emit(st, TRUNCATED)
                return None
            st.steps += 1
            frame = st.top
            stmts, targets = blocks[frame[0]][frame[1]]
            idx = frame[2]
            if idx < len(stmts):
                loc = (frame[0], frame[1], idx)
                if before_stmt is not None:
                    before_stmt(loc, st)
                result = self.execute(st, stmts[idx], loc)
            elif targets is None:
                result = self.ret(st)
            elif len(targets) == 1:
                frame[1] = targets[0]
                frame[2] = 0
                continue
            else:
                # The last successor takes over the forking state itself.
                result = [st.clone() for _ in targets[1:]] + [st]
                for child, t in zip(result, targets):
                    frame = child.top
                    frame[1] = t
                    frame[2] = 0
            if result is True:
                return None
            if result is not False:
                return result

    def ret(self, st: _State) -> bool:
        """Return from the current procedure; True when the trace ends."""
        callee_frame = st.top
        callee = self.procs[callee_frame[0]]
        if st.below < 0:
            values = []
            for r in callee.returns:
                v = callee_frame[3].get(r, _MISSING)
                values.append("undef" if v is _MISSING else self.summary(st, v))
            self.emit(st, ("return", tuple(values)))
            return True
        tuples = self.tuples
        st.below, frozen = tuples[st.below]
        p, l, i, v, t, s = tuples[frozen]
        caller = st.top = [p, l, i, dict(tuples[v]), dict(tuples[t]), dict(tuples[s])]
        call_stmt = self.blocks[p][l][0][i]
        for out, ret in zip(call_stmt.outs, callee.returns):
            value = callee_frame[3].get(ret, _MISSING)
            if value is not _MISSING:
                self.bind(st, p, out, value)
        caller[2] += 1
        return False

    def execute(self, st: _State, stmt, loc):
        proc = loc[0]
        frame = st.top

        if isinstance(stmt, Assign):
            status, payload = self.eval_path(st, stmt.rhs)
            if status == "unassigned":
                self.emit(st, ("unassigned", loc, payload))
                return True
            if status == "null_deref":
                self.emit(st, ("null_deref", loc))
                return True
            kind = "assign" if self.bind(st, proc, stmt.lhs, payload) else "reassign"
            self.emit(st, (kind, stmt.lhs, self.summary(st, payload)))
            frame[2] += 1
            return False

        if isinstance(stmt, Alloc):
            uid = st.next_uid
            st.next_uid += 1
            st.heap = self.store(st.heap, uid, (stmt.site, ()))
            kind = "assign" if self.bind(st, proc, stmt.lhs, uid) else "reassign"
            self.emit(st, (kind, stmt.lhs, ("loc", stmt.site, uid)))
            frame[2] += 1
            return False

        if isinstance(stmt, AssignNull):
            kind = "assign" if self.bind(st, proc, stmt.lhs, None) else "reassign"
            self.emit(st, (kind, stmt.lhs, "null"))
            frame[2] += 1
            return False

        if isinstance(stmt, Store):
            base = self.lookup(st, stmt.base)
            if base is _MISSING:
                self.emit(st, ("unassigned", loc, stmt.base))
                return True
            if base is None:
                self.emit(st, ("null_deref", loc))
                return True
            src = self.lookup(st, stmt.src)
            if src is _MISSING:
                self.emit(st, ("unassigned", loc, stmt.src))
                return True
            site, fields = self.load(st.heap, base)
            fields = tuple(sorted({**dict(fields), stmt.field: src}.items()))
            st.heap = self.store(st.heap, base, (site, fields))
            if self.on_store is not None:
                self.on_store(site, stmt.field, src, st)
            frame[2] += 1
            return False

        if isinstance(stmt, (Assume, Assert)):
            is_assert = isinstance(stmt, Assert)
            cond = stmt.cond
            if isinstance(cond, Opaque):
                other = st.clone()
                other.ending = ("assert_fail" if is_assert else "assume_blocked", loc)
                frame[2] += 1
                if is_assert:
                    self.emit(st, ("assert_pass", loc))
                return [st, other]
            status, payload = self.eval_path(st, cond.path)
            if status == "unassigned":
                self.emit(st, ("unassigned", loc, payload))
                return True
            if status == "null_deref":
                self.emit(st, ("null_deref", loc))
                return True
            holds = (payload is not None) if cond.negated else (payload is None)
            if is_assert:
                if holds:
                    self.emit(st, ("assert_pass", loc))
                    frame[2] += 1
                    return False
                self.emit(st, ("assert_fail", loc))
                return True
            if holds:
                frame[2] += 1
                return False
            self.emit(st, ("assume_blocked", loc))
            return True

        if isinstance(stmt, Call):
            callee = self.procs[stmt.callee]
            new_vars = {}
            for actual, formal in zip(stmt.args, callee.params):
                v = self.lookup(st, actual)
                if v is not _MISSING:
                    new_vars[formal] = v
            sources = dict(frame[5])
            sources.update((self.source[f], v) for f, v in new_vars.items())
            st.below = self.intern((st.below, self.freeze(frame)))
            st.top = [callee.name, callee.entry_block, 0, new_vars, {}, sources]
            if self.on_bind is not None:
                for formal, v in new_vars.items():
                    self.on_bind(callee.name, formal, v, st)
            return False

        raise TypeError(f"unknown statement {stmt!r}")


def enumerate_traces(
    program: Program, depth_bound: int, max_traces: int = DEFAULT_TRACE_CAP
) -> Traces:
    """All traces of the program up to the step budget, deterministically
    ordered, duplicates removed. Raises TraceLimitError once the raw
    automaton's nodes and the explored configurations together number more
    than max_traces, which bounds the work."""
    return _Engine(program, depth_bound, max_traces).run()


# ---------------------------------------------------------------------------
# Dynamic checks built on the interpreter
# ---------------------------------------------------------------------------

_VIOLATION_CAP = 100


def check_solution_soundness(
    program: Program, solution: PointsToSolution, depth_bound: int
) -> list[tuple]:
    """Replay the program and flag every state the points-to solution fails
    to over-approximate, each kind of miss once. Empty result = no
    unsoundness observed."""
    engine = _Engine(program, depth_bound, DEFAULT_TRACE_CAP)
    violations: list[tuple] = []
    seen: set = set()

    def report(detail, st):
        if detail not in seen and len(violations) < _VIOLATION_CAP:
            seen.add(detail)
            violations.append((*detail, engine.full_trace(st)))

    def on_bind(proc, var, value, st):
        key = var_key(proc, var, engine.globals)
        bits = solution.bits(key)
        if value is None:
            if is_tagged(var):
                report(("tagged_null", key), st)
            elif not bits & NULL_BIT:
                report(("missing_null", key), st)
        else:
            site = engine.site(st, value)
            if not solution.holds(bits, site):
                report(("missing_site", key, site), st)

    def on_store(base_site, fname, value, st):
        cell = solution.cell_bits(base_site, fname)
        if value is None:
            if not cell & NULL_BIT:
                report(("missing_null_field", base_site, fname), st)
        else:
            site = engine.site(st, value)
            if not solution.holds(cell, site):
                report(("missing_field_site", base_site, fname, site), st)

    engine.on_bind, engine.on_store = on_bind, on_store
    engine.run()
    return violations


def check_term_consistency(program: Program, recording: dict, depth_bound: int) -> list[tuple]:
    """Replay a transformed program and verify that every two expression
    occurrences that received the same term hold the same value on each
    explored path. `recording` comes from do_gvn(instrument=True). Each
    (term, location, path, earlier value, value) is reported once, with the
    trace of the first path that shows it."""
    engine = _Engine(program, depth_bound, DEFAULT_TRACE_CAP)
    violations: list[tuple] = []
    reported: set = set()

    def before_stmt(loc, st):
        recs = recording.get(loc)
        if not recs:
            return
        # Terms live per procedure activation: a recursive activation (as
        # lifted loops produce) re-evaluates the same locations with new
        # values, and the equal-terms claim is within one activation. The
        # top frame is never shared with another state, so it is written
        # in place.
        seen = st.top[4]
        for path, term in recs:
            status, value = engine.eval_path(st, path)
            if status != "ok":
                continue
            prev = seen.get(term, _MISSING)
            if prev is _MISSING:
                seen[term] = value
            elif prev != value:
                # Paths that rejoin through a single-target goto replay the
                # shared statements without a memo check.
                detail = (term, loc, str(path), prev, value)
                if detail not in reported and len(violations) < _VIOLATION_CAP:
                    reported.add(detail)
                    violations.append((*detail, engine.full_trace(st)))

    engine.before_stmt = before_stmt
    engine.run()
    return violations
