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

Forked paths share what they have in common, so a run costs in proportion
to the events the engine emits, not to traces times their length:

- A state keeps only the events emitted since its last fork. Older events
  sit in the run's table of frozen segments, each segment with its parent,
  and forked siblings continue the same segment chain: a fork copies no
  trace, and `full_trace` rebuilds one only for an observer report or when
  a result is read.
- Forked siblings share their caller frames and heap objects: a return
  copies the caller's frame before writing it, and a store replaces the
  object it writes.
- Each event is projected (see `project_trace`) as it is emitted, by one
  lookup in the run's memo, into one trie of projected traces per run. A
  trie node maps each projected event to its child and carries `_END` where
  a complete trace ends and `_TRUNCATED_END` where the body of a truncated
  trace (the trace without its truncation marker) ends.
- Each state keeps a rolling hash of its raw trace. A finished trace whose
  hash was seen before is compared with the earlier traces with that hash,
  event by event, so duplicates are removed exactly.

`enumerate_traces` returns a `Traces`: the distinct raw traces in
completion order, rebuilt from their segments when read, with their
truncated count and the run's projected trie, which `traces_diff` compares
without reading a trace.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import eq

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

DEFAULT_TRACE_CAP = 10**6

_MISSING = object()

TRUNCATED = ("truncated",)

# Marks in a projected trie node: a complete trace ends here / the body of a
# truncated trace ends here. Event keys are tuples, so these never collide.
_END = object()
_TRUNCATED_END = object()


class TraceLimitError(Exception):
    """More traces than the configured cap; exploration was aborted."""


def _mix(digest: int, ev: tuple) -> int:
    """The rolling hash of a trace extended by one raw event."""
    return hash((digest, ev))


class _Segments:
    """The frozen event segments of one run, which all its states share.

    Segment i holds `log[bounds[i]:bounds[i + 1]]` and continues segment
    `parents[i]` (nothing when -1); a trace is a segment with its ancestors.
    """

    __slots__ = ("log", "bounds", "parents")

    def __init__(self):
        self.log: list = []
        self.bounds = array("q", [0])
        self.parents = array("q")

    def add(self, events: list, parent: int) -> int:
        """Freeze `events` as a new segment after `parent`; its index."""
        self.log.extend(events)
        self.bounds.append(len(self.log))
        self.parents.append(parent)
        return len(self.parents) - 1

    def same(self, i: int, j: int) -> bool:
        """Whether segments i and j hold the same events after the same parent."""
        b = self.bounds
        return (self.parents[i] == self.parents[j]
                and self.log[b[i]:b[i + 1]] == self.log[b[j]:b[j + 1]])

    def trace(self, i: int, tail=()) -> tuple:
        """The events of segment `i` and its ancestors, oldest first, then `tail`."""
        chain = []
        while i >= 0:
            chain.append(i)
            i = self.parents[i]
        out = []
        for i in reversed(chain):
            out += self.log[self.bounds[i]:self.bounds[i + 1]]
        out += tail
        return tuple(out)


def _copy_frame(frame: list) -> list:
    """A copy of a frame that shares none of the dicts a step writes."""
    p, l, i, v, t, s = frame
    return [p, l, i, dict(v), dict(t), dict(s)]


class _State:
    __slots__ = (
        "frames", "shared", "heap", "globals", "steps", "next_uid",
        "segments", "events", "base", "digest", "node", "halted",
    )

    def __init__(self):
        # frame: [proc name, block label, stmt index, vars dict,
        #         term -> value (the term check's scratch for this activation),
        #         source variable -> value]
        self.frames = []
        # Only the top frame is ever written. The frames below it are shared
        # with forked siblings up to index `shared`, so a return copies the
        # caller's frame before writing it when it lies below that index.
        self.shared = 0
        # uid -> (site, {field: value}); value is None or uid. Forks share the
        # objects, so a store replaces its object instead of writing into it.
        self.heap = {}
        self.globals = {}
        self.steps = 0
        self.next_uid = 1
        # The trace: segment `base` of the run's `segments` with its
        # ancestors (none when -1), then `events`, those since the last fork.
        self.segments = _Segments()
        self.events = []
        self.base = -1
        self.digest = 0    # rolling hash of the whole raw trace
        self.node = None   # where the projected trace stands in the run's trie
        self.halted = False

    def clone(self) -> "_State":
        if self.events:
            self.base = self.segments.add(self.events, self.base)
            self.events = []
        st = _State.__new__(_State)
        st.frames = self.frames[:-1] + [_copy_frame(self.frames[-1])]
        st.shared = self.shared = len(self.frames) - 1
        st.heap = dict(self.heap)
        st.globals = dict(self.globals)
        st.steps = self.steps
        st.next_uid = self.next_uid
        st.segments = self.segments
        st.events = []
        st.base = self.base
        st.digest = self.digest
        st.node = self.node
        st.halted = False
        return st

    def full_trace(self) -> tuple:
        return self.segments.trace(self.base, self.events)

    def summary(self, value):
        if value is None:
            return "null"
        return ("loc", self.heap[value][0], value)


class Traces(Sequence):
    """The distinct raw traces of one run, in the order they completed.

    Each trace is rebuilt from its segment chain when it is read, so taking
    the length, the truncated count or the projected trie reads none.
    """

    __slots__ = ("_segments", "_ends", "truncated", "trie")

    def __init__(self, segments: _Segments, ends: array, truncated: int, trie: dict):
        self._segments = segments
        self._ends = ends           # each trace's last segment
        self.truncated = truncated  # how many traces end in `TRUNCATED`
        self.trie = trie            # the projected trie of all the traces

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, i: int) -> tuple:
        return self._segments.trace(self._ends[i])

    def __iter__(self):
        return map(self._segments.trace, self._ends)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class _Engine:
    def __init__(self, program: Program, depth_bound: int, max_traces: int, observer=None):
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
        self.observer = observer
        self.source = {
            v: original_name(v) for p in program.procedures for v in p.scope_vars()
        }
        # raw event -> (the one copy of it the run keeps, its projection or
        # None when the projection drops it)
        self.memo: dict = {}
        self.trie: dict = {}

    # -- state access --------------------------------------------------------

    def lookup(self, st: _State, name: str):
        store = st.globals if name in self.globals else st.frames[-1][3]
        return store.get(name, _MISSING)

    def bind(self, st: _State, proc: str, name: str, value) -> bool:
        """Bind a variable; True if its source variable held another value."""
        if name in self.globals:
            changed = st.globals.get(name, _MISSING) != value
            st.globals[name] = value
        else:
            frame = st.frames[-1]
            frame[3][name] = value
            sources = frame[5]
            source = self.source[name]
            changed = sources.get(source, _MISSING) != value
            sources[source] = value
        if self.observer is not None:
            self.observer.on_bind(proc, name, value, st)
        return changed

    def eval_path(self, st: _State, path):
        """("ok", value) | ("unassigned", var) | ("null_deref", None)."""
        value = self.lookup(st, path.base)
        if value is _MISSING:
            return ("unassigned", path.base)
        for f in path.fields:
            if value is None:
                return ("null_deref", None)
            value = st.heap[value][1].get(f)
        return ("ok", value)

    def emit(self, st: _State, ev: tuple) -> None:
        """Append a raw event to the state's trace, and its projection, when
        it has one, to the state's path in the projected trie; the body of a
        truncated trace leaves the marker out, as `_unmatched` expects."""
        known = self.memo.get(ev)
        if known is None:
            known = self.memo[ev] = (ev, _project_event(ev))
        ev, p = known
        st.events.append(ev)
        st.digest = _mix(st.digest, ev)
        if p is None or p is TRUNCATED:
            return
        child = st.node.get(p)
        if child is None:
            child = st.node[p] = {}
        st.node = child

    # -- execution -----------------------------------------------------------

    def run(self) -> Traces:
        entry = self.procs[self.program.entry]
        start = _State()
        start.frames = [[entry.name, entry.entry_block, 0, {}, {}, {}]]
        start.node = self.trie
        stack = [start]
        segments = start.segments
        ends = array("q")
        first: dict[int, int] = {}  # rolling hash -> last segment of its first trace
        clashes: dict[int, set] = {}  # rolling hash -> its distinct full traces
        truncated = 0
        while stack:
            st = stack.pop()
            if not self.advance(st, stack):
                continue
            cut = st.events[-1] is TRUNCATED
            st.node[_TRUNCATED_END if cut else _END] = True
            end = segments.add(st.events, st.base)
            earlier = first.setdefault(st.digest, end)
            if earlier != end:
                if segments.same(earlier, end):
                    continue
                seen = clashes.get(st.digest)
                if seen is None:
                    seen = clashes[st.digest] = {segments.trace(earlier)}
                trace = segments.trace(end)
                if trace in seen:
                    continue
                seen.add(trace)
            ends.append(end)
            truncated += cut
            if len(ends) > self.max_traces:
                raise TraceLimitError(
                    f"exceeded {self.max_traces} traces at depth {self.depth}"
                )
        return Traces(segments, ends, truncated, self.trie)

    def advance(self, st: _State, stack: list) -> bool:
        """Run a state until its trace ends (True) or it forks (False,
        children pushed onto the stack, first choice on top)."""
        blocks = self.blocks
        observer = self.observer
        frames = st.frames
        while not st.halted:
            if st.steps >= self.depth:
                self.emit(st, TRUNCATED)
                return True
            st.steps += 1
            frame = frames[-1]
            stmts, targets = blocks[frame[0]][frame[1]]
            idx = frame[2]
            if idx < len(stmts):
                loc = (frame[0], frame[1], idx)
                if observer is not None:
                    observer.before_stmt(loc, st)
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
                    frame = child.frames[-1]
                    frame[1] = t
                    frame[2] = 0
            if result is True:
                return True
            if result is False:
                continue
            # A list of alternative successor states: depth-first, first
            # alternative explored first.
            stack.extend(reversed(result))
            return False
        return True

    def ret(self, st: _State) -> bool:
        """Return from the current procedure; True when the trace ends."""
        callee_frame = st.frames.pop()
        callee = self.procs[callee_frame[0]]
        if not st.frames:
            values = []
            for r in callee.returns:
                v = callee_frame[3].get(r, _MISSING)
                values.append("undef" if v is _MISSING else st.summary(v))
            self.emit(st, ("return", tuple(values)))
            return True
        caller = st.frames[-1]
        if len(st.frames) <= st.shared:
            caller = st.frames[-1] = _copy_frame(caller)
            st.shared = len(st.frames) - 1
        call_stmt = self.blocks[caller[0]][caller[1]][0][caller[2]]
        for out, ret in zip(call_stmt.outs, callee.returns):
            v = callee_frame[3].get(ret, _MISSING)
            if v is not _MISSING:
                self.bind(st, caller[0], out, v)
        caller[2] += 1
        return False

    def execute(self, st: _State, stmt, loc):
        proc = loc[0]
        frame = st.frames[-1]

        if isinstance(stmt, Assign):
            status, payload = self.eval_path(st, stmt.rhs)
            if status == "unassigned":
                self.emit(st, ("unassigned", loc, payload))
                return True
            if status == "null_deref":
                self.emit(st, ("null_deref", loc))
                return True
            kind = "assign" if self.bind(st, proc, stmt.lhs, payload) else "reassign"
            self.emit(st, (kind, stmt.lhs, st.summary(payload)))
            frame[2] += 1
            return False

        if isinstance(stmt, Alloc):
            uid = st.next_uid
            st.next_uid += 1
            st.heap[uid] = (stmt.site, {})
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
            site, fields = st.heap[base]
            st.heap[base] = (site, {**fields, stmt.field: src})
            if self.observer is not None:
                self.observer.on_store(site, stmt.field, src, st)
            frame[2] += 1
            return False

        if isinstance(stmt, (Assume, Assert)):
            is_assert = isinstance(stmt, Assert)
            cond = stmt.cond
            if isinstance(cond, Opaque):
                other = st.clone()
                other.halted = True
                frame[2] += 1
                if is_assert:
                    self.emit(st, ("assert_pass", loc))
                    self.emit(other, ("assert_fail", loc))
                else:
                    self.emit(other, ("assume_blocked", loc))
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
            st.frames.append([callee.name, callee.entry_block, 0, new_vars, {}, sources])
            if self.observer is not None:
                for formal, v in new_vars.items():
                    self.observer.on_bind(callee.name, formal, v, st)
            return False

        raise TypeError(f"unknown statement {stmt!r}")


def enumerate_traces(
    program: Program,
    depth_bound: int,
    max_traces: int = DEFAULT_TRACE_CAP,
    observer=None,
) -> Traces:
    """All traces of the program up to the step budget, deterministically
    ordered, duplicates removed. Raises TraceLimitError past max_traces."""
    return _Engine(program, depth_bound, max_traces, observer).run()


# ---------------------------------------------------------------------------
# Trace projection and comparison
# ---------------------------------------------------------------------------

def is_truncated(trace: tuple) -> bool:
    """True when the step budget ran out on the trace's path."""
    return trace[-1:] == (TRUNCATED,)


def _project_event(ev: tuple):
    """The projected form of one raw event, or None when it is dropped."""
    kind = ev[0]
    if kind == "assign":
        _, var, val = ev
        return None if is_tagged(var) else ("assign", original_name(var), val)
    if kind == "reassign":
        return None
    if kind == "unassigned":
        return ("unassigned", original_name(ev[2]))
    if kind in ("assert_pass", "assert_fail", "null_deref", "assume_blocked"):
        return (kind,)
    return ev  # return, truncated


def project_trace(trace: tuple) -> tuple:
    """Canonicalize a trace for cross-version comparison, event by event.

    Tagged variables disappear, SSA versions collapse to their source
    names, locations are stripped, and `reassign` events are dropped: the
    interpreter marks an assignment `reassign` when it leaves the value its
    source variable held in the frame, as SSA merge copies do. An `assign`
    is kept even when it repeats a value, since an earlier event of the same
    name may come from another frame.
    """
    return tuple(p for p in map(_project_event, trace) if p is not None)


def _trie(traces) -> dict:
    """The projected trie of a `Traces`, or of plain trace tuples projected
    into the same shape a run builds."""
    if isinstance(traces, Traces):
        return traces.trie
    root: dict = {}
    for t in traces:
        p = project_trace(t)
        truncated = is_truncated(p)
        node = root
        for ev in p[:-1] if truncated else p:
            child = node.get(ev)
            if child is None:
                child = node[ev] = {}
            node = child
        node[_TRUNCATED_END if truncated else _END] = True
    return root


def _unmatched(trie: dict, other: dict) -> list[tuple]:
    """The projected traces of `trie` that no trace of `other` matches.

    One iterative walk visits the nodes of `trie` with the node of `other`
    at the same body (None once `other` has no such body). A complete trace
    is matched when `other` ends a trace at its body; a truncated one when
    some trace of `other` runs through its body's end. A truncated trace of
    `other` matches every longer body below it, so the walk skips those.
    """
    unmatched = []
    stack = [(trie, other, None)]  # path: (event, parent path) or None
    while stack:
        node, mate, path = stack.pop()
        for mark in (_END, _TRUNCATED_END):
            if mark not in node:
                continue
            if mate is not None and (
                bool(mate) if mark is _TRUNCATED_END
                else _END in mate or _TRUNCATED_END in mate
            ):
                continue
            body = []
            p = path
            while p is not None:
                ev, p = p
                body.append(ev)
            body.reverse()
            if mark is _TRUNCATED_END:
                body.append(TRUNCATED)
            unmatched.append(tuple(body))
        if mate is not None and _TRUNCATED_END in mate:
            continue
        for ev, child in node.items():
            if ev is _END or ev is _TRUNCATED_END:
                continue
            stack.append((child, None if mate is None else mate.get(ev), (ev, path)))
    return unmatched


def traces_diff(a, b) -> str | None:
    """Human-readable witness of non-equivalence, or None when the projected
    trace sets are equivalent.

    Complete traces must match exactly. A truncated trace matches anything
    it is a prefix of: transformations change statement counts, so the
    budget runs out at different logical points on the two sides. Both
    sides are compared as projected tries (a `Traces` carries its own; plain
    trace tuples are projected into one first): one walk over each side's
    trie, in step with the other's, finds the traces the other side does
    not match, and the witness is the unmatched trace first in repr order,
    left side first.
    """
    ta, tb = _trie(a), _trie(b)
    for side, trie, other in (("left", ta, tb), ("right", tb, ta)):
        unmatched = _unmatched(trie, other)
        if unmatched:
            return f"trace only on the {side} side:\n  {min(unmatched, key=repr)}"
    return None


def traces_equivalent(a, b) -> bool:
    """Set equivalence of projected traces; see traces_diff."""
    return traces_diff(a, b) is None


def dump_traces_jsonl(traces, side: str, fp) -> None:
    """One JSON object per trace: {"side": side, "trace": [event, ...]}."""
    import json

    for t in traces:
        fp.write(json.dumps({"side": side, "trace": t}))
        fp.write("\n")


# ---------------------------------------------------------------------------
# Dynamic checks built on the interpreter
# ---------------------------------------------------------------------------

class _SoundnessObserver:
    def __init__(self, program: Program, solution: PointsToSolution, cap: int = 100):
        self.globals = set(program.globals)
        self.sol = solution
        self.cap = cap
        self.violations: list[tuple] = []
        self._seen: set = set()

    def _report(self, key, detail, st):
        if key in self._seen or len(self.violations) >= self.cap:
            return
        self._seen.add(key)
        self.violations.append((*detail, st.full_trace()))

    def before_stmt(self, loc, st):
        pass

    def on_bind(self, proc, var, value, st):
        key = var_key(proc, var, self.globals)
        bits = self.sol.bits(key)
        if value is None:
            if is_tagged(var):
                self._report(("tagged_null", key), ("tagged_null", key), st)
            elif not bits & NULL_BIT:
                self._report(("var_null", key), ("missing_null", key), st)
        else:
            site = st.heap[value][0]
            if not self.sol.holds(bits, site):
                self._report(("var", key, site), ("missing_site", key, site), st)

    def on_store(self, base_site, fname, value, st):
        cell = self.sol.cell_bits(base_site, fname)
        if value is None:
            if not cell & NULL_BIT:
                self._report(
                    ("field_null", base_site, fname),
                    ("missing_null_field", base_site, fname),
                    st,
                )
        else:
            site = st.heap[value][0]
            if not self.sol.holds(cell, site):
                self._report(
                    ("field", base_site, fname, site),
                    ("missing_field_site", base_site, fname, site),
                    st,
                )


def check_solution_soundness(
    program: Program,
    solution: PointsToSolution,
    depth_bound: int,
    max_traces: int = DEFAULT_TRACE_CAP,
) -> list[tuple]:
    """Replay the program and flag every state the points-to solution fails
    to over-approximate. Empty result = no unsoundness observed."""
    obs = _SoundnessObserver(program, solution)
    enumerate_traces(program, depth_bound, max_traces, observer=obs)
    return obs.violations


class _TermObserver:
    def __init__(self, recording, cap: int = 100):
        self.recording = recording
        self.cap = cap
        self.violations: list[tuple] = []
        self.engine: _Engine | None = None

    def before_stmt(self, loc, st):
        recs = self.recording.get(loc)
        if not recs:
            return
        # Terms live per procedure activation: a recursive activation (as
        # lifted loops produce) re-evaluates the same locations with new
        # values, and the equal-terms claim is within one activation. The
        # top frame is never shared with another state, so it is written
        # in place.
        seen = st.frames[-1][4]
        for path, term in recs:
            status, value = self.engine.eval_path(st, path)
            if status != "ok":
                continue
            prev = seen.get(term, _MISSING)
            if prev is _MISSING:
                seen[term] = value
            elif prev != value and len(self.violations) < self.cap:
                self.violations.append((term, loc, str(path), prev, value, st.full_trace()))

    def on_bind(self, proc, var, value, st):
        pass

    def on_store(self, base_site, fname, value, st):
        pass


def check_term_consistency(
    program: Program,
    recording: dict,
    depth_bound: int,
    max_traces: int = DEFAULT_TRACE_CAP,
) -> list[tuple]:
    """Replay a transformed program and verify that every two expression
    occurrences that received the same term hold the same value on each
    explored path. `recording` comes from do_gvn(instrument=True)."""
    obs = _TermObserver(recording)
    engine = _Engine(program, depth_bound, max_traces, observer=obs)
    obs.engine = engine
    engine.run()
    return obs.violations
