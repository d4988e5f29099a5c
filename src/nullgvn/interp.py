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

Each frame keeps the value each source variable last held, so that an
assignment can be told apart from a reassignment. A callee's frame starts
from its caller's values: loop lifting turns a loop into a callee that
continues its caller's frame, and a program and its lifted version must
record the same assignments.
"""

from __future__ import annotations

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


class TraceLimitError(Exception):
    """More traces than the configured cap; exploration was aborted."""


class _State:
    __slots__ = (
        "frames", "heap", "globals", "steps", "next_uid", "next_activation",
        "trace", "user", "halted",
    )

    def __init__(self):
        # frame: [proc name, block label, stmt index, vars dict, activation id,
        #         source variable -> value]
        self.frames = []
        self.heap = {}     # uid -> (site, {field: value}); value is None or uid
        self.globals = {}
        self.steps = 0
        self.next_uid = 1
        self.next_activation = 1
        self.trace = []
        self.user = {}     # observer scratch space, cloned on branch
        self.halted = False

    def clone(self) -> "_State":
        st = _State()
        st.frames = [[p, l, i, dict(v), a, dict(s)] for p, l, i, v, a, s in self.frames]
        st.heap = {uid: (site, dict(fs)) for uid, (site, fs) in self.heap.items()}
        st.globals = dict(self.globals)
        st.steps = self.steps
        st.next_uid = self.next_uid
        st.next_activation = self.next_activation
        st.trace = list(self.trace)
        st.user = dict(self.user)
        return st

    def summary(self, value):
        if value is None:
            return "null"
        return ("loc", self.heap[value][0], value)


class _Engine:
    def __init__(self, program: Program, depth_bound: int, max_traces: int, observer=None):
        self.program = program
        self.procs = program.proc_map()
        self.blocks = {p.name: p.block_map() for p in program.procedures}
        self.globals = set(program.globals)
        self.depth = depth_bound
        self.max_traces = max_traces
        self.observer = observer
        self.source = {
            v: original_name(v) for p in program.procedures for v in p.scope_vars()
        }

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

    # -- execution -----------------------------------------------------------

    def run(self):
        entry = self.procs[self.program.entry]
        start = _State()
        start.frames = [[entry.name, entry.entry_block, 0, {}, 0, {}]]
        stack = [start]
        traces: list[tuple] = []
        seen = set()
        while stack:
            st = stack.pop()
            finished = self.advance(st, stack)
            if finished:
                t = tuple(st.trace)
                if t not in seen:
                    seen.add(t)
                    traces.append(t)
                    if len(traces) > self.max_traces:
                        raise TraceLimitError(
                            f"exceeded {self.max_traces} traces at depth {self.depth}"
                        )
        return tuple(traces)

    def advance(self, st: _State, stack: list) -> bool:
        """Run a state until its trace ends (True) or it forks (False,
        children pushed onto the stack, first choice on top)."""
        while True:
            if st.halted:
                return True
            proc, label, idx = st.frames[-1][:3]
            block = self.blocks[proc][label]
            if st.steps >= self.depth:
                st.trace.append(TRUNCATED)
                return True
            st.steps += 1
            if idx >= len(block.stmts):
                result = self.transfer(st, block.transfer)
            else:
                loc = (proc, label, idx)
                stmt = block.stmts[idx]
                if self.observer is not None:
                    self.observer.before_stmt(loc, st)
                result = self.execute(st, stmt, loc)
            if result is True:
                return True
            if result is False:
                continue
            # A list of alternative successor states: depth-first, first
            # alternative explored first.
            for child in reversed(result):
                stack.append(child)
            return False

    def transfer(self, st: _State, transfer):
        if isinstance(transfer, Goto):
            targets = list(dict.fromkeys(transfer.targets))
            if len(targets) == 1:
                frame = st.frames[-1]
                frame[1] = targets[0]
                frame[2] = 0
                return False
            # The last successor takes over the forking state itself.
            children = [st.clone() for _ in targets[1:]] + [st]
            for child, t in zip(children, targets):
                frame = child.frames[-1]
                frame[1] = t
                frame[2] = 0
            return children
        # Return
        callee_frame = st.frames.pop()
        callee = self.procs[callee_frame[0]]
        if not st.frames:
            values = []
            for r in callee.returns:
                v = callee_frame[3].get(r, _MISSING)
                values.append("undef" if v is _MISSING else st.summary(v))
            st.trace.append(("return", tuple(values)))
            return True
        caller = st.frames[-1]
        call_stmt = self.blocks[caller[0]][caller[1]].stmts[caller[2]]
        for out, ret in zip(call_stmt.outs, callee.returns):
            v = callee_frame[3].get(ret, _MISSING)
            if v is not _MISSING:
                self.bind(st, caller[0], out, v)
        caller[2] += 1
        return False

    def execute(self, st: _State, stmt, loc):
        proc = loc[0]
        frame = st.frames[-1]

        def step() -> bool:
            frame[2] += 1
            return False

        if isinstance(stmt, Assign):
            status, payload = self.eval_path(st, stmt.rhs)
            if status == "unassigned":
                st.trace.append(("unassigned", loc, payload))
                return True
            if status == "null_deref":
                st.trace.append(("null_deref", loc))
                return True
            kind = "assign" if self.bind(st, proc, stmt.lhs, payload) else "reassign"
            st.trace.append((kind, stmt.lhs, st.summary(payload)))
            return step()

        if isinstance(stmt, Alloc):
            uid = st.next_uid
            st.next_uid += 1
            st.heap[uid] = (stmt.site, {})
            kind = "assign" if self.bind(st, proc, stmt.lhs, uid) else "reassign"
            st.trace.append((kind, stmt.lhs, st.summary(uid)))
            return step()

        if isinstance(stmt, AssignNull):
            kind = "assign" if self.bind(st, proc, stmt.lhs, None) else "reassign"
            st.trace.append((kind, stmt.lhs, "null"))
            return step()

        if isinstance(stmt, Store):
            base = self.lookup(st, stmt.base)
            if base is _MISSING:
                st.trace.append(("unassigned", loc, stmt.base))
                return True
            if base is None:
                st.trace.append(("null_deref", loc))
                return True
            src = self.lookup(st, stmt.src)
            if src is _MISSING:
                st.trace.append(("unassigned", loc, stmt.src))
                return True
            st.heap[base][1][stmt.field] = src
            if self.observer is not None:
                self.observer.on_store(st.heap[base][0], stmt.field, src, st)
            return step()

        if isinstance(stmt, (Assume, Assert)):
            is_assert = isinstance(stmt, Assert)
            cond = stmt.cond
            if isinstance(cond, Opaque):
                other = st.clone()
                other.halted = True
                taken = st
                taken.frames[-1][2] += 1
                if is_assert:
                    taken.trace.append(("assert_pass", loc))
                    other.trace.append(("assert_fail", loc))
                else:
                    other.trace.append(("assume_blocked", loc))
                return [taken, other]
            status, payload = self.eval_path(st, cond.path)
            if status == "unassigned":
                st.trace.append(("unassigned", loc, payload))
                return True
            if status == "null_deref":
                st.trace.append(("null_deref", loc))
                return True
            holds = (payload is not None) if cond.negated else (payload is None)
            if is_assert:
                if holds:
                    st.trace.append(("assert_pass", loc))
                    return step()
                st.trace.append(("assert_fail", loc))
                return True
            if holds:
                return step()
            st.trace.append(("assume_blocked", loc))
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
            st.frames.append(
                [callee.name, callee.entry_block, 0, new_vars, st.next_activation, sources]
            )
            st.next_activation += 1
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
):
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


def _project(trace: tuple, memo: dict) -> tuple:
    """project_trace with each raw event's projection looked up in `memo`.

    Forked interpreter states share their event objects, so one memo over
    all traces of a comparison projects each distinct event once, and every
    projected trace holds the one projected tuple of each raw event.
    """
    values: dict[str, object] = {}
    out = []
    for ev in trace:
        p = memo.get(ev, _MISSING)
        if p is _MISSING:
            p = memo[ev] = _project_event(ev)
        if p is None:
            continue
        if p[0] == "assign":
            if values.get(p[1], _MISSING) == p[2]:
                continue
            values[p[1]] = p[2]
        out.append(p)
    return tuple(out)


def project_trace(trace: tuple) -> tuple:
    """Canonicalize a trace for cross-version comparison.

    Tagged variables disappear, SSA versions collapse to their source
    names, locations are stripped, and re-assignments that do not change a
    variable's (projected) value are dropped; merge copies introduced by
    SSA are exactly such no-ops. The interpreter marks them `reassign`, as
    only it sees each frame's values; an `assign` that repeats the last
    value the projection saw for its name is dropped as well.
    """
    return _project(trace, {})


# Marks in a prefix trie node: a complete trace ends here / the body of a
# truncated trace ends here. Event keys are tuples, so these never collide.
_END = object()
_TRUNCATED_END = object()


def _prefix_trie(traces) -> dict:
    """Nested dicts keyed by event over the traces' bodies (the traces with
    any truncation marker stripped), each body's last node marked."""
    root: dict = {}
    for t in traces:
        truncated = is_truncated(t)
        node = root
        for ev in t[:-1] if truncated else t:
            child = node.get(ev)
            if child is None:
                child = node[ev] = {}
            node = child
        node[_TRUNCATED_END if truncated else _END] = True
    return root


def _has_match(trace: tuple, trie: dict) -> bool:
    """Whether some trace of the trie is compatible with `trace`: equal when
    both are complete, otherwise one body a prefix of the other, where only
    a truncated trace's body may be the shorter one."""
    truncated = is_truncated(trace)
    node = trie
    for ev in trace[:-1] if truncated else trace:
        if _TRUNCATED_END in node:
            return True
        node = node.get(ev)
        if node is None:
            return False
    if truncated:
        # Every node of a non-empty trie lies on some body, which therefore
        # extends this one; only the root of an empty trie is empty.
        return bool(node)
    return _END in node or _TRUNCATED_END in node


def traces_diff(a, b) -> str | None:
    """Human-readable witness of non-equivalence, or None when the projected
    trace sets are equivalent.

    Complete traces must match exactly. A truncated trace matches anything
    it is a prefix of: transformations change statement counts, so the
    budget runs out at different logical points on the two sides. A trace
    present on both sides matches itself, so only the set differences are
    walked through a prefix trie of the other side; the witness is the
    unmatched trace first in repr order.
    """
    memo: dict = {}
    pa = {_project(t, memo) for t in a}
    pb = {_project(t, memo) for t in b}
    for side, extra, other in (("left", pa - pb, pb), ("right", pb - pa, pa)):
        if not extra:
            continue
        trie = _prefix_trie(other)
        unmatched = [x for x in extra if not _has_match(x, trie)]
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
        self.violations.append((*detail, tuple(st.trace)))

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
        cell = self.sol.bits((base_site, fname))
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
        # values, and the equal-terms claim is within one activation.
        activation = st.frames[-1][4]
        for path, term in recs:
            status, value = self.engine.eval_path(st, path)
            if status != "ok":
                continue
            key = (activation, term)
            prev = st.user.get(key, _MISSING)
            if prev is _MISSING:
                st.user[key] = value
            elif prev != value and len(self.violations) < self.cap:
                self.violations.append((term, loc, str(path), prev, value, tuple(st.trace)))

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
