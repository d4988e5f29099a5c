"""Sets of traces as hash-consed deterministic acyclic automata, and their
comparison.

A node is its flags (a complete trace ends here; the body of a truncated
trace, the trace without its marker, ends here) and its edges, sorted by
event id, where event ids number events in the order they were first added
and the truncation marker is event 0. Equal languages share one node
(Daciuk, Mihov, Watson & Watson, Computational Linguistics 2000), a node is
made after its children, and a union is memoized on node pairs, so
duplicate traces vanish structurally and path counts give the number of
distinct traces. A run builds one automaton over raw events, and `Traces`
reads it as a sequence. Only `traces_diff` projects: it maps both sides'
raw automata into one fresh automaton, children first, and compares the
two projected roots there, memoized on node pairs.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import eq, itemgetter

from .ir import is_tagged, original_name, postorder

TRUNCATED = ("truncated",)

# Node flags: a complete trace ends here / the body of a truncated trace
# ends here.
_END = 1
_CUT = 2
# The first nodes of every automaton: no trace at all, the empty trace, and
# a truncated trace with an empty body.
_EMPTY, ACCEPT, CUT_ONLY = 0, 1, 2


class Automaton:
    """A hash-consed deterministic acyclic automaton.

    Node n is `nodes[n]`, a pair (flags, edges) where edges is a tuple of
    (event id, child) sorted by event id; event k is `events[k]`. Equal
    pairs are one node, and a node is made after its children, so children
    have smaller ids than their parents.
    """

    __slots__ = ("events", "eids", "nodes", "ids", "unions")

    def __init__(self):
        self.events: list = [TRUNCATED]  # event 0, never an edge
        self.eids: dict = {TRUNCATED: 0}
        self.nodes: list = [(0, ()), (_END, ()), (_CUT, ())]
        self.ids = {node: n for n, node in enumerate(self.nodes)}
        self.unions: dict = {}  # (a, b) with a < b -> their union

    def event(self, ev) -> int:
        k = self.eids.get(ev)
        if k is None:
            k = self.eids[ev] = len(self.events)
            self.events.append(ev)
        return k

    def node(self, flags: int, edges: tuple) -> int:
        key = (flags, edges)
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = len(self.nodes)
            self.nodes.append(key)
        return n

    def project(self, source: "Automaton", root: int) -> int:
        """The node of the projected language of `source` at `root` (see
        `project_trace`), in one pass over the nodes `root` reaches, children
        first: a node's projection unites its flags with, for each edge, the
        child's projection behind the projected event, or the child's
        projection alone when the event is dropped."""
        eids = [None if p is None else self.event(p) for p in map(project_event, source.events)]
        made: dict = {}  # source node -> projected node
        for n in postorder(source, [root]):
            flags, edges = source.nodes[n]
            node = self.node(flags, ())
            for k, child in edges:
                p, c = eids[k], made[child]
                node = self.union(node, c if p is None else self.node(0, ((p, c),)))
            made[n] = node
        return made[root]

    def __getitem__(self, n: int):
        """The children of node n: an automaton is the successor map that
        `ir.postorder` walks."""
        return map(itemgetter(1), self.nodes[n][1])

    def word(self, trace, stop, node: int) -> int:
        """The node of the events of `trace` down to `stop` followed by the
        language `node`. A trace is (event id, older trace) or None, newest
        event first, and `stop` is `trace` or one of its older traces; a
        truncation marker ends its trace."""
        while trace is not stop:
            k, trace = trace
            node = CUT_ONLY if k == 0 else self.node(0, ((k, node),))
        return node

    def union(self, a: int, b: int) -> int:
        """The node of both languages, children first on an explicit stack."""
        if a == b or b == _EMPTY:
            return a
        if a == _EMPTY:
            return b
        nodes, unions = self.nodes, self.unions
        top = (a, b) if a < b else (b, a)
        stack = [top]
        while stack:
            pair = stack[-1]
            if pair in unions:
                stack.pop()
                continue
            (fa, ea), (fb, eb) = nodes[pair[0]], nodes[pair[1]]
            merged = dict(ea)
            waiting = False
            for k, d in eb:
                c = merged.get(k)
                if c is None:
                    merged[k] = d
                elif c != d:
                    sub = (c, d) if c < d else (d, c)
                    u = unions.get(sub)
                    if u is None:
                        stack.append(sub)
                        waiting = True
                    else:
                        merged[k] = u
            if not waiting:
                unions[pair] = self.node(fa | fb, tuple(sorted(merged.items())))
                stack.pop()
        return unions[top]


class Traces:
    """The distinct raw traces of one run: the paths of its automaton from
    `root`.

    Iteration lists traces in walk order: at each node the trace ending
    there first, then its edges by event id, the event the run emitted
    first first. Counting reads no trace. `total` is the count as an int of
    any size, since `len` fails past `sys.maxsize`; `truncated` counts the
    truncated traces. Truth and equality (with another `Traces` or a list
    or tuple of traces) read `total`, not `len`.
    """

    __slots__ = ("automaton", "root", "total", "truncated")

    def __init__(self, automaton: Automaton, root: int):
        self.automaton, self.root = automaton, root
        paths, cut = [], []  # per node: the traces from it, the truncated ones
        for flags, edges in automaton.nodes:
            c = flags >> 1
            p = (flags & _END) + c
            for _, child in edges:
                p += paths[child]
                c += cut[child]
            paths.append(p)
            cut.append(c)
        self.total = paths[root]
        self.truncated = cut[root]

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    def __iter__(self):
        nodes, names = self.automaton.nodes, self.automaton.events
        flags, edges = nodes[self.root]
        if flags & _END:
            yield ()
        if flags & _CUT:
            yield (TRUNCATED,)
        path: list = []
        walk = [iter(edges)]  # an edge iterator per node on the path
        while walk:
            for k, child in walk[-1]:
                path.append(names[k])
                flags, edges = nodes[child]
                if flags & _END:
                    yield tuple(path)
                if flags & _CUT:
                    yield (*path, TRUNCATED)
                walk.append(iter(edges))
                break
            else:
                walk.pop()
                if path:
                    path.pop()

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Traces, Sequence)):
            return NotImplemented
        total = other.total if isinstance(other, Traces) else len(other)
        return self.total == total and all(map(eq, self, other))


def is_truncated(trace: tuple) -> bool:
    """True when the step budget ran out on the trace's path."""
    return trace[-1:] == (TRUNCATED,)


def project_event(ev: tuple):
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
    return tuple(p for p in map(project_event, trace) if p is not None)


def _read(traces) -> tuple[Automaton, int]:
    """The automaton and root of a `Traces`, or of plain raw trace tuples
    read into the same shape a run builds."""
    if isinstance(traces, Traces):
        return traces.automaton, traces.root
    automaton = Automaton()
    root = _EMPTY
    for t in traces:
        trace = None
        for ev in t:
            trace = (automaton.event(ev), trace)
        root = automaton.union(root, automaton.word(trace, None, ACCEPT))
    return automaton, root


def _unmatched(automaton: Automaton, root: int, broot: int) -> tuple | None:
    """The repr-first trace of the language at `root` that no trace of the
    language at `broot` matches, or None when every one is matched.

    The walk pairs each node below `root` with the node below `broot` at the
    same body (None once there is no such body). A complete trace is matched
    when the other side ends a trace at its body; a truncated one when some
    trace of the other side runs through its body's end. A truncated trace
    of the other side matches every longer body below it. Whether a pair
    has an unmatched trace below it is memoized on the pair.

    The witness then follows the open pairs from the root. No event's repr
    is a prefix of another's, so the repr of a trace orders by its events
    first, and at an end a trace of two or more events sorts before its
    extensions, while the empty and one-event traces sort after theirs
    (`"(e, f)" < "(e, f, "`, but `"(e,)" > "(e, "`).
    """
    if root == _EMPTY:
        return None
    nodes, names = automaton.nodes, automaton.events
    mates: dict = {}  # node -> {event id: child}

    def mate(m, k):
        if m is None:
            return None
        edges = mates.get(m)
        if edges is None:
            edges = mates[m] = dict(nodes[m][1])
        return edges.get(k)

    memo: dict = {}

    def opened(n: int, m) -> bool:
        stack = [(n, m)]
        while stack:
            pair = stack[-1]
            if pair in memo:
                stack.pop()
                continue
            n, m = pair
            flags, edges = nodes[n]
            mflags = nodes[m][0] if m is not None else 0
            if m is None or flags & _END and not mflags:
                result = True
            elif mflags & _CUT:
                result = False
            else:
                result, pending = False, []
                for k, c in edges:
                    sub = (c, mate(m, k))
                    known = memo.get(sub)
                    if known is None:
                        pending.append(sub)
                    elif known:
                        result = True
                        break
                if not result and pending:
                    stack.extend(pending)
                    continue
            memo[pair] = result
            stack.pop()
        return memo[(n, m)]

    n, m = root, (None if broot == _EMPTY else broot)
    if not opened(n, m):
        return None
    path: list = []
    while True:
        flags, edges = nodes[n]
        mflags = nodes[m][0] if m is not None else 0
        best = None  # (repr of the next event, event id or None for the marker, next pair)
        if flags & _CUT and m is None:
            best = (repr(TRUNCATED), None, None)
        if not mflags & _CUT:
            for k, c in edges:
                sub = (c, mate(m, k))
                if opened(*sub):
                    r = repr(names[k])
                    if best is None or r < best[0]:
                        best = (r, k, sub)
        if flags & _END and not mflags and (best is None or len(path) >= 2):
            return tuple(path)
        _, k, sub = best
        if k is None:
            return (*path, TRUNCATED)
        path.append(names[k])
        n, m = sub


def traces_diff(a, b) -> str | None:
    """Human-readable witness of non-equivalence, or None when the projected
    trace sets are equivalent.

    Complete traces must match exactly. A truncated trace matches anything
    it is a prefix of: transformations change statement counts, so the
    budget runs out at different logical points on the two sides. Both
    sides (a `Traces`, or plain raw trace tuples read into an automaton
    first) are projected into one fresh automaton, where equal projected
    languages are one node: one walk over each side's nodes, in step with
    the other's, finds whether the other side leaves a trace unmatched, and
    the witness is the unmatched trace first in repr order, left side first.
    """
    projected = Automaton()
    pa, pb = (projected.project(*_read(t)) for t in (a, b))
    for side, x, y in (("left", pa, pb), ("right", pb, pa)):
        witness = _unmatched(projected, x, y)
        if witness is not None:
            return f"trace only on the {side} side:\n  {witness}"
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
