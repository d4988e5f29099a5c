"""Bundled example programs and a seeded random program generator.

The bundled set, one `.ir` file per program under `programs/`, covers the
motivating patterns of the transformation (guarded copies, chained field
reads, merge-point checks, field and call kills, loops) plus adversarial
corners. The generator produces closed programs (no read of a
never-assigned variable on any path) with a "defensive programmer" bias:
dereferences tend to sit behind a non-null check, which is exactly the
shape the transformation exploits.
"""

from __future__ import annotations

import random
from importlib import resources
from typing import NamedTuple

from .ir import (
    Alloc,
    Assert,
    Assign,
    AssignNull,
    Assume,
    Block,
    Call,
    Goto,
    NullCheck,
    Opaque,
    Path,
    Procedure,
    Program,
    Return,
    Store,
    validate,
)
from .normalize import dominators
from .parse import parse_program


def bundled_sources() -> dict[str, str]:
    """Name -> source text of the packaged programs, `programs/NAME.ir`."""
    files = resources.files(__package__) / "programs"
    return {
        f.name.removesuffix(".ir"): f.read_text(encoding="utf-8")
        for f in sorted(files.iterdir(), key=lambda f: f.name)
        if f.name.endswith(".ir")
    }


def bundled_programs() -> dict[str, Program]:
    """Name -> parsed program; every entry validates cleanly."""
    out: dict[str, Program] = {}
    for name, text in bundled_sources().items():
        program = parse_program(text, filename=name)
        if isinstance(program, list):
            raise AssertionError(f"bundled program {name}: {program[0]}")
        out[name] = program
    return out


# ---------------------------------------------------------------------------
# Random program generator
# ---------------------------------------------------------------------------

DEFAULT_WEIGHTS = {
    "defensive": 4.0,
    "copy": 1.5,
    "load": 1.0,
    "store": 1.0,
    "alloc": 1.0,
    "null": 0.5,
    "assume": 0.3,
    "assert": 0.4,
    "call": 0.8,
}

FIELDS = ("f", "g", "h")


class GeneratorConfig(NamedTuple):
    seed: int = 0
    max_procs: int = 2
    max_blocks: int = 4
    max_stmts: int = 4
    weights: tuple[tuple[str, float], ...] = tuple(DEFAULT_WEIGHTS.items())
    null_check_density: float = 0.85
    loop_prob: float = 0.15


def _weighted(rng: random.Random, weights: tuple[tuple[str, float], ...]) -> str:
    total = sum(w for _, w in weights)
    x = rng.random() * total
    for kind, w in weights:
        x -= w
        if x <= 0:
            return kind
    return weights[-1][0]


class _Gen:
    def __init__(self, config: GeneratorConfig):
        self.cfg = config
        self.rng = random.Random(config.seed)
        self.site = 0
        self.signatures: dict[str, tuple[list[str], list[str]]] = {}

    def new_site(self) -> int:
        self.site += 1
        return self.site

    def generate(self) -> Program:
        rng, cfg = self.rng, self.cfg
        n_procs = rng.randint(1, max(1, cfg.max_procs))
        globals_ = [f"g{i}" for i in range(rng.randint(0, 2))]
        names = ["main"] + [f"p{i}" for i in range(1, n_procs)]
        # Signatures first: call sites need the callee arity.
        self.signatures["main"] = ([], [])
        for name in names[1:]:
            params = [f"a{i}" for i in range(rng.randint(0, 2))]
            returns = [f"r{i}" for i in range(rng.randint(0, 1))]
            self.signatures[name] = (params, returns)
        procs = []
        for i, name in enumerate(names):
            procs.append(self._procedure(i, name, names, globals_))
        program = Program(globals=globals_, procedures=procs, entry="main")
        self._ensure_assert(program)
        problems = validate(program)
        if problems:
            raise AssertionError(f"generator produced invalid program: {problems[0]}")
        return program

    def _procedure(self, index: int, name: str, names: list[str], globals_: list[str]) -> Procedure:
        rng, cfg = self.rng, self.cfg
        is_main = index == 0
        params, returns = self.signatures[name]
        locals_ = [f"v{i}" for i in range(rng.randint(2, 4))]
        n_blocks = rng.randint(1, max(1, cfg.max_blocks))
        labels = [f"B{i}" for i in range(n_blocks)]

        # Chain edges keep every block reachable; occasional skip edges add
        # merge diversity; an optional back edge forms a natural loop.
        targets: dict[str, list[str]] = {l: [] for l in labels}
        for i in range(n_blocks - 1):
            targets[labels[i]].append(labels[i + 1])
            if i + 2 < n_blocks and rng.random() < 0.3:
                targets[labels[i]].append(labels[rng.randint(i + 2, n_blocks - 1)])

        blocks = [Block(l, [], Goto(tuple(targets[l])) if targets[l] else Return()) for l in labels]
        proc = Procedure(name, params, returns, locals_, blocks, labels[0])

        if n_blocks >= 2 and rng.random() < cfg.loop_prob:
            self._add_back_edge(proc)

        scope = proc.scope_vars() + globals_
        known: list[str] = list(params)
        # Prologue: initialize globals (entry procedure only) and every
        # procedure-scope variable, so no path reads an unassigned name.
        prologue: list = []
        init_targets = (globals_ if is_main else []) + locals_ + returns
        for v in init_targets:
            choice = rng.random()
            if choice < 0.55 or not known:
                prologue.append(Alloc(v, self.new_site()))
            elif choice < 0.75:
                prologue.append(AssignNull(v))
            else:
                prologue.append(Assign(v, Path(rng.choice(known))))
            known.append(v)
        blocks[0].stmts = prologue

        callees = names[index + 1 :]
        for block in blocks:
            body: list = []
            for _ in range(rng.randint(0, max(0, cfg.max_stmts))):
                body.extend(self._statement(scope, callees, names, globals_))
            block.stmts = block.stmts + body
        return proc

    def _add_back_edge(self, proc: Procedure) -> None:
        rng = self.rng
        labels = [b.label for b in proc.blocks]
        u_i = rng.randint(1, len(labels) - 1)
        h_i = rng.randint(0, u_i)
        u, h = labels[u_i], labels[h_i]
        block = proc.blocks[u_i]
        if not isinstance(block.transfer, Goto):
            block.transfer = Goto((h,))
        elif h not in block.transfer.targets:
            block.transfer = Goto(block.transfer.targets + (h,))
        else:
            return
        if h not in dominators(proc)[u]:
            # Irreducible shape; drop the edge again.
            kept = tuple(t for t in block.transfer.targets if t != h)
            block.transfer = Goto(kept) if kept else Return()

    def _cond(self, path: Path, real: bool):
        """A real `!= Null` check when the density draw `real` says so, else
        mostly an opaque condition."""
        if real:
            return NullCheck(path, True)
        if self.rng.random() < 0.3:
            return NullCheck(path, False)
        return Opaque()

    def _statement(self, scope: list[str], callees: list[str], names: list[str], globals_: list[str]) -> list:
        rng, cfg = self.rng, self.cfg
        kind = _weighted(rng, cfg.weights)
        pick = lambda: rng.choice(scope)
        fieldname = lambda: rng.choice(FIELDS)

        if kind == "defensive":
            # The shape the transformation exploits: load, check, use. One
            # density draw covers the pair, a real check guards a real assert.
            src, dst, cpy = pick(), pick(), pick()
            real = rng.random() < cfg.null_check_density
            out = [Assign(dst, Path(src, (fieldname(),)))]
            out.append(Assume(self._cond(Path(dst), real)))
            subject = dst
            if rng.random() < 0.5 and cpy != dst:
                out.append(Assign(cpy, Path(dst)))
                subject = cpy
            out.append(Assert(self._cond(Path(subject), real)))
            return out
        if kind == "copy":
            a, b = pick(), pick()
            return [Assign(a, Path(b))]
        if kind == "load":
            depth = 2 if rng.random() < 0.25 else 1
            fields = tuple(fieldname() for _ in range(depth))
            return [Assign(pick(), Path(pick(), fields))]
        if kind == "store":
            return [Store(pick(), fieldname(), pick())]
        if kind == "alloc":
            return [Alloc(pick(), self.new_site())]
        if kind == "null":
            return [AssignNull(pick())]
        if kind == "assume":
            return [Assume(self._cond(Path(pick()), rng.random() < cfg.null_check_density))]
        if kind == "assert":
            return [Assert(self._cond(Path(pick()), rng.random() < cfg.null_check_density))]
        if kind == "call" and callees:
            callee_name = rng.choice(callees)
            params, returns = self.signatures[callee_name]
            args = tuple(pick() for _ in range(len(params)))
            candidates = [v for v in scope if v not in globals_]
            outs = tuple(rng.choice(candidates) for _ in range(len(returns)))
            if len(set(outs)) != len(outs):
                return []
            return [Call(outs, callee_name, args)]
        return []

    def _ensure_assert(self, program: Program) -> None:
        for proc in program.procedures:
            for block in proc.blocks:
                if any(isinstance(s, Assert) for s in block.stmts):
                    return
        main = program.procedures[0]
        scope = main.scope_vars()
        block = main.blocks[-1]
        if scope:
            real = self.rng.random() < self.cfg.null_check_density
            block.stmts.append(Assert(self._cond(Path(scope[0]), real)))
        else:
            block.stmts.append(Assert(Opaque()))


def generate(config: GeneratorConfig) -> Program:
    """Deterministic program generation: same config, same program."""
    return _Gen(config).generate()
