"""Command-line driver: analyze, transform, gen, check-semantics, report."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from pathlib import Path as FsPath
from typing import TextIO

from . import corpus, normalize, pipeline
from .ir import Diagnostic
from .parse import parse_program, print_program

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_INTERNAL = 2


class InputError(Exception):
    """An input the CLI cannot use; main prints the diagnostics, exit 1."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


def _file_error(path: str, exc: Exception) -> InputError:
    """`path: error: <reason>` for a file that cannot be read or written."""
    reason = getattr(exc, "strerror", None) or str(exc)
    return InputError([Diagnostic("error", reason, where=path)])


def _read(path: str) -> str:
    """The text of a UTF-8 file; every input file is read here."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc) from exc


def _open_output(path: str) -> TextIO:
    """Open a UTF-8 file for writing; every output file is opened here."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _file_error(path, exc) from exc


def _in_file(path: str, diag: Diagnostic) -> Diagnostic:
    """A diagnostic about the program in `path`, naming the file; a parse
    error already gives its file:line:col."""
    if diag.file:
        return diag
    return diag.replace(where=f"{path}: {diag.where}" if diag.where else path)


def _parse(text: str, path: str):
    """Parse one program; its diagnostics become an InputError."""
    program = parse_program(text, path)
    if isinstance(program, list):
        raise InputError([_in_file(path, d) for d in program])
    return program


@contextlib.contextmanager
def _lifting(path: str):
    """Turn a loop-lifting failure of the program in `path` into an
    InputError that names the file."""
    try:
        yield
    except normalize.LiftError as exc:
        raise InputError([_in_file(path, exc.diagnostic)]) from exc


def _load(path: str):
    """Read and parse one program file."""
    return _parse(_read(path), path)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with _open_output(out) as fp:
            fp.write(text)


def _report_text(name: str, report) -> str:
    lines = [f"{name}: {report.unproved} of {report.total} asserts not proved safe"]
    for a in report.per_assert:
        lines.append(f"  {a.proc}/{a.block}[{a.index}] assert {a.cond}: {a.verdict}")
    lines.append(
        "  timings_ms: "
        + " ".join(f"{k}={ms:.2f}" for k, ms in report.timings_ms.items())
    )
    return "\n".join(lines) + "\n"


def _check_semantics(
    path: str, original, transformed, depth: int, dump: str | None
) -> str | None:
    """Compare the traces of the program in `path` and its transform.
    Returns the coverage, as `N / M traces, X% / Y% truncated`, when they
    are equivalent; prints the witness and returns None when they are not."""
    from . import interp

    if depth < 1:
        raise InputError([Diagnostic("error", f"--depth must be at least 1, got {depth}")])
    try:
        a = interp.enumerate_traces(original, depth)
        b = interp.enumerate_traces(transformed, depth)
    except interp.TraceLimitError as exc:
        raise InputError([_in_file(path, Diagnostic("error", str(exc)))]) from exc
    if dump:
        with _open_output(dump) as fp:
            interp.dump_traces_jsonl(a, "original", fp)
            interp.dump_traces_jsonl(b, "transformed", fp)
    cut_a, cut_b = a.truncated, b.truncated
    if cut_a == a.total and cut_b == b.total:
        raise InputError([_in_file(path, Diagnostic(
            "error",
            f"every trace is truncated at depth {depth}; nothing was compared, raise --depth",
        ))])
    diff = interp.traces_diff(a, b)
    if diff is not None:
        print(diff, file=sys.stderr)
        return None
    return (f"{a.total} / {b.total} traces, "
            f"{100 * cut_a / a.total:.0f}% / {100 * cut_b / b.total:.0f}% truncated")


# -- subcommands ---------------------------------------------------------------


def cmd_analyze(args) -> int:
    text = _read(args.file)
    t0 = time.monotonic()
    program = _parse(text, args.file)
    parse_ms = (time.monotonic() - t0) * 1000.0
    del text  # not needed past parsing; a large source would stay resident
    with _lifting(args.file):
        result = pipeline.analyze_program(program, args.transform, parse_ms)
    if args.check_semantics:
        if _check_semantics(args.file, program, result.transformed, args.depth, None) is None:
            print("semantics check FAILED", file=sys.stderr)
            return EXIT_DIAGNOSTICS
    if args.emit_transformed:
        _emit(print_program(result.transformed), args.emit_transformed)
    if args.format == "json":
        _emit(json.dumps(result.report.to_json_dict(), indent=2) + "\n", None)
    else:
        _emit(_report_text(args.file, result.report), None)
    return EXIT_OK


def cmd_transform(args) -> int:
    program = _load(args.file)
    with _lifting(args.file):
        transformed, _ = pipeline.transform_program(program, args.level)
    _emit(print_program(transformed), args.output)
    return EXIT_OK


def cmd_check_semantics(args) -> int:
    program = _load(args.file)
    with _lifting(args.file):
        transformed, _ = pipeline.transform_program(program, args.level)
    coverage = _check_semantics(
        args.file, program, transformed, args.depth, args.dump_traces
    )
    if coverage is None:
        return EXIT_DIAGNOSTICS
    print(f"{args.file}: traces equivalent at depth {args.depth} ({coverage})")
    return EXIT_OK


# The type of each numeric generator setting, taken from its default.
CONFIG_TYPES = {name: type(default)
                for name, default in corpus.GeneratorConfig._field_defaults.items()
                if name != "weights"}
CONFIG_KEYS = (*CONFIG_TYPES, *(f"weight_{kind}" for kind in corpus.DEFAULT_WEIGHTS))


def _config_from_args(args) -> corpus.GeneratorConfig:
    """The defaults of `GeneratorConfig`, overridden by the config file and
    then by the command-line flags of the same name."""
    values: dict[str, str] = {}
    if args.config:
        for number, raw in enumerate(_read(args.config).splitlines(), 1):
            line = raw.split("//")[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in CONFIG_KEYS:
                problem = f"unknown key '{key}'" if eq else f"expected key=value, got '{line}'"
                raise InputError(
                    [Diagnostic("error", f"line {number}: {problem}", where=args.config)]
                )
            values[key] = value
    weights = dict(corpus.DEFAULT_WEIGHTS)
    flags = {key: flag for key in CONFIG_TYPES if (flag := getattr(args, key, None)) is not None}
    changes = dict(flags)
    try:
        for key, value in values.items():
            if key.startswith("weight_"):
                weights[key[len("weight_"):]] = float(value)
            elif key not in changes:
                changes[key] = CONFIG_TYPES[key](value)
    except ValueError as exc:  # a config value that is not a number
        raise InputError([Diagnostic("error", str(exc), where=args.config)]) from exc
    problems = [
        (f"weight_{kind} must be a finite number, at least 0, got {w}", args.config)
        for kind, w in weights.items() if not (math.isfinite(w) and w >= 0)
    ]
    if not problems and not 0 < sum(weights.values()) < math.inf:
        problems.append(("the weight_* values must have a positive, finite sum", args.config))
    problems += [
        (f"{key} must be between 0 and 1, got {changes[key]}", "" if key in flags else args.config)
        for key in ("null_check_density", "loop_prob")
        if key in changes and not 0 <= changes[key] <= 1
    ]
    problems += [
        (f"{key} must be at least {least}, got {changes[key]}", args.config)
        for key, least in (("max_procs", 1), ("max_blocks", 1), ("max_stmts", 0))
        if key in changes and changes[key] < least
    ]
    if problems:
        raise InputError([Diagnostic("error", msg, where=where) for msg, where in problems])
    return corpus.GeneratorConfig()._replace(weights=tuple(weights.items()), **changes)


def cmd_gen(args) -> int:
    program = corpus.generate(_config_from_args(args))
    _emit(print_program(program), args.output)
    return EXIT_OK


def _report_row(path: FsPath) -> dict:
    program = _load(str(path))
    with _lifting(str(path)):
        ssa, gvn = pipeline.analyze_levels(program)
    return {
        "bench": path.stem,
        "procs": len(program.procedures),
        "asserts": ssa.total,
        "ssa_time_ms": round(sum(ssa.timings_ms.values()), 3),
        "ssa_unproved": ssa.unproved,
        "gvn_time_ms": round(sum(gvn.timings_ms.values()), 3),
        "gvn_phase_ms": round(gvn.timings_ms["gvn"], 3),
        "gvn_unproved": gvn.unproved,
    }


def cmd_report(args) -> int:
    try:
        names = os.listdir(args.directory)
    except OSError as exc:
        raise _file_error(args.directory, exc) from exc
    files = sorted(FsPath(args.directory) / name for name in names if name.endswith(".ir"))
    if not files:
        raise InputError([Diagnostic("error", "no .ir files", where=args.directory)])
    rows = [_report_row(path) for path in files]
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", None)
        return EXIT_OK
    cols = [
        ("bench", 28), ("procs", 6), ("asserts", 8),
        ("ssa_time_ms", 12), ("ssa_unproved", 13),
        ("gvn_time_ms", 12), ("gvn_phase_ms", 13), ("gvn_unproved", 13),
    ]
    header = " ".join(name.rjust(width) if i else name.ljust(width)
                      for i, (name, width) in enumerate(cols))
    print(header)
    print("-" * len(header))
    totals = {name: 0 for name, _ in cols[1:]}
    for row in rows:
        print(" ".join(
            (str(row[name]).rjust(width) if i else str(row[name]).ljust(width))
            for i, (name, width) in enumerate(cols)
        ))
        for name, _ in cols[1:]:
            totals[name] += row[name]
    print("-" * len(header))
    print(" ".join(
        ("total".ljust(cols[0][1]) if i == 0 else str(round(totals[name], 3)).rjust(width))
        for i, (name, width) in enumerate(cols)
    ))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1, a diagnostic like any other:
    exit 2 is the internal-error code. Subcommand parsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DIAGNOSTICS, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged, so repeated `main` calls share it."""
    parser = _ArgumentParser(
        prog="nullgvn",
        description="Non-null assertion checking for a small pointer IR: "
        "loop lifting, SSA, a value-numbering transformation that exploits "
        "null checks, and an inclusion-based points-to analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one program and report assert safety")
    p.add_argument("file")
    p.add_argument("--transform", choices=pipeline.TRANSFORM_LEVELS, default="ssa+gvn")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--check-semantics", action="store_true",
                   help="also verify trace equivalence of the transformation")
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--emit-transformed", metavar="PATH",
                   help="write the transformed program to PATH")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="print the transformed program")
    p.add_argument("file")
    p.add_argument("--level", choices=pipeline.TRANSFORM_LEVELS, default="ssa+gvn")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("gen", help="generate a random program")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", help="key=value config file", default=None)
    p.add_argument("--null-check-density", type=float, default=None)
    p.add_argument("--loop-prob", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-semantics",
                       help="compare traces of a program and its transformed version")
    p.add_argument("file")
    p.add_argument("--level", choices=pipeline.TRANSFORM_LEVELS, default="ssa+gvn")
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--dump-traces", metavar="PATH", default=None,
                   help="dump both trace sets as JSON lines, each tagged with its side")
    p.set_defaults(func=cmd_check_semantics)

    p = sub.add_parser("report", help="aggregate table over a corpus directory")
    p.add_argument("directory")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except Exception as exc:  # internal error contract
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
