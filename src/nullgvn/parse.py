"""Textual IR front end: tokenizer, recursive-descent parser, pretty-printer.

Grammar (line comments with //, `*` is an opaque condition):

    program   := global* proc+
    global    := "var" IDENT type? ";"
    proc      := "procedure" IDENT "(" params? ")" rets? "{" local* block+ "}"
    rets      := "returns" "(" decllist ")" | "returns" decl
    decl      := "var"? IDENT type?
    type      := ":" IDENT
    block     := IDENT ":" stmt* transfer
    stmt      := IDENT ":=" rhs ";" | IDENT "." IDENT ":=" IDENT ";"
              |  "assume" cond ";" | "assert" cond ";"
              |  idlist ":=" "call" IDENT "(" idlist? ")" ";"
              |  "call" IDENT "(" idlist? ")" ";"
    rhs       := "new" "(" INT ")" | "Null" | IDENT ("." IDENT)*
    cond      := path ("!=" | "==") "Null" | "*"
    transfer  := "goto" idlist ";" | "return" ";"

Type annotations are accepted and discarded (values are untyped pointers).
Source text may use `__` in a name only in the two generated shapes, SSA
versions like `x__2` and tagged temporaries like `gvnTmp__gvn1`, so that
transformed listings re-parse (`ir.is_reserved_name`). A tagged name in
source is trusted as non-null: an open ROADMAP item, the strict xfail
`test_source_tagged_name_not_proved`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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
    Opaque,
    Path,
    Procedure,
    Program,
    Return,
    Statement,
    Store,
    is_reserved_name,
    validate,
)

KEYWORDS = {"var", "procedure", "returns", "goto", "return", "assume", "assert", "call", "new", "Null"}

# One alternative per token kind. Blanks and `//` comments match no named
# group and are skipped; `bad` catches any character no token can start with.
# `[^\W\d]` also admits non-decimal numerals such as `²`, so `_tokenize`
# checks that an identifier starts with a letter or `_`. An integer is a run
# of decimal digits, exactly what `int()` accepts.
_TOKEN_RE = re.compile(
    r"[ \t\r]+|//[^\n]*"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<punct>[!=:]=|[{}():;,.*])"
    r"|(?P<nl>\n)"
    r"|(?P<int>\d+)"
    r"|(?P<bad>.)"
)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _tokenize(text: str, filename: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "nl":
            line += 1
            line_start = m.end()
            continue
        word = m.group()
        col = m.start() - line_start + 1
        if kind == "bad" or kind == "ident" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(
                Diagnostic("error", f"unexpected character {word[0]!r}", filename, line, col)
            )
        toks.append(Token(kind, word, line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.toks = tokens
        self.pos = 0
        self.filename = filename

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(Diagnostic("error", message, self.filename, tok.line, tok.col))

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.fail(f"expected '{text}', found '{tok.text or 'end of input'}'", tok)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def ident(self, what: str = "identifier") -> str:
        tok = self.next()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.fail(f"expected {what}, found '{tok.text or 'end of input'}'", tok)
        if is_reserved_name(tok.text):
            raise self.fail(
                f"'{tok.text}': identifiers containing '__' are reserved for generated names",
                tok,
            )
        return tok.text

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        globals_: list[str] = []
        while self.at("var"):
            self.next()
            globals_.append(self.ident("global name"))
            self.skip_type()
            self.expect(";")
        procs: list[Procedure] = []
        if not self.at("procedure"):
            raise self.fail("expected procedure")
        while self.at("procedure"):
            procs.append(self.procedure())
        if self.peek().kind != "eof":
            raise self.fail("expected procedure or end of input")
        entry = "main" if any(p.name == "main" for p in procs) else procs[0].name
        return Program(globals=globals_, procedures=procs, entry=entry)

    def skip_type(self) -> None:
        if self.eat(":"):
            tok = self.next()
            if tok.kind != "ident":
                raise self.fail("expected type name after ':'", tok)

    def decl_name(self, what: str) -> str:
        self.eat("var")
        name = self.ident(what)
        self.skip_type()
        return name

    def procedure(self) -> Procedure:
        self.expect("procedure")
        name = self.ident("procedure name")
        self.expect("(")
        params: list[str] = []
        if not self.at(")"):
            params.append(self.decl_name("parameter"))
            while self.eat(","):
                params.append(self.decl_name("parameter"))
        self.expect(")")
        returns: list[str] = []
        if self.eat("returns"):
            if self.eat("("):
                returns.append(self.decl_name("return name"))
                while self.eat(","):
                    returns.append(self.decl_name("return name"))
                self.expect(")")
            else:
                returns.append(self.decl_name("return name"))
        self.expect("{")
        locals_: list[str] = []
        while self.at("var"):
            self.next()
            locals_.append(self.ident("local name"))
            self.skip_type()
            self.expect(";")
        blocks: list[Block] = []
        while not self.at("}"):
            blocks.append(self.block())
        self.expect("}")
        if not blocks:
            raise self.fail(f"procedure '{name}' has no blocks")
        return Procedure(
            name=name,
            params=params,
            returns=returns,
            locals=locals_,
            blocks=blocks,
            entry_block=blocks[0].label,
        )

    def block(self) -> Block:
        label = self.ident("block label")
        self.expect(":")
        stmts: list[Statement] = []
        while True:
            if self.at("goto"):
                self.next()
                targets = [self.ident("label")]
                while self.eat(","):
                    targets.append(self.ident("label"))
                self.expect(";")
                return Block(label, stmts, Goto(tuple(targets)))
            if self.at("return"):
                self.next()
                self.expect(";")
                return Block(label, stmts, Return())
            stmts.append(self.statement())

    def statement(self) -> Statement:
        if self.at("assume") or self.at("assert"):
            kw = self.next().text
            cond = self.condition()
            self.expect(";")
            return Assume(cond) if kw == "assume" else Assert(cond)
        if self.at("call"):
            self.next()
            return self.call_tail(())
        first = self.ident("variable")
        if self.eat("."):
            fieldname = self.ident("field name")
            self.expect(":=")
            src = self.ident("variable")
            self.expect(";")
            return Store(first, fieldname, src)
        if self.at(","):
            outs = [first]
            while self.eat(","):
                outs.append(self.ident("variable"))
            self.expect(":=")
            self.expect("call")
            return self.call_tail(tuple(outs))
        self.expect(":=")
        if self.eat("call"):
            return self.call_tail((first,))
        if self.at("new"):
            self.next()
            self.expect("(")
            tok = self.next()
            if tok.kind != "int":
                raise self.fail("expected allocation site id", tok)
            self.expect(")")
            self.expect(";")
            return Alloc(first, int(tok.text))
        if self.at("Null"):
            self.next()
            self.expect(";")
            return AssignNull(first)
        rhs = self.path()
        self.expect(";")
        return Assign(first, rhs)

    def call_tail(self, outs: tuple[str, ...]) -> Call:
        callee = self.ident("procedure name")
        self.expect("(")
        args: list[str] = []
        if not self.at(")"):
            args.append(self.ident("argument"))
            while self.eat(","):
                args.append(self.ident("argument"))
        self.expect(")")
        self.expect(";")
        return Call(outs, callee, tuple(args))

    def path(self) -> Path:
        base = self.ident("variable")
        fields: list[str] = []
        while self.eat("."):
            fields.append(self.ident("field name"))
        return Path(base, tuple(fields))

    def condition(self) -> NullCheck | Opaque:
        if self.eat("*"):
            return Opaque()
        parenthesized = self.eat("(")
        p = self.path()
        op = self.next()
        if op.text not in ("!=", "=="):
            raise self.fail("expected '!=' or '==' in condition", op)
        self.expect("Null")
        if parenthesized:
            self.expect(")")
        return NullCheck(p, negated=(op.text == "!="))


def parse_program(text: str, filename: str = "<input>") -> Program | list[Diagnostic]:
    """Parse source text; returns a validated Program or the diagnostics."""
    try:
        tokens = _tokenize(text, filename)
        program = _Parser(tokens, filename).program()
    except ParseError as exc:
        return [exc.diagnostic]
    diags = validate(program)
    if diags:
        return diags
    return program


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _stmt_text(stmt: Statement) -> str:
    if isinstance(stmt, Assign):
        return f"{stmt.lhs} := {stmt.rhs};"
    if isinstance(stmt, Alloc):
        return f"{stmt.lhs} := new({stmt.site});"
    if isinstance(stmt, AssignNull):
        return f"{stmt.lhs} := Null;"
    if isinstance(stmt, Store):
        return f"{stmt.base}.{stmt.field} := {stmt.src};"
    if isinstance(stmt, Assume):
        return f"assume {stmt.cond};"
    if isinstance(stmt, Assert):
        return f"assert {stmt.cond};"
    if isinstance(stmt, Call):
        args = ", ".join(stmt.args)
        if stmt.outs:
            return f"{', '.join(stmt.outs)} := call {stmt.callee}({args});"
        return f"call {stmt.callee}({args});"
    raise TypeError(f"unknown statement {stmt!r}")


def print_program(program: Program) -> str:
    """Render a program in the textual format; re-parses to an equal program."""
    lines: list[str] = []
    for g in program.globals:
        lines.append(f"var {g};")
    if program.globals:
        lines.append("")
    for proc in program.procedures:
        header = f"procedure {proc.name}({', '.join(proc.params)})"
        if proc.returns:
            header += f" returns ({', '.join(proc.returns)})"
        lines.append(header + " {")
        for v in proc.locals:
            lines.append(f"  var {v};")
        for block in proc.blocks:
            lines.append(f"  {block.label}:")
            for stmt in block.stmts:
                lines.append(f"    {_stmt_text(stmt)}")
            if isinstance(block.transfer, Goto):
                lines.append(f"    goto {', '.join(block.transfer.targets)};")
            else:
                lines.append("    return;")
        lines.append("}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
