"""Textual IR front end: word scanner, recursive-descent parser, pretty-printer.

The scanner is one `findall` of one regex: the source becomes a plain list of
words, "" standing for end of input, and a word's first character gives its
kind. Equal words are one string object, through a dict local to the parse,
so each identifier is one object per program, shared by every node that
names it and by every pass downstream. `sys.intern` would do the same through
the interpreter's table, which keeps whatever size a parse grows it to.
Nothing tracks positions while parsing; a diagnostic rescans the text to find
the line and column of the word it names.

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
PUNCTUATION = {"!=", "==", ":=", "{", "}", "(", ")", ":", ";", ",", ".", "*"}

# Blanks and `//` comments match an empty group, and `findall` drops them.
# A word's first character gives its kind: a letter or `_` starts an
# identifier, a decimal digit an integer (a run of decimal digits, exactly
# what `int()` accepts), anything else punctuation. `[^\W\d]` also admits
# non-decimal numerals such as `²`, and the last alternative catches any
# character no word can start with: both are bad characters, which the
# parser never accepts.
_WORD_RE = re.compile(
    r"[ \t\r\n]+|//[^\n]*"
    r"|([^\W\d]\w*|[!=:]=|[{}():;,.*]|\d+|.)"
)


def _is_ident(word: str) -> bool:
    first = word[:1]
    return first.isalpha() or first == "_"


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _error(text: str, filename: str, message: str, index: int) -> ParseError:
    """The error for the word at `index` ("" past the last word is the end
    of input), unless the text has a bad character anywhere: the first one
    wins over any syntax error."""
    at = len(text)
    for n, m in enumerate(m for m in _WORD_RE.finditer(text) if m[1]):
        word = m[1]
        if not (_is_ident(word) or word[0].isdecimal() or word in PUNCTUATION):
            message, at = f"unexpected character {word[0]!r}", m.start()
            break
        if n == index:
            at = m.start()
    line = text.count("\n", 0, at) + 1
    col = at - text.rfind("\n", 0, at)
    return ParseError(Diagnostic("error", message, filename, line, col))


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        words = list(filter(None, _WORD_RE.findall(text)))
        shared: dict[str, str] = {}
        self.words = [*map(shared.setdefault, words, words), ""]
        self.pos = 0

    # -- word plumbing -----------------------------------------------------
    # Every caller rejects "" once it has read it, so `next` never runs past
    # the end of input.

    def next(self) -> str:
        word = self.words[self.pos]
        self.pos += 1
        return word

    def fail(self, message: str, back: int = 0) -> ParseError:
        """The error at the next word, or at the one read `back` words ago."""
        return _error(self.text, self.filename, message, self.pos - back)

    def expect(self, text: str) -> None:
        word = self.next()
        if word != text:
            raise self.fail(f"expected '{text}', found '{word or 'end of input'}'", 1)

    def at(self, text: str) -> bool:
        return self.words[self.pos] == text

    def eat(self, text: str) -> bool:
        if self.words[self.pos] == text:
            self.pos += 1
            return True
        return False

    def ident(self, what: str = "identifier") -> str:
        word = self.next()
        if not _is_ident(word) or word in KEYWORDS:
            raise self.fail(f"expected {what}, found '{word or 'end of input'}'", 1)
        if is_reserved_name(word):
            raise self.fail(
                f"'{word}': identifiers containing '__' are reserved for generated names", 1
            )
        return word

    # -- grammar -----------------------------------------------------------

    def program(self) -> Program:
        globals_: list[str] = []
        while self.eat("var"):
            globals_.append(self.ident("global name"))
            self.skip_type()
            self.expect(";")
        procs: list[Procedure] = []
        if not self.at("procedure"):
            raise self.fail("expected procedure")
        while self.at("procedure"):
            procs.append(self.procedure())
        if not self.at(""):
            raise self.fail("expected procedure or end of input")
        # the procedure's own name string, not a literal "main": words stay shared
        entry = next((p.name for p in procs if p.name == "main"), procs[0].name)
        return Program(globals=globals_, procedures=procs, entry=entry)

    def skip_type(self) -> None:
        if self.eat(":"):
            if not _is_ident(self.next()):
                raise self.fail("expected type name after ':'", 1)

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
        while self.eat("var"):
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
            if self.eat("goto"):
                targets = [self.ident("label")]
                while self.eat(","):
                    targets.append(self.ident("label"))
                self.expect(";")
                return Block(label, stmts, Goto(tuple(targets)))
            if self.eat("return"):
                self.expect(";")
                return Block(label, stmts, Return())
            stmts.append(self.statement())

    def statement(self) -> Statement:
        if self.at("assume") or self.at("assert"):
            kw = self.next()
            cond = self.condition()
            self.expect(";")
            return Assume(cond) if kw == "assume" else Assert(cond)
        if self.eat("call"):
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
        if self.eat("new"):
            self.expect("(")
            site = self.next()
            if not site[:1].isdecimal():
                raise self.fail("expected allocation site id", 1)
            self.expect(")")
            self.expect(";")
            return Alloc(first, int(site))
        if self.eat("Null"):
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
        if op not in ("!=", "=="):
            raise self.fail("expected '!=' or '==' in condition", 1)
        self.expect("Null")
        if parenthesized:
            self.expect(")")
        return NullCheck(p, negated=(op == "!="))


def parse_program(text: str, filename: str = "<input>") -> Program | list[Diagnostic]:
    """Parse source text; returns a validated Program or the diagnostics."""
    try:
        program = _Parser(text, filename).program()
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
