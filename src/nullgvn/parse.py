"""Textual IR front end: word scanner, recursive-descent parser, pretty-printer.

The scanner is one `findall` of one regex, one match per word: blanks and
comments are a prefix each match consumes, and the last match is "", the end
of input. A word's first character gives its kind. Equal words are one string
object, through a dict local to the parse, so each identifier is one object
per program, shared by every node that names it and by every pass downstream.
`sys.intern` would do the same through the interpreter's table, which keeps
whatever size a parse grows it to. The same dict's keys are the distinct
words: whether a word may name something (an identifier, not a keyword and
not a reserved `__` name) is decided once per distinct word, so checking an
identifier is one set lookup. Nothing tracks positions while parsing; a
diagnostic rescans the text to find the line and column of the word it names.

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

# One match per word: blanks and `//` comments are a prefix the match
# consumes, group 1 is the word, and at the end of the text the group
# matches `\Z`, the "" that stands for end of input. A word's first
# character gives its kind: a letter or `_` starts an identifier, a decimal
# digit an integer (a run of decimal digits, exactly what `int()` accepts),
# anything else punctuation. ASCII identifiers come first, as the common
# case; `[^\W\d]` takes the others, and also admits non-decimal numerals
# such as `²`. `.` catches any character no word can start with (never a
# newline: the prefix consumes those). Both are bad characters, which the
# parser never accepts. The prefix reads a run of blanks, then each comment
# with the blanks after it, in fewer regex steps than one alternation per
# run.
_WORD_RE = re.compile(
    r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
    r"([A-Za-z_]\w*|[!=:]=|[{}():;,.*]|[^\W\d]\w*|\d+|.|\Z)"
)


def _is_ident(word: str) -> bool:
    first = word[:1]
    return first.isalpha() or first == "_"


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _error(text: str, filename: str, message: str, index: int) -> ParseError:
    """The error for the word at `index` ("" at the end of input), unless
    the text has a bad character anywhere: the first one wins over any
    syntax error."""
    at = len(text)
    for n, m in enumerate(_WORD_RE.finditer(text)):
        word = m[1]
        if word and not (_is_ident(word) or word[0].isdecimal() or word in PUNCTUATION):
            message, at = f"unexpected character {word[0]!r}", m.start(1)
            break
        if n == index:
            at = m.start(1)
    line = text.count("\n", 0, at) + 1
    col = at - text.rfind("\n", 0, at)
    return ParseError(Diagnostic("error", message, filename, line, col))


class _Parser:
    """Declarations move the cursor `self.pos` through the word plumbing
    below. Blocks and the rules inside them read the word list directly: each
    takes the index of its first word and returns its node with the index
    past its last word. Every read is at most one word past a word that is
    not "", and the list ends in at least two "", so no read runs off it."""

    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        words = _WORD_RE.findall(text)
        shared: dict[str, str] = {}
        self.words = [*map(shared.setdefault, words, words), ""]
        self.idents = {
            w for w in shared
            if _is_ident(w) and w not in KEYWORDS and not is_reserved_name(w)
        }
        self.pos = 0

    # -- word plumbing -----------------------------------------------------

    def error(self, message: str, index: int) -> ParseError:
        return _error(self.text, self.filename, message, index)

    def expected(self, text: str, index: int) -> ParseError:
        word = self.words[index]
        return self.error(f"expected '{text}', found '{word or 'end of input'}'", index)

    def ident_error(self, what: str, index: int) -> ParseError:
        word = self.words[index]
        if _is_ident(word) and word not in KEYWORDS:  # so a reserved name
            return self.error(
                f"'{word}': identifiers containing '__' are reserved for generated names", index
            )
        return self.error(f"expected {what}, found '{word or 'end of input'}'", index)

    def expect(self, text: str) -> None:
        if self.words[self.pos] != text:
            raise self.expected(text, self.pos)
        self.pos += 1

    def at(self, text: str) -> bool:
        return self.words[self.pos] == text

    def eat(self, text: str) -> bool:
        if self.words[self.pos] == text:
            self.pos += 1
            return True
        return False

    def ident(self, what: str) -> str:
        word = self.words[self.pos]
        if word not in self.idents:
            raise self.ident_error(what, self.pos)
        self.pos += 1
        return word

    # -- declarations ------------------------------------------------------

    def program(self) -> Program:
        globals_: list[str] = []
        while self.eat("var"):
            globals_.append(self.ident("global name"))
            self.skip_type()
            self.expect(";")
        procs: list[Procedure] = []
        if not self.at("procedure"):
            raise self.error("expected procedure", self.pos)
        while self.at("procedure"):
            procs.append(self.procedure())
        if not self.at(""):
            raise self.error("expected procedure or end of input", self.pos)
        # the procedure's own name string, not a literal "main": words stay shared
        entry = next((p.name for p in procs if p.name == "main"), procs[0].name)
        return Program(globals=globals_, procedures=procs, entry=entry)

    def skip_type(self) -> None:
        if self.eat(":"):
            if not _is_ident(self.words[self.pos]):
                raise self.error("expected type name after ':'", self.pos)
            self.pos += 1

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
            block, self.pos = self.block(self.pos)
            blocks.append(block)
        self.expect("}")
        if not blocks:
            raise self.error(f"procedure '{name}' has no blocks", self.pos)
        return Procedure(
            name=name,
            params=params,
            returns=returns,
            locals=locals_,
            blocks=blocks,
            entry_block=blocks[0].label,
        )

    # -- blocks and statements -----------------------------------------------

    def block(self, pos: int) -> tuple[Block, int]:
        words, statement = self.words, self.statement
        label = words[pos]
        if label not in self.idents:
            raise self.ident_error("block label", pos)
        if words[pos + 1] != ":":
            raise self.expected(":", pos + 1)
        pos += 2
        stmts: list[Statement] = []
        while True:
            word = words[pos]
            if word == "goto":
                transfer, pos = self.goto(pos + 1)
                return Block(label, stmts, transfer), pos
            if word == "return":
                if words[pos + 1] != ";":
                    raise self.expected(";", pos + 1)
                return Block(label, stmts, Return()), pos + 2
            stmt, pos = statement(pos)
            stmts.append(stmt)

    def goto(self, pos: int) -> tuple[Goto, int]:
        words, idents = self.words, self.idents
        targets: list[str] = []
        while True:
            target = words[pos]
            if target not in idents:
                raise self.ident_error("label", pos)
            targets.append(target)
            if words[pos + 1] != ",":
                break
            pos += 2
        if words[pos + 1] != ";":
            raise self.expected(";", pos + 1)
        return Goto(tuple(targets)), pos + 2

    def statement(self, pos: int) -> tuple[Statement, int]:
        """One statement, told apart by its first two words."""
        words, idents = self.words, self.idents
        first, second = words[pos], words[pos + 1]
        if first in idents:
            if second == ":=":
                word = words[pos + 2]
                if word in idents:
                    rhs, pos = self.path(pos + 2)
                    stmt: Statement = Assign(first, rhs)
                elif word == "new":
                    if words[pos + 3] != "(":
                        raise self.expected("(", pos + 3)
                    site = words[pos + 4]
                    if not site[:1].isdecimal():
                        raise self.error("expected allocation site id", pos + 4)
                    if words[pos + 5] != ")":
                        raise self.expected(")", pos + 5)
                    stmt, pos = Alloc(first, int(site)), pos + 6
                elif word == "Null":
                    stmt, pos = AssignNull(first), pos + 3
                elif word == "call":
                    return self.call_tail((first,), pos + 3)
                else:
                    raise self.ident_error("variable", pos + 2)
            elif second == ".":
                field = words[pos + 2]
                if field not in idents:
                    raise self.ident_error("field name", pos + 2)
                if words[pos + 3] != ":=":
                    raise self.expected(":=", pos + 3)
                src = words[pos + 4]
                if src not in idents:
                    raise self.ident_error("variable", pos + 4)
                stmt, pos = Store(first, field, src), pos + 5
            elif second == ",":
                outs = [first]
                pos += 1
                while words[pos] == ",":
                    out = words[pos + 1]
                    if out not in idents:
                        raise self.ident_error("variable", pos + 1)
                    outs.append(out)
                    pos += 2
                if words[pos] != ":=":
                    raise self.expected(":=", pos)
                if words[pos + 1] != "call":
                    raise self.expected("call", pos + 1)
                return self.call_tail(tuple(outs), pos + 2)
            else:
                raise self.expected(":=", pos + 1)
        elif first == "assume" or first == "assert":
            cond, pos = self.condition(pos + 1)
            stmt = Assume(cond) if first == "assume" else Assert(cond)
        elif first == "call":
            return self.call_tail((), pos + 1)
        else:
            raise self.ident_error("variable", pos)
        if words[pos] != ";":
            raise self.expected(";", pos)
        return stmt, pos + 1

    def call_tail(self, outs: tuple[str, ...], pos: int) -> tuple[Call, int]:
        words, idents = self.words, self.idents
        callee = words[pos]
        if callee not in idents:
            raise self.ident_error("procedure name", pos)
        if words[pos + 1] != "(":
            raise self.expected("(", pos + 1)
        pos += 2
        args: list[str] = []
        if words[pos] != ")":
            while True:
                arg = words[pos]
                if arg not in idents:
                    raise self.ident_error("argument", pos)
                args.append(arg)
                if words[pos + 1] != ",":
                    break
                pos += 2
            pos += 1
        if words[pos] != ")":
            raise self.expected(")", pos)
        if words[pos + 1] != ";":
            raise self.expected(";", pos + 1)
        return Call(outs, callee, tuple(args)), pos + 2

    def path(self, pos: int) -> tuple[Path, int]:
        words, idents = self.words, self.idents
        base = words[pos]
        if base not in idents:
            raise self.ident_error("variable", pos)
        pos += 1
        if words[pos] != ".":
            return Path(base), pos
        fields: list[str] = []
        while words[pos] == ".":
            field = words[pos + 1]
            if field not in idents:
                raise self.ident_error("field name", pos + 1)
            fields.append(field)
            pos += 2
        return Path(base, tuple(fields)), pos

    def condition(self, pos: int) -> tuple[NullCheck | Opaque, int]:
        words = self.words
        if words[pos] == "*":
            return Opaque(), pos + 1
        parenthesized = words[pos] == "("
        path, pos = self.path(pos + 1 if parenthesized else pos)
        op = words[pos]
        if op != "!=" and op != "==":
            raise self.error("expected '!=' or '==' in condition", pos)
        if words[pos + 1] != "Null":
            raise self.expected("Null", pos + 1)
        pos += 2
        if parenthesized:
            if words[pos] != ")":
                raise self.expected(")", pos)
            pos += 1
        return NullCheck(path, op == "!="), pos


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
