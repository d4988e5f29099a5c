import ast
import json
import random
import re
import string
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings, strategies as st

from nullgvn.corpus import GeneratorConfig, bundled_sources, generate
from nullgvn.ir import Assign, Assume, Opaque, Path, Program
from nullgvn.parse import KEYWORDS, parse_program, print_program

from conftest import mutated_program, parse_ok

FIG_SRC = bundled_sources()["basic_interproc"]


def test_parse_two_procedures():
    program = parse_ok(FIG_SRC)
    assert [p.name for p in program.procedures] == ["f", "main"]
    assert program.entry == "main"
    f = program.procedures[0]
    assert f.params == ["y"] and f.returns == ["u"] and f.locals == ["z"]


def test_empty_input():
    diags = parse_program("")
    assert isinstance(diags, list)
    assert "expected procedure" in diags[0].message


def test_duplicate_site_reported():
    diags = parse_program(
        "procedure main() { var x; L1: x := new(1); x := new(1); return; }"
    )
    assert isinstance(diags, list)
    assert any("allocation site 1" in d.message for d in diags)


def test_syntax_error_has_location():
    diags = parse_program("procedure main() {\n  L1: x := ;\n}")
    assert isinstance(diags, list)
    assert diags[0].line == 2
    assert diags[0].col > 0


def test_round_trip_fig():
    program = parse_ok(FIG_SRC)
    again = parse_ok(print_program(program))
    assert again == program


def test_tagged_variable_prints():
    program = parse_ok("procedure main() { var x; L1: x := new(1); return; }")
    proc = program.procedures[0]
    proc.locals.append("gvnTmp__gvn1")
    proc.blocks[0].stmts.append(Assign("gvnTmp__gvn1", Path("x")))
    text = print_program(program)
    assert "gvnTmp__gvn1 := x;" in text
    assert parse_ok(text) == program


def test_opaque_condition_round_trip():
    program = parse_ok("procedure main() { L1: assume *; assert *; return; }")
    stmt = program.procedures[0].blocks[0].stmts[0]
    assert isinstance(stmt, Assume) and isinstance(stmt.cond, Opaque)
    assert "assume *;" in print_program(program)


def test_reserved_identifiers_rejected():
    diags = parse_program("procedure main() { var a__b; L1: return; }")
    assert isinstance(diags, list)
    assert "reserved" in diags[0].message


def test_condition_without_parens():
    program = parse_ok(
        "procedure main() { var x; L1: x := new(1); assume x != Null; return; }"
    )
    assert isinstance(program, Program)


def test_zero_output_call():
    program = parse_ok(
        """
        procedure f() { L1: return; }
        procedure main() { L1: call f(); return; }
        """
    )
    assert parse_ok(print_program(program)) == program


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 5000))
def test_round_trip_generated(seed):
    program = generate(GeneratorConfig(seed=seed))
    assert parse_ok(print_program(program)) == program


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2000))
def test_round_trip_transformed(seed):
    from nullgvn.gvn import do_gvn
    from nullgvn.normalize import lift_loops, to_ssa

    program = do_gvn(to_ssa(lift_loops(generate(GeneratorConfig(seed=seed)))))
    assert parse_ok(print_program(program)) == program


def _offset(text: str, line: int, col: int) -> int:
    return sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(), mutated_program()))
def test_token_positions(text):
    """A syntax diagnostic sits where the word it names starts, or just past
    the last character for end of input; one that names no word still sits
    at the start of a word."""
    diags = parse_program(text, "t.ir")
    if not isinstance(diags, list) or not diags[0].file:
        return  # parsed; validation diagnostics carry no position
    (diag,) = diags
    at = _offset(text, diag.line, diag.col)
    assert 0 <= at <= len(text)
    named = re.search(r"found '(.*)'$|^'(.*)': identifiers|^unexpected character (.*)$", diag.message)
    if named is None:
        assert at == len(text) or not text[at].isspace(), diag
    elif named[1] == "end of input":
        assert at == len(text), diag
    else:
        word = named[1] or named[2] or ast.literal_eval(named[3])
        assert text.startswith(word, at), diag


@pytest.mark.parametrize(
    "text, expected",
    [
        ("\tx\t:= y;", "1:2: error: expected procedure"),
        ("procedure\r\nf\r\n(\r\n", "4:1: error: expected parameter, found 'end of input'"),
        ("procedure x // note", "1:20: error: expected '(', found 'end of input'"),
        (
            "procedure main() { var x; L1: x := new(12)\n",
            "2:1: error: expected ';', found 'end of input'",
        ),
    ],
    ids=["tab", "crlf", "comment-at-end", "end-of-input"],
)
def test_token_stream(text, expected):
    """Tabs and carriage returns are one column each, a comment runs to the
    end of its line, and end of input sits just past the last character."""
    assert [str(d) for d in parse_program(text, "t.ir")] == [f"t.ir:{expected}"]


@pytest.mark.parametrize("bad", ["²", "½x", "x := 1²"])
def test_numerals_outside_decimal_rejected(bad):
    """Only decimal digits make an integer, and no numeral starts an identifier."""
    numeral = next(c for c in bad if not c.isascii())
    (diag,) = parse_program(bad, "t.ir")
    assert str(diag) == f"t.ir:1:{bad.index(numeral) + 1}: error: unexpected character {numeral!r}"


def test_bad_character_wins_over_syntax_error():
    """A bad character anywhere outside a comment is the one diagnostic,
    even after an earlier syntax error."""
    (diag,) = parse_program("procedure ;\n// $\n  x := $;", "t.ir")
    assert str(diag) == "t.ir:3:8: error: unexpected character '$'"


# Every position that must hold an identifier, as a slot of one program
# that parses and validates with the slots' default names.
IDENT_TEMPLATE = string.Template(
    "var $glob;\n"
    "procedure f($param) returns $ret { L0: r := p; return; }\n"
    "procedure two() returns (a, b) { L0: a := Null; b := Null; return; }\n"
    "procedure main() {\n"
    "  var $local; var y;\n"
    "  L1: x := new(1); y := call $callee($arg); y, $out := call two();\n"
    "      $base.f := y; x.$field := $src; goto $target;\n"
    "  $label: return;\n"
    "}\n"
)
IDENT_DEFAULTS = dict(
    glob="g", param="p", ret="r", local="x", label="L2", target="L2", callee="f",
    arg="x", out="x", field="f", base="x", src="y",
)
# slot -> what its diagnostic says was expected
IDENT_SLOTS = {
    "glob": "global name", "param": "parameter", "ret": "return name",
    "local": "local name", "label": "block label", "target": "label",
    "callee": "procedure name", "arg": "argument", "out": "variable",
    "field": "field name", "base": "variable", "src": "variable",
}


def test_identifier_template_parses():
    assert IDENT_SLOTS.keys() == IDENT_DEFAULTS.keys()
    parse_ok(IDENT_TEMPLATE.substitute(IDENT_DEFAULTS))


@pytest.mark.parametrize("word", ["Null", "a__b", "7"], ids=["keyword", "reserved", "numeral"])
@pytest.mark.parametrize("slot", IDENT_SLOTS)
def test_identifier_positions_reject(slot, word):
    """A keyword, a reserved `__` name or a numeral in any identifier
    position is the one diagnostic, at the word."""
    text = IDENT_TEMPLATE.substitute(IDENT_DEFAULTS, **{slot: word})
    at = IDENT_TEMPLATE.substitute(IDENT_DEFAULTS, **{slot: "\0"}).index("\0")
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    if "__" in word:
        message = f"'{word}': identifiers containing '__' are reserved for generated names"
    else:
        message = f"expected {IDENT_SLOTS[slot]}, found '{word}'"
    assert [str(d) for d in parse_program(text, "t.ir")] == [f"t.ir:{line}:{col}: error: {message}"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("procedure main() { L0: return; } // done", None),
        ("procedure main() { L0: return; }//", None),
        ("procedure main() { L0: return; }\n\t \n", None),
        (
            "procedure main() { L0: return; // no closing brace",
            "1:51: error: expected block label, found 'end of input'",
        ),
        ("procedure main() { L0: return;\n  \t", "2:4: error: expected block label, found 'end of input'"),
        ("procedure main() { var x; L0: x :=", "1:35: error: expected variable, found 'end of input'"),
        ("procedure main() { var x; L0: x := y.", "1:38: error: expected field name, found 'end of input'"),
        ("procedure main() { L0: return; } $", "1:34: error: unexpected character '$'"),
        ("procedure main() { L0: return; }\n  $\n", "2:3: error: unexpected character '$'"),
        ("procedure main() { L0: return; }/", "1:33: error: unexpected character '/'"),
    ],
    ids=[
        "comment", "bare-comment", "blanks", "comment-mid-procedure", "blanks-mid-procedure",
        "mid-statement", "mid-path", "bad-char", "bad-char-then-blanks", "lone-slash",
    ],
)
def test_input_ends(text, expected):
    """How input may end: in a comment or blanks, which the last word's
    match consumes, or early, with the diagnostic just past the last
    character; a bad character after the last word is still found."""
    result = parse_program(text, "t.ir")
    if expected is None:
        assert isinstance(result, Program)
    else:
        assert [str(d) for d in result] == [f"t.ir:{expected}"]


GOLDEN_DIAGNOSTICS = FsPath(__file__).parent / "golden_diagnostics.json"

# Words of the textual format, found without the parser: the mutations below
# must not depend on the scanner they check.
_WORD = re.compile(r"[A-Za-z_]\w*|\d+|[!=:]=|[{}():;,.*]")
_REPLACEMENTS = sorted(KEYWORDS) + [
    ":=", "==", "!=", ":", ";", ",", ".", "*", "(", ")", "{", "}",
    "x", "L1", "main", "gvnTmp__gvn1", "a__b", "0", "7", "\u00b2", "$", "/",
]
_SPLICE_CHARS = "ab_1 \t\n\r;:=!.,(){}*/$\u00b2\u00bd\u00e9"


def mutated_sources() -> dict[str, str]:
    """case id -> source text: 88 seeded mutations of each bundled program,
    22 each of a word deleted, a word duplicated, a word replaced and a span
    of up to 20 characters replaced by up to 10 random ones."""
    cases = {}
    for name, src in bundled_sources().items():
        rng = random.Random(name)
        words = [m.span() for m in _WORD.finditer(src)]
        for i in range(22):
            s, e = rng.choice(words)
            cases[f"{name}/delete/{i}"] = src[:s] + src[e:]
            s, e = rng.choice(words)
            cases[f"{name}/duplicate/{i}"] = src[:e] + " " + src[s:e] + src[e:]
            s, e = rng.choice(words)
            cases[f"{name}/replace/{i}"] = src[:s] + rng.choice(_REPLACEMENTS) + src[e:]
            s = rng.randrange(len(src) + 1)
            e = min(len(src), s + rng.randrange(21))
            text = "".join(rng.choice(_SPLICE_CHARS) for _ in range(rng.randrange(11)))
            cases[f"{name}/splice/{i}"] = src[:s] + text + src[e:]
    return cases


def diagnostics_of(cases: dict[str, str]) -> dict[str, str]:
    """case id -> its diagnostics, one a line, or "OK" if it parses and validates."""
    out = {}
    for case, text in cases.items():
        result = parse_program(text, case.split("/")[0] + ".ir")
        out[case] = "\n".join(map(str, result)) if isinstance(result, list) else "OK"
    return out


def test_mutation_diagnostics_pinned():
    golden = json.loads(GOLDEN_DIAGNOSTICS.read_text(encoding="utf-8"))
    assert len(golden) == 2024
    assert diagnostics_of(mutated_sources()) == golden
