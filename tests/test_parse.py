import pytest
from hypothesis import given, settings, strategies as st

from nullgvn.corpus import GeneratorConfig, bundled_sources, generate
from nullgvn.ir import Assign, Assume, Opaque, Path, Program
from nullgvn.parse import ParseError, _tokenize, parse_program, print_program

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
    """Each token's text starts at its own (line, col); end of input sits
    just past the last character."""
    try:
        toks = _tokenize(text, "t.ir")
    except ParseError:
        return
    offsets = [_offset(text, t.line, t.col) for t in toks]
    assert offsets == sorted(set(offsets))
    for tok, at in zip(toks, offsets):
        assert text.startswith(tok.text, at), tok
    assert toks[-1].kind == "eof" and offsets[-1] == len(text)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("\tx\t:= y;", [("ident", "x", 1, 2), ("punct", ":=", 1, 4),
                        ("ident", "y", 1, 7), ("punct", ";", 1, 8), ("eof", "", 1, 9)]),
        ("a\r\nb\r\n", [("ident", "a", 1, 1), ("ident", "b", 2, 1), ("eof", "", 3, 1)]),
        ("x // note", [("ident", "x", 1, 1), ("eof", "", 1, 10)]),
        ("new(12)\n", [("ident", "new", 1, 1), ("punct", "(", 1, 4), ("int", "12", 1, 5),
                       ("punct", ")", 1, 7), ("eof", "", 2, 1)]),
    ],
    ids=["tab", "crlf", "comment-at-end", "end-of-input"],
)
def test_token_stream(text, expected):
    assert [tuple(t) for t in _tokenize(text, "t.ir")] == expected


@pytest.mark.parametrize("bad", ["²", "½x", "x := 1²"])
def test_numerals_outside_decimal_rejected(bad):
    """Only decimal digits make an integer, and no numeral starts an identifier."""
    with pytest.raises(ParseError, match="unexpected character"):
        _tokenize(bad, "t.ir")
