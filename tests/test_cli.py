import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings, strategies as st

from nullgvn import corpus, interp, pipeline, solver
from nullgvn.cli import build_parser, main
from nullgvn.corpus import bundled_sources
from nullgvn.interp import enumerate_traces, is_truncated
from nullgvn.ir import Assert
from nullgvn.parse import parse_program, print_program
from nullgvn.pipeline import transform_program

from conftest import mutated_program

CORPUS = FsPath(corpus.__file__).parent / "programs"


@pytest.fixture()
def chained(tmp_path):
    path = tmp_path / "chained.ir"
    path.write_text(bundled_sources()["chained_field_equiv"], encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_schema(capsys, chained):
    code, out, _ = run(capsys, "analyze", chained, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["asserts_total"] == 1
    assert data["asserts_unproved"] == 0
    assert set(data["timings_ms"]) == {
        "parse", "lift", "ssa", "gvn", "constraints", "solve", "classify"
    }


def test_analyze_huge_site_ids(capsys, tmp_path):
    """Site ids need only be positive and unique; a huge one analyses like a
    small one."""
    path = tmp_path / "huge.ir"
    path.write_text(
        "procedure main() {\n  var x; var y;\n  L0:\n"
        "    x := new(100000000000);\n    y := x;\n"
        "    assert (y != Null);\n    return;\n}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "analyze", path, "--check-semantics", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["asserts_unproved"] == 0


TAGGED_NAME_SRC = (
    "procedure main() {\n  var gvnTmp__gvn1;\n  L1:\n    gvnTmp__gvn1 := Null;\n"
    "    assert (gvnTmp__gvn1 != Null);\n    return;\n}\n"
)


def test_source_tagged_name_assert_fails_at_runtime():
    traces = enumerate_traces(parse_program(TAGGED_NAME_SRC), 16)
    assert traces and all(any(ev[0] == "assert_fail" for ev in t) for t in traces)


@pytest.mark.xfail(
    strict=True,
    reason="the solver strips Null from every tagged-looking name, also one the "
    "source declares (ROADMAP open item on tagged source names)",
)
def test_source_tagged_name_not_proved(capsys, tmp_path):
    """Transformed listings re-parse, so source text may name a variable like
    a tagged temporary; its Null is real and the assert must stay UNPROVED."""
    path = tmp_path / "tagged_name.ir"
    path.write_text(TAGGED_NAME_SRC, encoding="utf-8")
    code, out, err = run(capsys, "analyze", path, "--format", "json")
    assert code == 0, err
    assert json.loads(out)["asserts_unproved"] == 1


def test_analyze_levels_flip_verdict(capsys, chained):
    code, out, _ = run(capsys, "analyze", chained, "--transform", "ssa", "--format", "json")
    assert code == 0 and json.loads(out)["asserts_unproved"] == 1
    code, out, _ = run(capsys, "analyze", chained, "--transform", "ssa+gvn", "--format", "json")
    assert code == 0 and json.loads(out)["asserts_unproved"] == 0


def test_analyze_check_semantics(capsys, chained):
    code, out, err = run(capsys, "analyze", chained, "--check-semantics", "--depth", "64")
    assert code == 0, err
    label, timings = out.splitlines()[-1].split(":", 1)
    assert label.strip() == "timings_ms"
    assert [t.split("=")[0] for t in timings.split()] == [
        "parse", "lift", "ssa", "gvn", "constraints", "solve", "classify"
    ]


def test_emit_transformed_decouples(capsys, tmp_path, chained):
    emitted = tmp_path / "out.ir"
    code, out, _ = run(
        capsys, "analyze", chained, "--format", "json", "--emit-transformed", emitted
    )
    assert code == 0
    one_shot = json.loads(out)
    code, out, _ = run(capsys, "analyze", emitted, "--transform", "none", "--format", "json")
    assert code == 0
    reanalyzed = json.loads(out)
    assert reanalyzed["asserts_total"] == one_shot["asserts_total"]
    assert reanalyzed["asserts_unproved"] == one_shot["asserts_unproved"]
    verdicts = lambda d: [a["verdict"] for a in d["per_assert"]]
    assert verdicts(reanalyzed) == verdicts(one_shot)


def test_transform_round_trips(capsys, chained):
    code, out, _ = run(capsys, "transform", chained, "--level", "ssa+gvn")
    assert code == 0
    assert "gvnTmp__gvn1" in out


def test_gen_deterministic(capsys):
    code, first, _ = run(capsys, "gen", "--seed", "11")
    assert code == 0
    code, second, _ = run(capsys, "gen", "--seed", "11")
    assert first == second


def test_gen_config_file(capsys, tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("seed=3\nloop_prob=0.0\nnull_check_density=1.0\n", encoding="utf-8")
    code, out, _ = run(capsys, "gen", "--config", cfg)
    assert code == 0
    assert "procedure main()" in out
    default = print_program(corpus.generate(corpus.GeneratorConfig()))
    cfg.write_text("", encoding="utf-8")
    assert run(capsys, "gen", "--config", cfg) == (0, default, "")
    assert run(capsys, "gen") == (0, default, "")
    cfg.write_text("seed=3\nloop_prob=0.5\n", encoding="utf-8")  # the flags win
    assert run(capsys, "gen", "--config", cfg, "--seed", "0", "--loop-prob", "0.15") == (
        0, default, "")
    cfg.write_text("weight_copy=nan\nloop_prob=1.5\n", encoding="utf-8")
    code, _, err = run(capsys, "gen", "--config", cfg)
    assert code == 1
    assert "weight_copy must be a finite number" in err and "loop_prob must be between" in err
    code, _, err = run(capsys, "gen", "--null-check-density", "-0.5")
    assert (code, err) == (1, "error: null_check_density must be between 0 and 1, got -0.5\n")


COVERAGE = re.compile(
    r"traces equivalent at depth (\d+) \((\d+) / (\d+) traces, (\d+)% / (\d+)% truncated\)"
)


def test_check_semantics_subcommand(capsys):
    path = CORPUS / "loop_multi_exit.ir"
    code, out, _ = run(capsys, "check-semantics", path, "--depth", "64")
    assert code == 0
    depth, n_a, n_b, pct_a, pct_b = map(int, COVERAGE.search(out).groups())
    program = corpus.bundled_programs()["loop_multi_exit"]
    a = enumerate_traces(program, 64)
    b = enumerate_traces(transform_program(program, "ssa+gvn")[0], 64)
    assert (depth, n_a, n_b) == (64, len(a), len(b))
    for pct, traces in ((pct_a, a), (pct_b, b)):
        assert pct == round(100 * sum(map(is_truncated, traces)) / len(traces))


GOLDEN = json.loads((FsPath(__file__).parent / "golden_oracle.json").read_text(encoding="utf-8"))


def test_check_semantics_lines_pinned(capsys):
    """The `check-semantics --depth 60` line of every bundled program at
    both levels."""
    got = {}
    for name in corpus.bundled_sources():
        path = CORPUS / f"{name}.ir"
        for level in ("ssa", "ssa+gvn"):
            code, out, err = run(capsys, "check-semantics", path, "--level", level, "--depth", 60)
            assert code == 0, err
            got[f"{name} {level}"] = out.strip().replace(str(path), path.name)
    assert got == GOLDEN["check_semantics_at_depth_60"]


def test_check_semantics_deep(capsys):
    """`loop_nested` at depth 80: 1,318,117 distinct original traces,
    923,085 of them truncated, the counts a path-by-path enumeration gives.
    Depth 200 completes too."""
    path = CORPUS / "loop_nested.ir"
    code, out, err = run(capsys, "check-semantics", path, "--depth", 80)
    assert code == 0, err
    depth, n_a, _, pct_a, _ = map(int, COVERAGE.search(out).groups())
    assert (depth, n_a, pct_a) == (80, 1318117, 70)
    original = enumerate_traces(corpus.bundled_programs()["loop_nested"], 80)
    assert (len(original), original.truncated) == (1318117, 923085)
    code, out, err = run(capsys, "check-semantics", path, "--depth", 200)
    assert code == 0, err
    assert COVERAGE.search(out).group(1) == "200"


def test_check_semantics_counts_past_len(capsys, tmp_path):
    """64 two-way choices in a row give 2^64 distinct traces, more than
    `len` can return; the line still reports the exact counts."""
    stages = "".join(
        f" S{i}: goto A{i}, B{i}; A{i}: assert (x == Null); goto S{i + 1}; B{i}: goto S{i + 1};"
        for i in range(64)
    )
    path = tmp_path / "choices.ir"
    path.write_text(
        f"procedure main() {{ var x; L: x := Null; goto S0; {stages} S64: return; }}",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check-semantics", path, "--depth", 400)
    assert code == 0, err
    assert f"({2**64} / {2**64} traces, 0% / 0% truncated)" in out


@pytest.mark.parametrize("command", [["check-semantics"], ["analyze", "--check-semantics"]])
def test_check_semantics_all_truncated_fails(capsys, tmp_path, command):
    """A program whose every path runs out of budget compares nothing."""
    path = tmp_path / "spin.ir"
    path.write_text("procedure main() {\n  L0: goto L0;\n}\n", encoding="utf-8")
    code, out, err = run(capsys, command[0], path, *command[1:], "--depth", "16")
    assert code == 1
    assert err.startswith(f"{path}: error: every trace is truncated at depth 16;")
    assert "internal error" not in err and "equivalent" not in out


def test_check_semantics_dump(capsys, tmp_path, chained):
    dump = tmp_path / "traces.jsonl"
    code, out, _ = run(capsys, "check-semantics", chained, "--dump-traces", dump)
    assert code == 0
    _, n_a, n_b, _, _ = map(int, COVERAGE.search(out).groups())
    records = [json.loads(l) for l in dump.read_text(encoding="utf-8").splitlines()]
    assert all(set(r) == {"side", "trace"} and r["trace"] for r in records)
    sides = [r["side"] for r in records]
    assert sides == ["original"] * n_a + ["transformed"] * n_b


def test_consecutive_main_calls_share_no_state(capsys, chained):
    """The parser is built once per process, yet each call's subcommand and
    flags apply to that call alone: every output equals the one a freshly
    built parser gives, and the defaults come back after a flag."""
    assert build_parser() is build_parser()
    calls = [
        ["transform", chained, "--level", "none"],
        ["transform", chained],
        ["gen", "--seed", "3", "--loop-prob", "0.9"],
        ["gen", "--seed", "3"],
        ["check-semantics", chained, "--level", "ssa", "--depth", "8"],
        ["check-semantics", chained],
        ["analyze", chained, "--format", "json"],
        ["analyze", chained],
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))

    def untimed(results):
        return [(code, re.sub(r"timings_ms.*", "", out, flags=re.S), err)
                for code, out, err in results]

    assert untimed(shared) == untimed(fresh)
    assert all(a != b for a, b in zip(shared[::2], shared[1::2]))
    assert shared[6][1].startswith("{") and shared[7][1].startswith(str(chained))


def test_report_table(capsys):
    code, out, _ = run(capsys, "report", CORPUS)
    assert code == 0
    assert "bench" in out and "total" in out
    assert "chained_field_equiv" in out


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", CORPUS, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) >= 17
    row = {r["bench"]: r for r in rows}["guarded_copy"]
    assert row["ssa_unproved"] == 1 and row["gvn_unproved"] == 0


def test_reports_identical_modulo_timings(capsys, chained):
    def strip(d):
        return {k: v for k, v in d.items() if k != "timings_ms"}

    _, first, _ = run(capsys, "analyze", chained, "--format", "json")
    _, second, _ = run(capsys, "analyze", chained, "--format", "json")
    assert strip(json.loads(first)) == strip(json.loads(second))


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ir"
    bad.write_text("procedure main() {", encoding="utf-8")
    code, _, err = run(capsys, "analyze", bad)
    assert code == 1
    assert "error" in err


IRREDUCIBLE = """
procedure main() {
  var a;
  L0: a := new(1); goto L1, L2;
  L1: a := Null; goto L2;
  L2: a := a; goto L1;
}
"""


@pytest.mark.parametrize(
    "command, line",
    [
        ("report", "{path}: procedure f: error: duplicate names in returns list"),
        ("analyze", "{path}: procedure main: error: irreducible control flow: "
                    "cycle has no dominating header"),
    ],
    ids=["validation", "loop-lifting"],
)
def test_program_diagnostics_name_the_file(capsys, tmp_path, command, line):
    """A validation or loop-lifting diagnostic names the file it is about,
    also among the files of a `report` directory."""
    (tmp_path / "a.ir").write_text("procedure main() { L0: return; }", encoding="utf-8")
    path = tmp_path / "b.ir"
    path.write_text(
        "procedure main() { L0: return; } procedure f() returns (r, r) { L0: return; }"
        if command == "report" else IRREDUCIBLE,
        encoding="utf-8",
    )
    code, out, err = run(capsys, command, tmp_path if command == "report" else path)
    assert (code, out, err) == (1, "", line.format(path=path) + "\n")


def _drop_asserts(program):
    """A broken gvn stage: the program without its asserts."""
    program = program.clone()
    for proc in program.procedures:
        for block in proc.blocks:
            block.stmts = [s for s in block.stmts if not isinstance(s, Assert)]
    return program


@pytest.mark.parametrize("argv", [["check-semantics"], ["analyze", "--check-semantics"]],
                         ids=["check-semantics", "analyze"])
def test_semantics_check_failure_exit(capsys, monkeypatch, chained, argv):
    """A transformation that changes the traces fails the semantics check:
    exit 1, the witness on stderr and no report."""
    monkeypatch.setattr(pipeline, "STAGES", (*pipeline.STAGES[:2], ("gvn", _drop_asserts)))
    code, out, err = run(capsys, *argv[:1], chained, *argv[1:])
    assert code == 1 and out == ""
    assert "trace only on the left side:" in err
    if argv[0] == "analyze":
        assert err.endswith("semantics check FAILED\n")


def test_trace_limit_exit(capsys, monkeypatch, chained):
    enumerate_traces = interp.enumerate_traces
    monkeypatch.setattr(interp, "enumerate_traces",
                        lambda program, depth: enumerate_traces(program, depth, max_traces=2))
    code, out, err = run(capsys, "check-semantics", chained)
    assert (code, out) == (1, "")
    assert err == f"{chained}: error: exceeded 2 automaton nodes and configurations at depth 64\n"


def test_internal_error_exit(capsys, monkeypatch, chained):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "analyze_program", boom)
    code, out, err = run(capsys, "analyze", chained)
    assert (code, out, err) == (2, "", "internal error: RuntimeError('boom')\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--null-check-density", "abc"],
         "nullgvn gen: error: argument --null-check-density: invalid float value: 'abc'"),
        (["gen", "--bogus"], "nullgvn: error: unrecognized arguments: --bogus"),
        ([], "nullgvn: error: the following arguments are required: command"),
        (["analyze"], "nullgvn analyze: error: the following arguments are required: file"),
        (["analyze", "F", "--format", "xml"],
         "nullgvn analyze: error: argument --format: invalid choice: 'xml'"),
    ],
    ids=["bad-float-flag", "unknown-flag", "no-subcommand", "analyze-without-file",
         "unknown-format"],
)
def test_usage_error_exit_code(capsys, argv, message):
    """A malformed command line is a diagnostic, exit 1 with argparse's
    usage message on stderr; exit 2 stays the internal-error code."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: nullgvn")
    assert message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nullgvn")


def _verdict_outputs(capsys):
    """`analyze --format json` on every bundled program and `report --format
    json` on all of them, without their timings."""
    analyses = {}
    for path in sorted(CORPUS.glob("*.ir")):
        code, out, err = run(capsys, "analyze", path, "--format", "json")
        assert code == 0, err
        analyses[path.stem] = {k: v for k, v in json.loads(out).items() if k != "timings_ms"}
    code, out, err = run(capsys, "report", CORPUS, "--format", "json")
    assert code == 0, err
    rows = [{k: v for k, v in row.items() if not k.endswith("_ms")} for row in json.loads(out)]
    return analyses, rows


def test_default_path_skips_wave_solver(capsys, monkeypatch):
    """`analyze` and `report` decide verdicts without the full solver: with
    it raising, they print the verdicts and rows of an unpatched run, which
    are those of a run that decides them on the full solver's solution."""
    unpatched = _verdict_outputs(capsys)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "solve_null", solver.solve_worklist)
        assert _verdict_outputs(capsys) == unpatched

    def boom(graph):
        raise AssertionError("the full solver ran")

    monkeypatch.setattr(solver, "solve_worklist", boom)
    assert _verdict_outputs(capsys) == unpatched


def test_missing_corpus_dir(capsys, tmp_path):
    """A missing path, a file and a directory without programs are each
    named with the reason, in the `path: error:` form of a file error."""
    (tmp_path / "file.ir").write_text("", encoding="utf-8")
    (tmp_path / "empty").mkdir()
    for name, reason in (("nothing", "No such file or directory"),
                         ("file.ir", "Not a directory"),
                         ("empty", "no .ir files")):
        code, out, err = run(capsys, "report", tmp_path / name)
        assert (code, out, err) == (1, "", f"{tmp_path / name}: error: {reason}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{missing}"],
        ["analyze", "{undecodable}"],
        ["analyze", "{superscript}"],
        ["gen", "--config", "{missing}"],
        ["gen", "--config", "{bad_config}"],
        ["gen", "--config", "{unknown_key}"],
        ["gen", "--config", "{no_equals}"],
        ["gen", "--config", "{unknown_weight}"],
        ["gen", "--config", "{nan_weight}"],
        ["gen", "--config", "{infinite_weight}"],
        ["gen", "--config", "{negative_weight}"],
        ["gen", "--config", "{zero_weights}"],
        ["gen", "--config", "{overflowing_weights}"],
        ["gen", "--config", "{density_above_one}"],
        ["gen", "--config", "{negative_procs}"],
        ["gen", "--config", "{zero_blocks}"],
        ["gen", "--config", "{negative_stmts}"],
        ["gen", "--null-check-density", "2"],
        ["gen", "--loop-prob", "nan"],
        ["check-semantics", "{program}", "--depth", "-5"],
        ["analyze", "{program}", "--check-semantics", "--depth", "0"],
        ["transform", "{program}", "-o", "{unwritable}"],
        ["analyze", "{program}", "--emit-transformed", "{unwritable}"],
        ["check-semantics", "{program}", "--dump-traces", "{unwritable}"],
    ],
    ids=["missing-file", "undecodable-file", "superscript-site-id", "missing-config",
         "bad-config-value", "unknown-config-key", "config-line-without-equals",
         "unknown-config-weight", "nan-config-weight", "infinite-config-weight",
         "negative-config-weight", "no-positive-config-weight",
         "overflowing-config-weights", "config-density-above-one",
         "negative-config-procs", "zero-config-blocks", "negative-config-stmts",
         "density-flag-above-one", "nan-loop-prob-flag", "negative-depth", "zero-depth",
         "unwritable-transform-output", "unwritable-emit-transformed",
         "unwritable-trace-dump"],
)
def test_malformed_input_exit_code(capsys, tmp_path, chained, argv):
    undecodable = tmp_path / "undecodable.ir"
    undecodable.write_bytes(b"\xff\xfeprocedure main() { L1: return; }")
    superscript = tmp_path / "superscript.ir"
    superscript.write_text("procedure main() { var x; L1: x := new(²); return; }",
                           encoding="utf-8")
    paths = {"missing": tmp_path / "missing.ir", "undecodable": undecodable,
             "superscript": superscript,
             "program": chained, "unwritable": tmp_path / "no-such-dir" / "out"}
    configs = {"bad_config": "seed=seven", "unknown_key": "max_proc=9",
               "no_equals": "seed=3\nmax_procs 9", "unknown_weight": "weight_bogus=1",
               "nan_weight": "weight_copy=nan", "infinite_weight": "weight_copy=inf",
               "negative_weight": "weight_copy=-1",
               "zero_weights": "\n".join(f"weight_{kind}=0" for kind in corpus.DEFAULT_WEIGHTS),
               "overflowing_weights": "weight_copy=1e308\nweight_load=1e308",
               "density_above_one": "null_check_density=2",
               "negative_procs": "max_procs=-3", "zero_blocks": "max_blocks=0",
               "negative_stmts": "max_stmts=-2"}
    for key, text in configs.items():
        paths[key] = tmp_path / f"{key}.cfg"
        paths[key].write_text(text + "\n", encoding="utf-8")
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1
    assert "error" in err and "internal error" not in err
    assert "equivalent" not in out


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(),
    st.text().map(str.encode),
    mutated_program().map(str.encode),
))
def test_arbitrary_input_never_internal_error(tmp_path_factory, data):
    """Whatever the file holds, analyze gives a verdict or a diagnostic."""
    path = tmp_path_factory.getbasetemp() / "fuzz-input.ir"
    path.write_bytes(data)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["analyze", str(path), "--check-semantics", "--depth", "8"])
    assert code in (0, 1), err.getvalue()
