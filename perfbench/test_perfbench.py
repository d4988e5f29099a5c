"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They check that inputs are reproducible, that `large` stays in its
statement band, that every emitted metric is declared in BENCHMARK.json,
and that the layer spans cover the traced time, so a layer function renamed
away shows up as lost coverage rather than as a silent zero.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from replay import replay  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import LARGE_BAND, WORKLOADS, make_inputs, stmt_count  # noqa: E402

SCRATCH = run.OUT / "tests"
# Share of the traced time that the layer spans must cover; the rest is
# the replay's own glue (reading files, building result rows).
COVERAGE_TOLERANCE = 0.10


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _inputs_in_subprocess(workload: str, seed: int, dest: Path, hash_seed: str) -> dict[str, bytes]:
    code = (
        "import sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
        "from workloads import make_inputs; "
        f"make_inputs({workload!r}, {seed}, Path({str(dest)!r}))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    return {p.name: p.read_bytes() for p in sorted(dest.glob("*.ir"))}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    base = _fresh(f"inputs-{workload}")
    first = _inputs_in_subprocess(workload, 7, base / "a", "1")
    second = _inputs_in_subprocess(workload, 7, base / "b", "2")
    assert first and first == second


def test_report_inputs_depend_on_seed():
    base = _fresh("inputs-report-seeds")
    a = make_inputs("report", 1, base / "a")
    b = make_inputs("report", 2, base / "b")
    assert [p.read_bytes() for p in a] != [p.read_bytes() for p in b]


def test_large_stays_in_band():
    from nullgvn import parse_program

    (path,) = make_inputs("large", 3, _fresh("inputs-large-band"))
    program = parse_program(path.read_text(encoding="utf-8"))
    assert LARGE_BAND[0] <= stmt_count(program) <= LARGE_BAND[1]


def test_declared_metrics_match_benchmark_json():
    spec = _spec()
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _replay_subset(workload: str, names: list[str] | None = None):
    files = make_inputs(workload, 5, _fresh(f"replay-{workload}"))
    if names is not None:
        files = [f for f in files if f.stem in names]
    else:
        files = files[:12]
    tracer = Tracer()
    reference, checks = replay(workload, files, tracer)
    return tracer, reference, checks


@pytest.mark.parametrize(
    "workload, names",
    [
        ("report", None),
        ("oracle", ["chained_field_equiv", "loop_self", "store_invalidates_check"]),
    ],
)
def test_spans_cover_traced_time(workload, names):
    tracer, _, checks = _replay_subset(workload, names)
    layers = run.per_layer(tracer, wall_s=1.0)
    assert layers["trace.coverage"] >= 1.0 - COVERAGE_TOLERANCE
    assert checks.oracle_violations == 0 and checks.unsafe_failures == 0
    for span in run.LAYER_TIMES.values():
        assert any(s["name"] == span for s in tracer.spans), f"no {span} span"


def test_emitted_metrics_are_declared():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "report",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
        for name in run.CHECKS:
            assert name in proc.stdout


def test_fails_without_sources():
    bare = _fresh("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
