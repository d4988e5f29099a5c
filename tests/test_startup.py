"""What `import nullgvn.cli` loads: no `dataclasses` (nor the `inspect` it
pulls in), and the oracle, `interp` and `traces`, only on first use."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import nullgvn.cli
print(*(m for m in sys.argv[2:] if m in sys.modules))
import nullgvn
print(nullgvn.enumerate_traces.__module__, "nullgvn.interp" in sys.modules)
print(hasattr(nullgvn, "no_such_name"))
"""


def test_cli_import_leaves_out_dataclasses_and_the_oracle():
    unwanted = ("dataclasses", "inspect", "nullgvn.interp", "nullgvn.traces")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE, str(SRC), *unwanted],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "nullgvn.interp True", "False"]


@pytest.mark.parametrize("path", sorted((SRC / "nullgvn").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    text = path.read_text(encoding="utf-8")
    assert not re.search(r"^\s*(import|from)\s+dataclasses\b", text, re.M)
