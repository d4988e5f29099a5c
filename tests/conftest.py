import pytest
from hypothesis import strategies as st

from nullgvn.corpus import bundled_sources
from nullgvn.ir import Program
from nullgvn.parse import parse_program


def parse_ok(src: str) -> Program:
    program = parse_program(src)
    assert isinstance(program, Program), f"unexpected diagnostics: {program}"
    return program


@pytest.fixture(scope="session")
def bundled():
    from nullgvn.corpus import bundled_programs

    return bundled_programs()


@st.composite
def mutated_program(draw):
    """A bundled program with one short span replaced by arbitrary text."""
    src = draw(st.sampled_from(sorted(bundled_sources().values())))
    start = draw(st.integers(0, len(src)))
    end = draw(st.integers(start, min(len(src), start + 20)))
    return src[:start] + draw(st.text(max_size=10)) + src[end:]
