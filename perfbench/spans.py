"""In-memory spans recorded around calls into the nullgvn layers.

A span has an id, a parent id, a name and monotonic start/end times in
seconds. Spans stay in memory until `write_jsonl` dumps them once, at the
end of a benchmark run. Counters recorded next to the spans are summed per
name.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def children(self, parent_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent_id]

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called `name`."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for s in self.spans:
                fp.write(json.dumps(s) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]
