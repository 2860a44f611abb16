"""Spans around the calls the benchmark makes into the package.

A span records name, start, end, parent span and operation id.  Spans
stay in memory and are written out when the run ends.  With tracing off
the benchmark calls the package directly through :class:`NullTracer`.
"""

import json
import time
from pathlib import Path


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None

    def call(self, name, fn, *args, **kwargs):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def durations_by_op(self) -> dict[int, dict[str, float]]:
        """Per operation id: summed duration of its spans by name."""
        out: dict[int, dict[str, float]] = {}
        for span in self.spans:
            if span["op"] is None:
                continue
            per_op = out.setdefault(span["op"], {})
            per_op[span["name"]] = per_op.get(span["name"], 0.0) + span["end"] - span["start"]
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")
