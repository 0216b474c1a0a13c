"""In-memory spans around the benchmark's calls into the program.

A span records name, start, end, parent span and run id, plus any
counters the caller attaches to it (``rec["score_ops"] = ...``).  Spans
live in a list until ``write`` dumps them as JSON lines at the end of the
run.  A disabled tracer hands out throwaway dicts and records nothing, so
traced and untraced runs execute the same benchmark code.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = "setup"
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield dict(attrs)
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def by_run(self) -> dict[str, list[dict]]:
        """Spans grouped by run id, in recording order."""
        out: dict[str, list[dict]] = {}
        for rec in self.spans:
            out.setdefault(rec["run"], []).append(rec)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=float) + "\n")
