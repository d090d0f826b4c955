"""In-memory spans recorded around the benchmark's own calls into bigsub.

A span is [name, start, end, parent]: times are time.perf_counter()
seconds, parent is the index of the enclosing span or -1.  Spans stay in
memory while the benchmark runs and are written out once at the end.

Every call takes its own clock stamps and the tracer records spans from
those stamps afterwards, so a traced operation runs exactly the code an
untraced one runs.
"""

import json


class Tracer:
    def __init__(self):
        self.spans: list[list] = []

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span and return its index."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path, extra: dict) -> None:
        """Write every span and `extra` as one JSON document.  A span is
        written as [index into span_names, start ns, end ns, parent],
        times counted from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent"]
        doc["spans"] = [
            [index[n], round((s - t0) * 1e9), round((e - t0) * 1e9), p] for n, s, e, p in self.spans
        ]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
