"""In-memory spans for the traced benchmark run.

A span is one timed call at a layer boundary: name, start, end, parent span
and operation id.  Spans stay in a list until the run ends and are then
written out as JSON.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


@contextmanager
def wrapped(targets, wrap):
    """Replace ``module.attr`` by ``wrap(module.attr)`` for each (module, attr),
    and put every one back on exit.

    A target the module does not have is skipped, so a renamed function
    does not stop the run; the context yields the skipped ones as
    "module.attr", without the package prefix.
    """
    saved, missing = [], []
    try:
        for module, attr in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__.removeprefix('numsem.')}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn))
        yield missing
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []  # patch targets the package no longer has
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def duration(self, name):
        """Seconds of the single span called ``name``."""
        (d,) = self.durations(name)
        return d

    def self_times(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        Children run one after another in one thread, so they never overlap.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            d = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - child[s["id"]]
        return out

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "spans": self.spans,
                    "missing": self.missing,
                    "self_times": self.self_times(),
                },
                fh,
            )

    @contextmanager
    def patched(self, targets):
        """Wrap each (module, attr) in a span for the duration; see ``wrapped``.

        The span's name is the function's home module and name, without the
        package prefix, so a function imported into several modules keeps
        one name.  Absent targets are added to ``missing``.
        """
        with wrapped(targets, self._wrap) as missing:
            self.missing += missing
            yield

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('numsem.')}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper
