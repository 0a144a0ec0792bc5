"""In-memory spans for the traced benchmark run.

A span has a name, a start, an end, the span that caused it and free-form
attributes.  Spans of one workload operation share an operation number.
Calls the benchmark makes itself are wrapped in :meth:`Tracer.span`; calls
made inside the package are caught by replacing a function under the name
its caller looks up (``module.attr``), and put back by :meth:`Tracer.restore`.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, 0.0, attrs=dict(attrs))
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: str, name: str, on_result=None) -> None:
        """Replace ``target`` (``package.module.attr``) with a spanning wrapper.

        ``on_result(span, result)`` may copy counts from the result into the
        span.  A target that no longer exists is recorded in ``missing``
        rather than raised, so the run still reports every other layer.
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(target)
            return

        def wrapper(*args, **kwargs):
            with self.span(name, site=target) as record:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(record, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
