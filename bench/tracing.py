"""In-memory spans recorded around calls into the landau package.

Spans are taken from the benchmark's own files only: a wrapper is put around
a public function at the place the benchmark (or ``landau.cli``) calls it.
Each span records its name, start, end and the index of the span that was
open when it began, so a layer's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Collects spans in a list; nothing is written until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self, since: int = 0) -> Dict[str, Dict[str, float]]:
        """Per span name: summed duration and self time of spans[since:]."""
        child_time = defaultdict(float)
        for span in self.spans[since:]:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"total_s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans[since:], start=since):
            duration = span.end - span.start
            entry = out[span.name]
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(module, replacements: Dict[Callable, Callable]) -> Iterator[None]:
    """Temporarily rebind every attribute of ``module`` bound to a key.

    Raises ``LookupError`` when some function is not bound in the module,
    since a span that silently records nothing would report a layer as free.
    """
    saved = {}
    for original, replacement in replacements.items():
        names = [k for k, v in vars(module).items() if v is original]
        if not names:
            raise LookupError(
                f"{module.__name__} does not bind {original.__module__}."
                f"{original.__qualname__}; the traced run cannot see that layer"
            )
        for name in names:
            saved[name] = original
            setattr(module, name, replacement)
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(module, name, original)
