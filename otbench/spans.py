"""In-memory spans recorded from the benchmark side of each call into otecon.

A span has a name, a start, an end, the id of its parent span and the id of
the operation it belongs to.  Spans live in a list until the run ends and
are then written out in one piece.  ``wrap`` replaces a function in a
module namespace with a recording wrapper, so calls that ``otecon.cli.main``
makes into the CSV readers and the solvers become child spans without any
program file being edited; ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = ""
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; attributes set on the yielded dict are kept."""
        record = {
            "id": len(self.spans),
            "op": self.op,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield record
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> bool:
        """Record every call of ``module.attr`` as a span; False if it is gone."""
        original = getattr(module, attr, None)
        if not callable(original):
            return False

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name, call=attr):
                return original(*args, **kwargs)

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, original))
        return True

    def restore(self) -> None:
        while self._wrapped:
            module, attr, original = self._wrapped.pop()
            setattr(module, attr, original)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, spans: list[dict]) -> float:
    """Span duration minus the part its direct children cover.

    Children run one after another inside their parent, so their union is
    the sum of their durations.
    """
    covered = sum(duration(s) for s in spans if s["parent"] == span["id"])
    return duration(span) - covered
