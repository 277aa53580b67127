"""In-memory spans recorded by wrapping the names library callers look up.

A Tracer replaces module or class attributes with timing wrappers for as
long as it is active and puts every original back on exit. Targets that do
not exist are skipped, so a layer deleted from the library simply never
fires and its metrics are reported absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans plus the wrap targets installed while the tracer is active.

    targets are (target, span name, count) triples for wrap().
    """

    def __init__(self, targets=()):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self._kids: dict[int, list[Span]] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._kids.setdefault(parent, []).append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() != span.id:
            raise RuntimeError("spans must close in LIFO order")

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn inside a span; count(span, args, kwargs, result) adds counts."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if count is not None:
            count(span, args, kwargs, result)
        return result

    # -- patching ----------------------------------------------------------
    def wrap(self, target: str, name: str, count=None) -> bool:
        """Wrap "pkg.module:Attr.path" until restore().

        Returns False, patching nothing, when the target does not exist.
        """
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = vars(owner).get(attr)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, count=count, **kwargs)

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        """Install every target; the ones that do not exist are skipped."""
        for target, name, count in self.targets:
            self.wrap(target, name, count)
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ----------------------------------------------------------
    def roots(self, name: str) -> list[Span]:
        return [s for s in self._kids.get(None, []) if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return self._kids.get(span.id, [])

    def descendants(self, span: Span) -> list[Span]:
        """Every span below this one, in the order they were opened."""
        out, todo = [], list(reversed(self.children(span)))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(reversed(self.children(s)))
        return out

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of it covered by child spans."""
        covered, reach = 0.0, span.start
        for kid in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.seconds - covered

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
