"""Outside-in span tracer: wraps instance methods of the simulator's layers.

Nothing under ``src/`` knows it is being traced.  :meth:`Tracer.wrap`
replaces a bound method with a timing wrapper by setting an attribute
on the *instance* (or on a module, for module-level functions), so the
simulator's own ``self.x(...)`` and ``module.f(...)`` look-ups find the
wrapper.  Spans are aggregated in memory per ``(name, parent)`` — one
:class:`SpanStats` per edge of the call tree, never one object per call —
because the attack workload makes millions of scalar calls.

Self time of a span is its duration minus the durations of the spans it
directly caused; summed over every span, self times add up to the
inclusive time of the top-level spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "<root>"

#: ``hook(tracer, parent, args, result)`` records counters for one call.
Hook = Callable[["Tracer", str, tuple, Any], None]


@dataclass
class SpanStats:
    """Aggregate of every call of one span name under one parent."""

    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Span aggregation plus named counters.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with a deterministic fake.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: Dict[Tuple[str, str], SpanStats] = {}
        self.counters: Dict[str, int] = {}
        # Open spans, innermost last: [name, child seconds so far].
        self._stack: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- record

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hook: Optional[Hook] = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1][0] if stack else ROOT
        frame = [name, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            stats = self.spans.get((name, parent))
            if stats is None:
                stats = self.spans[(name, parent)] = SpanStats()
            stats.calls += 1
            stats.total_s += elapsed
            stats.child_s += frame[1]
        if hook is not None:
            hook(self, parent, args, result)
        return result

    # -------------------------------------------------------- instrument

    def wrap(self, owner: Any, attr: str, name: str,
             hook: Optional[Hook] = None) -> None:
        """Route ``owner.attr(...)`` through a span called ``name``.

        ``owner`` is an instance (the wrapper shadows the class method
        for that instance only) or a module (restored by :meth:`unwrap`).
        """
        original = getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, original, args, kwargs, hook)

        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def iterate(self, iterator: Iterator, name: str,
                hook: Optional[Hook] = None) -> "TracedIterator":
        """Time every ``next()`` of ``iterator`` as a span called ``name``."""
        return TracedIterator(self, iter(iterator), name, hook)

    def unwrap(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._restore:
            owner, attr, previous = self._restore.pop()
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------ queries

    def self_s(self, name: str) -> float:
        return sum(s.self_s for (n, _), s in self.spans.items() if n == name)

    def total_s(self, name: str, parent: Optional[str] = None) -> float:
        return sum(
            s.total_s for (n, p), s in self.spans.items()
            if n == name and (parent is None or p == parent)
        )

    def calls(self, name: str, parent: Optional[str] = None) -> int:
        return sum(
            s.calls for (n, p), s in self.spans.items()
            if n == name and (parent is None or p == parent)
        )

    def top_level(self) -> Dict[str, float]:
        """Inclusive seconds of each root span; together they equal the
        sum of all self times."""
        out: Dict[str, float] = {}
        for (name, parent), stats in self.spans.items():
            if parent == ROOT:
                out[name] = out.get(name, 0.0) + stats.total_s
        return out

    def table(self) -> List[Dict[str, Any]]:
        """Every ``(name, parent)`` aggregate, for the result file."""
        return [
            {"name": n, "parent": p, "calls": s.calls,
             "total_s": s.total_s, "self_s": s.self_s}
            for (n, p), s in sorted(self.spans.items())
        ]


class TracedIterator:
    """Iterator adapter whose ``next()`` calls are spans."""

    def __init__(self, tracer: Tracer, iterator: Iterator, name: str,
                 hook: Optional[Hook]):
        self._tracer = tracer
        self._next = iterator.__next__
        self._name = name
        self._hook = hook

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self) -> Any:
        return self._tracer.call(self._name, self._next, (), {}, self._hook)
