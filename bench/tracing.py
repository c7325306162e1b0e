"""In-memory span tracer for the brepcodec benchmark.

The tracer times calls into the package's public functions without editing
the package: `Tracer.span` and `Tracer.count` replace a function at the
module attribute its caller looks up (``brepcodec.reconstruct.fit_face`` is
what ``reconstruct()`` calls; ``brepcodec.pipeline.reconstruct`` is what
``roundtrip_check`` calls).  `Tracer.restore` puts every original back.

A span records a name, start, end, parent and the op it belongs to.  All
times are process CPU seconds (`CLOCK`): the benchmark runs one thread
with no I/O, so CPU time is the work done, and unlike wall time it leaves
out the time a shared virtual machine's host takes the CPU away.
Per-token functions are too frequent for one span per call, so `count`
keeps only a call count and busy time per name, and charges that time to
the innermost open span so that self times stay exact.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

CLOCK = time.process_time


@dataclass(eq=False)
class Span:
    id: int
    op: int
    name: str
    parent: int                 # -1 for the root span of an op
    start: float
    end: float = 0.0
    covered: float = 0.0        # time of direct child spans and counted calls
    counted: float = 0.0        # the counted-call part of `covered`
    error: bool = False         # the call raised
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered

    def as_dict(self) -> dict:
        return {"id": self.id, "op": self.op, "name": self.name,
                "parent": self.parent, "start": self.start, "end": self.end,
                "counted_s": self.counted, "error": self.error, "info": self.info}


class Tracer:
    """Spans grouped into ops; each op is tagged with a kind (setup or op)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_kinds: list[str] = []
        self.calls: dict[str, list] = {}      # name -> [calls, busy seconds]
        self.enabled = True
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(id=len(self.spans), op=len(self.op_kinds) - 1, name=name,
                    parent=parent, start=CLOCK())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = CLOCK()
        self._stack.pop()
        if self._stack:
            self._stack[-1].covered += span.duration

    def begin_op(self, kind: str) -> Span:
        """Start a new op; its root span is named ``bench.<kind>``."""
        if self._stack:
            raise RuntimeError("an op is already open")
        self.op_kinds.append(kind)
        return self.open(f"bench.{kind}")

    def note(self, key: str, n: int = 1) -> None:
        """Add to a counter on the innermost open span."""
        if self.enabled and self._stack:
            info = self._stack[-1].info
            info[key] = info.get(key, 0) + n

    # -- patching ----------------------------------------------------------
    def _patch(self, module, attr: str, replacement_for) -> None:
        original = getattr(module, attr)
        setattr(module, attr, functools.wraps(original)(replacement_for(original)))
        self._patches.append((module, attr, original))

    def span(self, module, attr: str, name: str, observe=None) -> None:
        """Record one span per call of ``module.attr``.

        ``observe(span, args, result)`` may fill ``span.info`` after the
        call returns; its cost lands outside the span.
        """
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                span = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    span.error = True
                    raise
                finally:
                    tracer.close(span)
                if observe is not None:
                    observe(span, args, result)
                return result
            return traced

        self._patch(module, attr, make)

    def count(self, module, attr: str, name: str) -> None:
        """Aggregate calls of ``module.attr`` as a call count and busy time."""
        tracer = self
        slot = self.calls.setdefault(name, [0, 0.0])

        def make(original):
            def counted(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                t0 = CLOCK()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = CLOCK() - t0
                    slot[0] += 1
                    slot[1] += dt
                    if tracer._stack:
                        top = tracer._stack[-1]
                        top.covered += dt
                        top.counted += dt
            return counted

        self._patch(module, attr, make)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------
    def op_spans(self, kind: str) -> list[Span]:
        return [s for s in self.spans if self.op_kinds[s.op] == kind]

    def as_dict(self) -> dict:
        return {"ops": self.op_kinds,
                "spans": [s.as_dict() for s in self.spans],
                "counted_calls": {k: {"calls": c, "busy_s": b}
                                  for k, (c, b) in self.calls.items()}}


def layer_of(name: str) -> str:
    """``reconstruct.fit_face`` -> ``reconstruct``."""
    return name.split(".", 1)[0]


def check_spans(spans) -> list[str]:
    """Structural checks: closed spans, non-negative self time, and direct
    children (plus counted calls) that never cover more than their parent."""
    problems = []
    child_time = {}
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    for s in spans:
        children = child_time.get(s.id, 0.0) + s.counted
        # covered and children are sums of the same floats in other orders
        if children > s.duration + 1e-9:
            problems.append(f"span {s.id} {s.name}: children cover {children:.6f}s "
                            f"of {s.duration:.6f}s")
        if s.self_time < -1e-9:
            problems.append(f"span {s.id} {s.name}: negative self time")
    return problems
