"""In-memory span recorder and the patching that feeds it (stdlib only).

A span is (name, start, end, parent index, attributes).  Spans stay in a
list until the session ends and are then written out in one piece.  The
recorder wraps functions where their caller looks them up: `from x import f`
binds `f` in the importing module, so each call site is patched in its own
module, and every patch is undone by `restore`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_jsonable(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class SpanRecorder:
    """Records nested spans of one thread; the benchmark runs imputeq
    without its thread pool, so the open spans form a single stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        return span

    def wrap(self, fn, name: str, attrs=None):
        """`fn` recorded as a span; `attrs(args, kwargs, result)` returns the
        attributes to attach.  It runs inside the span, so its (small) cost
        falls to the function it describes, not to the caller's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    self.spans[idx].attrs.update(attrs(args, kwargs, result))
            finally:
                self.close(idx)
            return result

        wrapper.__wrapped_by_spans__ = True
        return wrapper

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace `owner.attr` (module, class or dict entry) by a wrapper."""
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        wrapped = self.wrap(original, name, attrs)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, is_dict))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, is_dict = self._patches.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _, _ in self._patches]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out
