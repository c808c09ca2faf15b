"""A span tracer that times callables of the package from outside.

Wrappers are installed on module attributes and class methods at run time
and removed afterwards, so nothing in the package itself changes.  Each
wrapper opens a span; a span's *self* time is its duration minus the time
of the spans nested directly inside it.  Self times of all spans therefore
add up to the duration of the outermost spans, which is what lets the
benchmark account for every second of a traced run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

__all__ = ["Tracer", "Patcher"]


class Tracer:
    """Span stack with per-name self time, inclusive time and counters.

    Inclusive time is only accumulated for the outermost span of a name, so
    a name that nests inside itself (a refinement solve calling an inner
    solve) is not counted twice.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        #: While False every wrapper passes calls straight through, so work
        #: the benchmark does between measurements is not attributed.
        self.enabled = True
        self._stack: list[list] = []  # [name, start, child seconds]

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> float:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if not self.within(name):
            self.incl_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        return dur

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def within(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value


class Patcher:
    """Installs span wrappers and restores the originals on :meth:`restore`.

    ``owner`` is a module or a class.  For a class the attribute is looked
    up through the MRO; an inherited method is shadowed on ``owner`` and the
    shadow is deleted again on restore.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object, bool]] = []

    def _install(self, owner, attr: str, replacement) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original, own))

    def wrap(self, owner, attr: str, name: str | None, *, after=None,
             only_under: frozenset | None = None) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``after(tracer, args, result)`` runs inside the span once the call
        returns (for counters).  ``name=None`` installs only the hook.
        With ``only_under``, calls whose innermost open span is not one of
        those names pass through untimed, so a helper shared by several
        layers is charged only where it is called directly.
        """
        fn = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (
                    only_under is not None
                    and tracer.parent() not in only_under):
                return fn(*args, **kwargs)
            if name is None:
                result = fn(*args, **kwargs)
                after(tracer, args, result)
                return result
            tracer.push(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                tracer.pop()

        self._install(owner, attr, wrapper)

    def wrap_async(self, owner, attr: str, name: str, *, on_end=None) -> None:
        """Time a coroutine function from its first step to its return.

        Spans of other tasks that run while it is suspended nest inside it,
        which is right for a client loop whose wall interval holds the
        whole simulation.  ``on_end(tracer)`` runs just before the span
        closes.
        """
        fn = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            tracer.push(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                if on_end is not None:
                    on_end(tracer)
                tracer.pop()

        self._install(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
