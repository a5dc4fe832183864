"""Span tracing from outside the program: wrappers installed on functions
and methods of already-imported modules, and removed again afterwards.

A span records its name, start, end, parent and operation id.  Self time
is a span's duration minus the durations of its direct children, worked
out online with a stack, so the self times of all spans of a run plus
the root's self time add up exactly to the root's duration.

Spans marked *hot* (per-event observer callbacks, checksums) fire
millions of times per run; they take part in the self-time arithmetic
but are only aggregated per name, never stored one by one, so memory
stays bounded.  Every other span is kept in memory and written out at
the end by the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Patcher:
    """Replaces attributes and puts the originals back.

    Patching a module-level function also rebinds every alias of it that
    a ``from m import f`` left in another loaded module under ``prefix``,
    so calls that look the name up in the importing module are wrapped
    too.  Patching a method replaces it on the named class.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def patch_function(self, module: Any, attr: str, make: Callable) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        owners = [module] + [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None
            and mod is not module
            and (name == self.prefix or name.startswith(self.prefix + "."))
        ]
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                self._undo.append((owner, attr, original, True))
                setattr(owner, attr, wrapper)
        # Aliases bound under another name (``import f as g``) are rare
        # in the program; scan for them so they are wrapped as well.
        for mod in owners[1:]:
            for alias, value in list(vars(mod).items()):
                if value is original and alias != attr:
                    self._undo.append((mod, alias, original, True))
                    setattr(mod, alias, wrapper)

    def patch_method(self, cls: type, attr: str, make: Callable) -> None:
        had_own = attr in cls.__dict__
        original = cls.__dict__[attr] if had_own else getattr(cls, attr)
        self._undo.append((cls, attr, original, had_own))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @property
    def active(self) -> int:
        return len(self._undo)


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: stored spans: [name, start_ns, end_ns, parent index or -1, op id]
        self.spans: List[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.totals: Dict[str, List[int]] = {}
        #: integer work counters filled by wrapper hooks
        self.counts: Dict[str, int] = {}
        #: id of the spec, crash point or request being served (-1: none)
        self.op_id = -1
        # frames: [name, start_ns, child_ns, stored index or -1]
        self._stack: List[list] = []

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str, hot: bool = False) -> list:
        stored = -1
        if not hot:
            parent = -1
            for frame in reversed(self._stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            stored = len(self.spans)
            self.spans.append([name, 0, 0, parent, self.op_id])
        frame = [name, 0, 0, stored]
        self._stack.append(frame)
        frame[1] = self.clock()
        if stored >= 0:
            self.spans[stored][1] = frame[1]
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        duration = end - frame[1]
        entry = self.totals.get(frame[0])
        if entry is None:
            entry = self.totals[frame[0]] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if frame[3] >= 0:
            self.spans[frame[3]][2] = end

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_ns(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[2] if entry else 0

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    # -- wrappers ----------------------------------------------------------------

    def wrapper(
        self,
        name: str,
        hot: bool = False,
        post: Optional[Callable] = None,
        op: Any = False,
    ) -> Callable:
        """A factory for :class:`Patcher`: ``make(original) -> wrapped``.

        ``post(tracer, args, kwargs, result)`` runs after the call
        returns or raises (``result`` is then ``None``).  ``op=True``
        starts a new operation id, shared by every span opened until the
        next one starts; a callable ``op`` returns the id from ``(args,
        kwargs)`` instead.  Hot spans take neither.
        """
        tracer = self
        if hot:
            if post is not None or op:
                raise ValueError("hot spans take no post hook and no op id")
            return self._hot_wrapper(name)

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if callable(op):
                    tracer.op_id = op(args, kwargs)
                elif op:
                    tracer.op_id += 1
                result = None
                frame = tracer.enter(name)
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    tracer.exit(frame)
                    if post is not None:
                        post(tracer, args, kwargs, result)

            return traced

        return make

    def _hot_wrapper(self, name: str) -> Callable:
        """:meth:`enter`/:meth:`exit` inlined for spans that fire per
        simulated event, where the wrapper's own cost is what tracing
        adds to the run."""
        stack = self._stack
        clock = self.clock
        totals = self.totals

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                frame = [name, clock(), 0, -1]
                stack.append(frame)
                try:
                    return original(*args, **kwargs)
                finally:
                    duration = clock() - frame[1]
                    stack.pop()
                    entry = totals.get(name)
                    if entry is None:
                        entry = totals[name] = [0, 0, 0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration

            return traced

        return make

    def to_json(self) -> Dict[str, Any]:
        return {
            "spans": self.spans,
            "totals": self.totals,
            "counts": self.counts,
        }

