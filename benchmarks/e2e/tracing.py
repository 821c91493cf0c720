"""Span recorder and attribute wrappers for the benchmark's traced pass.

The traced pass measures each layer from outside the program: it
replaces public functions and methods with timing wrappers, patched on
the object where the program looks the name up (a module global such as
``repro.core.pipeline.calibrate_rtt`` or a class attribute such as
``Engine.run``), and restores every original object afterwards. Nothing
under ``src/`` knows it is being traced.

Spans nest on one stack. A layer's self time is its span's duration
minus the time its child spans cover. Fine-grained calls (one per probe
exchange or alert) are only aggregated; coarse spans (trials, phases,
episodes, flushes) are also kept as individual events and written once,
as Chrome trace-event JSON that Perfetto loads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    """One name to wrap.

    Attributes:
        module: module the name is looked up in, e.g. ``repro.sim.engine``.
        attr: attribute path inside the module, e.g. ``Engine.run``.
        span: the span (layer) name the wrapper records under.
        keep: keep every call as an individual trace event (coarse
            spans only; per-exchange calls would not fit in memory).
        units: work units one call performed, from its arguments and
            result; the default counts one unit per call.
    """

    module: str
    attr: str
    span: str
    keep: bool = False
    units: Optional[Callable[[tuple, Any], int]] = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


class SpanRecorder:
    """In-memory span tree: per-name aggregates plus coarse events."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        #: name -> [calls, units, total_s, self_s]
        self.totals: Dict[str, List[float]] = {}
        self.events: List[Dict[str, Any]] = []
        self.trial: Optional[str] = None
        self._stack: List[list] = []
        self._open: set = set()
        self._ids = itertools.count(1)

    def enter(self, name: str, keep: bool) -> Optional[list]:
        """Open a span; a re-entrant span of an open name is transparent."""
        if name in self._open:
            return None
        self._open.add(name)
        frame = [name, time.perf_counter(), 0.0, next(self._ids) if keep else None]
        self._stack.append(frame)
        return frame

    def exit(self, frame: Optional[list], units: int = 1) -> None:
        """Close ``frame``: fold it into its name's totals and its parent."""
        if frame is None:
            return
        end = time.perf_counter()
        if self._stack and self._stack[-1] is frame:
            self._stack.pop()
        else:
            self._stack.remove(frame)
        name, start, child_s, span_id = frame
        self._open.discard(name)
        duration = end - start
        total = self.totals.setdefault(name, [0, 0, 0.0, 0.0])
        total[0] += 1
        total[1] += units
        total[2] += duration
        total[3] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent = next(
                (f[3] for f in reversed(self._stack) if f[3] is not None), None
            )
            self.events.append(
                {
                    "name": name,
                    "id": span_id,
                    "parent": parent,
                    "trial": self.trial,
                    "start_s": start - self.t0,
                    "end_s": end - self.t0,
                }
            )

    @contextmanager
    def span(self, name: str, keep: bool = True) -> Iterator[None]:
        """A harness-side span around a block."""
        frame = self.enter(name, keep)
        try:
            yield
        finally:
            self.exit(frame)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def units(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0))[1])

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0.0))[2]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0.0, 0.0))[3]

    def chrome_trace(self) -> Dict[str, Any]:
        """The kept spans as Chrome trace-event JSON (complete events)."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": event["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": event["start_s"] * 1e6,
                    "dur": (event["end_s"] - event["start_s"]) * 1e6,
                    "args": {
                        "id": event["id"],
                        "parent": event["parent"],
                        "trial": event["trial"],
                    },
                }
                for event in self.events
            ],
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


_MISSING = object()


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute name, own attribute)`` or raise LookupError.

    The own attribute is what the owner's ``__dict__`` holds, so that
    restoring it puts back exactly that; an inherited attribute (a
    detector subclass's ``evaluate``) resolves to ``_MISSING`` there, and
    restoring deletes the wrapper again.
    """
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError as exc:
        raise LookupError(target.qualname) from exc
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, _MISSING)
        if owner is _MISSING:
            raise LookupError(target.qualname)
    if not hasattr(owner, name):
        raise LookupError(target.qualname)
    return owner, name, vars(owner).get(name, _MISSING)


def _wrap(function: Callable, target: Target, recorder: SpanRecorder) -> Callable:
    count = target.units

    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            frame = recorder.enter(target.span, target.keep)
            result = None
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                recorder.exit(frame, count(args, result) if count else 1)

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(target.span, target.keep)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            recorder.exit(frame, count(args, result) if count else 1)

    return wrapper


class Patches:
    """Installed wrappers; :meth:`restore` puts every original back."""

    def __init__(self) -> None:
        self.installed: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []

    def restore(self) -> None:
        for owner, name, raw in reversed(self.installed):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self.installed = []


def install(targets: List[Target], recorder: SpanRecorder) -> Patches:
    """Wrap every resolvable target; unresolvable ones are listed missing."""
    patches = Patches()
    try:
        for target in targets:
            try:
                owner, name, raw = resolve(target)
            except LookupError:
                patches.missing.append(target.qualname)
                continue
            setattr(owner, name, _wrap(getattr(owner, name), target, recorder))
            patches.installed.append((owner, name, raw))
    except BaseException:
        patches.restore()
        raise
    return patches


@contextmanager
def traced(targets: List[Target], recorder: SpanRecorder) -> Iterator[Patches]:
    """Wrappers installed for the block, originals restored on exit."""
    patches = install(targets, recorder)
    try:
        yield patches
    finally:
        patches.restore()
