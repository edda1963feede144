"""In-memory span tracer wrapped around the program's public functions.

The benchmark never edits the program: a traced run swaps module or
class attributes for timing wrappers (:meth:`Tracer.patch`) and puts
them back afterwards.  Each finished span is kept as
``(id, parent, name, start, end, request_id, thread)``; self time (a
span's duration minus the time its child spans cover) is accumulated
online per name, so the layer table needs no second pass.  Spans of one
thread nest strictly, which makes

    sum(self times) + residual == traced wall time

hold exactly once the residual is the thread-time no top-level span
covered.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Tracer:
    """Spans plus the hooks that produce them.

    *install(tracer)* patches the program; :meth:`start` runs it and
    enables recording, :meth:`stop` disables recording and restores every
    patched attribute, so untraced stretches run the program untouched.
    """

    def __init__(self, install: Optional[Callable] = None) -> None:
        self._install = install
        self.enabled = False
        self.spans: List[Tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.records: List[dict] = []  # structured outputs hooks collected
        self.top_s = 0.0  # summed duration of top-level spans
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- request ids ------------------------------------------------------
    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: Optional[str]) -> None:
        self._local.rid = rid

    # -- spans --------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> list:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        # [id, start, child time]
        frame = [sid, _clock(), 0.0]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list, name: str, end: Optional[float] = None) -> None:
        end = _clock() if end is None else end
        stack = self._stack()
        stack.pop()
        dur = end - frame[1]
        parent = stack[-1][0] if stack else 0
        with self._lock:
            self.self_s[name] += dur - frame[2]
            self.calls[name] += 1
            if stack:
                stack[-1][2] += dur
            else:
                self.top_s += dur
            self.spans.append(
                (frame[0], parent, name, frame[1], end, self.request_id,
                 threading.get_ident())
            )

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, name)

    def child(self, name: str, seconds: float) -> None:
        """A derived child span of the open span, from a reported duration.

        Used for work done in another process that the program reports
        back (a response's ``map_time``): it starts with the parent and
        is clipped to the time elapsed so far.
        """
        if not self.enabled or not self._stack():
            return
        parent = self._stack()[-1]
        start = parent[1]
        seconds = max(0.0, min(seconds, _clock() - start - parent[2]))
        frame = self._open()
        frame[1] = start
        self._close(frame, name, end=start + seconds)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """*fn* timed as span *name*; *observe(tracer, result)* sees each result."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame, name)
            if observe is not None:
                observe(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        observe: Optional[Callable] = None,
        adapt: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper (function or method).

        *adapt(fn)* may first wrap the original, e.g. to pass it an extra
        keyword argument whose output the run reads.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind else raw
        if adapt is not None:
            fn = adapt(fn)
        new = self.wrap(name, fn, observe)
        if kind:
            new = kind(new)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch_items(self, registry: dict, label) -> None:
        """Wrap every function of a name -> function registry.

        *label* is the span name, or a function of the registry key.
        """
        for key in list(registry):
            fn = registry[key]
            self._patches.append((registry, key, fn))
            registry[key] = self.wrap(label(key) if callable(label) else label, fn)

    def unpatch(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def start(self) -> None:
        if self._install is not None and not self._patches:
            self._install(self)
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        self.unpatch()

    # -- reporting --------------------------------------------------------
    def take(self) -> dict:
        """Hand over and clear the aggregates (spans are kept for the file)."""
        with self._lock:
            out = {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "records": list(self.records),
                "top_s": self.top_s,
            }
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()
            self.records.clear()
            self.top_s = 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(
                "# id parent name start_s end_s request_id thread\n"
            )
            for sid, parent, name, start, end, rid, tid in self.spans:
                fh.write(
                    json.dumps([sid, parent, name, round(start, 7), round(end, 7), rid, tid])
                    + "\n"
                )


def layer_table(agg: dict, wall_s: float) -> dict:
    """Self time per span name plus the residual, summing to *wall_s*.

    *agg* is a :meth:`Tracer.take` result; *wall_s* the thread-time the
    traced stretch lasted (wall time times load threads).
    """
    self_s, calls = agg["self_s"], agg["calls"]
    rows = {
        name: {"self_s": self_s[name], "calls": calls[name]}
        for name in sorted(self_s, key=lambda n: -self_s[n])
    }
    residual = wall_s - agg["top_s"]
    return {
        "wall_s": wall_s,
        "layers": rows,
        "residual_s": residual,
        "sum_s": sum(r["self_s"] for r in rows.values()) + residual,
    }


def format_table(table: dict) -> str:
    wall = table["wall_s"] or 1.0
    lines = [f"{'layer':34s} {'self_s':>10s} {'share':>7s} {'calls':>9s}"]
    for name, row in table["layers"].items():
        lines.append(
            f"{name:34s} {row['self_s']:10.4f} {row['self_s'] / wall:7.2%} {row['calls']:9d}"
        )
    lines.append(
        f"{'(residual)':34s} {table['residual_s']:10.4f} {table['residual_s'] / wall:7.2%}"
    )
    lines.append(f"{'= traced wall time':34s} {table['sum_s']:10.4f} (measured {table['wall_s']:.4f})")
    return "\n".join(lines)
