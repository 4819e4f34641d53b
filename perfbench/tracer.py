"""Span tracer that instruments specshift from outside the program.

Each traced callable is wrapped by rebinding it wherever the package holds a
reference to it: module attributes (including names re-bound by
``from .x import f`` and ``import ... as alias``), values of module-level
dicts such as the CLI's command table, and methods on classes.  Nothing in
``src/`` is edited; ``uninstall`` puts every original back.

A span records (name, start, end, parent, workload).  Spans stay in memory
and are summarised or written out when the run ends.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    tag: str | None = None


class Tracer:
    """Collects spans and work counts for the wrapped callables."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counters=None, tag=None):
        """Return a wrapper that records one span per call of ``fn``.

        counters: {count_name: f(bound_arguments, result) -> int}, added to
        ``counts["<name>.<count_name>"]``.  tag: f(bound_arguments) -> str
        giving a sub-name; the span is then also summarised under
        ``<name>.<tag>``.
        """
        sig = inspect.signature(fn) if (counters or tag) else None

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.workload)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
                if tag is not None:
                    span.tag = tag(arguments)
                for key, count in (counters or {}).items():
                    full = f"{name}.{key}"
                    self.counts[full] = self.counts.get(full, 0) + int(count(arguments, result))
            return result

        return functools.wraps(fn)(traced)

    # -- patching ----------------------------------------------------------

    def _set(self, container, key, value, is_dict: bool) -> None:
        if is_dict:
            self._patches.append((container, key, container[key], True))
            container[key] = value
        else:
            self._patches.append((container, key, container.__dict__[key], False))
            setattr(container, key, value)

    def install_function(self, name: str, original, **kw) -> int:
        """Rebind every reference to ``original`` inside specshift; returns how many."""
        wrapper = self.wrap(name, original, **kw)
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "specshift" or mod_name.startswith("specshift.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper, False)
                    hits += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper, True)
                            hits += 1
        if not hits:
            raise LookupError(f"{name}: no reference to patch")
        return hits

    def install_attribute(self, name: str, container, attr: str, **kw) -> None:
        """Wrap only what ``container.attr`` holds: a method on a class (which
        subclasses then inherit) or one module-level name."""
        self._set(container, attr, self.wrap(name, container.__dict__[attr], **kw), False)

    def uninstall(self) -> None:
        while self._patches:
            container, key, original, is_dict = self._patches.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the union of its children's intervals."""
        children: list[list[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(index)
        out = []
        for index, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for lo, hi in sorted((self.spans[c].start, self.spans[c].end) for c in children[index]):
                lo, hi = max(lo, cursor, span.start), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((span.end - span.start) - covered)
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls": n, "self_s": seconds, "total_s": seconds}}."""
        totals: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self.self_times()):
            keys = [span.name] if span.tag is None else [span.name, f"{span.name}.{span.tag}"]
            for key in keys:
                row = totals.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["calls"] += 1
                row["self_s"] += self_s
                row["total_s"] += span.end - span.start
        return totals

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "tag": s.tag, "start": s.start, "end": s.end, "parent": s.parent,
             "workload": s.workload}
            for s in self.spans
        ]
