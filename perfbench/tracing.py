"""In-memory spans around the public functions of each layer.

A traced benchmark server installs a :class:`Tracer` before it opens the
runtime.  Every wrapper only calls through: it records when the call
started and ended, which span was open on the same thread when it began
(the parent link), and optionally a number taken from the result (rows
returned, relations created).  Very hot functions (row decodes, the
``contains`` probe) get counting wrappers instead, attributed to the
outermost span open on their thread.  Nothing is written until
:meth:`Tracer.dump`, after the server has stopped.

:class:`Summary` turns a dump into per-name numbers over a time window:
calls, busy time (outermost spans of a name only, so recursion is not
double counted) and self time (a span minus its child spans).
"""

from __future__ import annotations

import bisect
import functools
import json
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: one span is six int64 slots: name id, start ns, end ns, parent index
#: (-1 for a root span), thread-local index of its root span, value.
_WIDTH = 6


class Tracer:
    """Span and counter store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: per thread: (span array, {(counter id, root index): amount})
        self._threads: List[Tuple[array, Dict[Tuple[int, int], int]]] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans: array = array("q")
            counts: Dict[Tuple[int, int], int] = {}
            state = (spans, [], counts)
            self._local.state = state
            with self._lock:
                self._threads.append((spans, counts))
        return state

    def add(self, counter_id: int, amount: int = 1) -> None:
        """Add *amount* to a counter, attributed to this thread's root span."""
        spans, stack, counts = self._state()
        key = (counter_id, stack[0] if stack else -1)
        counts[key] = counts.get(key, 0) + amount

    def span(
        self,
        name: str,
        fn: Callable,
        value: Optional[Callable] = None,
    ) -> Callable:
        """Wrap *fn* in a span; ``value(args, result)`` fills its number."""
        name_id = self.name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, __ = self._state()
            index = len(spans) // _WIDTH
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            spans.extend((name_id, 0, 0, parent, root, 0))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                base = index * _WIDTH
                spans[base + 1] = start
                spans[base + 2] = end
            if value is not None:
                spans[index * _WIDTH + 5] = int(value(args, result))
            return result

        return traced

    def counter(
        self,
        name: str,
        fn: Callable,
        amount: Optional[Callable] = None,
    ) -> Callable:
        """Wrap *fn* so each call adds 1 (or ``amount(args, result)``)."""
        counter_id = self.name_id(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(
                counter_id, 1 if amount is None else int(amount(args, result))
            )
            return result

        return counted

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        with self._lock:
            threads = [(list(spans), dict(counts))
                       for spans, counts in self._threads]
        payload = {
            "names": self.names,
            "width": _WIDTH,
            "threads": [
                {
                    "spans": spans,
                    "counts": [[c, r, n] for (c, r), n in counts.items()],
                }
                for spans, counts in threads
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _len(args, result) -> int:
    return len(result) if result is not None else 0


def _grouped_rows(args, result) -> int:
    return sum(len(rows) for rows in result.values()) if result else 0


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer's metrics are measured at.

    Runs in the server process before the runtime is constructed, so the
    runtime, its lanes, stores and codecs all call the wrapped versions.
    """
    from repro.brms.engine import RuleEngine
    from repro.capture.correlation import CorrelationAnalytics
    from repro.capture.recorder import RecorderClient
    from repro.controls import evaluator as evaluator_module
    from repro.controls.evaluator import ComplianceEvaluator
    from repro.controls.materializer import VerdictMaterializer
    from repro.service.lanes import IngestLane
    from repro.service.runtime import ComplianceRuntime
    from repro.store.backends.sqlite import SQLiteBackend
    from repro.store.columnar import ColumnarCodec
    from repro.store.store import ProvenanceStore
    from repro.store.xmlcodec import XmlCodec

    def span(owner, attribute, name, value=None):
        setattr(owner, attribute,
                tracer.span(name, getattr(owner, attribute), value))

    def count(owner, attribute, name):
        setattr(owner, attribute,
                tracer.counter(name, getattr(owner, attribute)))

    span(ComplianceRuntime, "ingest", "service.runtime.ingest")
    span(ComplianceRuntime, "verdicts", "service.runtime.verdicts")
    span(ComplianceRuntime, "sync", "service.runtime.sync")
    span(IngestLane, "ingest", "service.lanes.ingest")

    span(RecorderClient, "process_all", "capture.recorder.process_all")
    considered = tracer.name_id("capture.correlation.pairs_considered")
    naive = tracer.name_id("capture.correlation.pairs_naive")

    def relations(args, result) -> int:
        stats = args[0].stats
        if stats is not None:
            tracer.add(considered, stats.pairs_considered)
            tracer.add(naive, stats.pairs_naive)
        return len(result)

    span(CorrelationAnalytics, "run", "capture.correlation.run", relations)

    span(ProvenanceStore, "append", "store.append")
    span(ProvenanceStore, "select", "store.select", _len)
    span(ProvenanceStore, "sync", "store.sync", lambda args, result: result)
    span(ProvenanceStore, "records_by_trace_projected",
         "store.records_by_trace_projected", _grouped_rows)
    span(XmlCodec, "encode_row", "store.xml_encode")
    span(ColumnarCodec, "encode_cols", "store.columnar_encode")
    span(SQLiteBackend, "flush", "store.sqlite.flush")
    span(SQLiteBackend, "query_records", "store.sqlite.query_records", _len)
    count(SQLiteBackend, "contains", "store.sqlite.contains")
    count(ColumnarCodec, "decode_cols", "store.rows_decoded")
    count(XmlCodec, "decode_row", "store.rows_decoded")

    span(VerdictMaterializer, "refresh", "controls.materializer.refresh")
    span(VerdictMaterializer, "sweep", "controls.materializer.sweep")
    span(VerdictMaterializer, "restore", "controls.materializer.restore")
    span(ComplianceEvaluator, "prime_frames",
         "controls.evaluator.prime_frames")
    count(evaluator_module, "graph_from_records",
          "controls.evaluator.graph_builds")
    count(evaluator_module, "build_trace_graph",
          "controls.evaluator.graph_builds")

    span(RuleEngine, "evaluate", "brms.engine.evaluate")

    # Every (control, trace) evaluation ends in one verdict transition;
    # a listener subscribed before the start-up sweep counts them all.
    transitions = tracer.name_id("controls.materializer.transitions")
    changed = tracer.name_id("controls.materializer.changed")

    def on_transition(transition) -> None:
        tracer.add(transitions)
        if transition.changed:
            tracer.add(changed)

    traced_open = tracer.span("service.runtime.open", ComplianceRuntime.open)

    @functools.wraps(ComplianceRuntime.open)
    def open_with_listener(self, *args, **kwargs):
        self.materializer.subscribe(on_transition)
        return traced_open(self, *args, **kwargs)

    ComplianceRuntime.open = open_with_listener


class Summary:
    """Per-name aggregates of a dump, restricted to a time window."""

    def __init__(self, payload: Dict, start_ns: int, end_ns: int) -> None:
        width = payload["width"]
        names = payload["names"]
        self.calls: Dict[str, int] = {}
        self.busy_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.values: Dict[str, int] = {}
        #: (counter, root span name) -> amount, for roots in the window
        self.counts: Dict[Tuple[str, str], int] = {}
        #: (child name, parent name) -> summed child value
        self.child_values: Dict[Tuple[str, str], int] = {}
        for thread in payload["threads"]:
            spans = thread["spans"]
            total = len(spans) // width
            child_ns = [0] * total
            for index in range(total):
                parent = spans[index * width + 3]
                if parent >= 0:
                    base = index * width
                    child_ns[parent] += spans[base + 2] - spans[base + 1]
            for index in range(total):
                base = index * width
                name_id, start, end, parent, __, value = (
                    spans[base:base + width]
                )
                name = names[name_id]
                duration = end - start
                if not start_ns <= start < end_ns:
                    continue
                self.calls[name] = self.calls.get(name, 0) + 1
                self.values[name] = self.values.get(name, 0) + value
                self.self_ns[name] = (
                    self.self_ns.get(name, 0) + duration - child_ns[index]
                )
                if self._outermost(spans, width, index):
                    self.busy_ns[name] = self.busy_ns.get(name, 0) + duration
                if parent >= 0:
                    key = (name, names[spans[parent * width]])
                    self.child_values[key] = (
                        self.child_values.get(key, 0) + value
                    )
            for counter_id, root, amount in thread["counts"]:
                if root >= 0:
                    root_start = spans[root * width + 1]
                    if not start_ns <= root_start < end_ns:
                        continue
                    root_name = names[spans[root * width]]
                else:
                    root_name = ""
                key = (names[counter_id], root_name)
                self.counts[key] = self.counts.get(key, 0) + amount

    @staticmethod
    def _outermost(spans, width, index) -> bool:
        name_id = spans[index * width]
        parent = spans[index * width + 3]
        while parent >= 0:
            if spans[parent * width] == name_id:
                return False
            parent = spans[parent * width + 3]
        return True

    def count(self, counter: str, root: Optional[str] = None) -> int:
        """A counter's total, optionally only under root spans *root*."""
        return sum(
            amount
            for (name, root_name), amount in self.counts.items()
            if name == counter and (root is None or root_name == root)
        )

    def busy_ms(self, name: str) -> float:
        return self.busy_ns.get(name, 0) / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6


def under_roots(
    payload: Dict, root: str, intervals: Sequence[Tuple[int, int]]
) -> Dict[str, int]:
    """Calls per span name and totals per counter, counted only under
    root spans named *root* that start inside one of *intervals*
    (disjoint ``(start_ns, end_ns)`` pairs, such as the client-side
    round trips of one kind of request)."""
    width = payload["width"]
    names = payload["names"]
    bounds = sorted(intervals)
    starts = [start for start, __ in bounds]

    def inside(moment: int) -> bool:
        at = bisect.bisect_right(starts, moment) - 1
        return at >= 0 and moment < bounds[at][1]

    totals: Dict[str, int] = {}
    for thread in payload["threads"]:
        spans = thread["spans"]
        roots = {
            index
            for index in range(len(spans) // width)
            if spans[index * width + 3] < 0
            and names[spans[index * width]] == root
            and inside(spans[index * width + 1])
        }
        if not roots:
            continue
        for index in range(len(spans) // width):
            if spans[index * width + 4] in roots:
                name = names[spans[index * width]]
                totals[name] = totals.get(name, 0) + 1
        for counter_id, root_index, amount in thread["counts"]:
            if root_index in roots:
                name = names[counter_id]
                totals[name] = totals.get(name, 0) + amount
    return totals
