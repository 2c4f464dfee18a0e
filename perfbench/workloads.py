"""The three workloads: their inputs, traffic and read checks.

:mod:`measure` runs a workload: it sets the store up (untimed), starts
the server several times to time set-up, drives the last server with the
workload's traffic for the measured window, then checks what it served:

- every ingest reply carries one disposition per event and accounts for
  every event, and every re-sent batch comes back as all duplicates;
- every verdict read that started after the trace's last write was
  acknowledged equals the trace's rows of a cold sweep;
- the full served table, after one explicit sync, is byte-identical to a
  cold :class:`~repro.controls.evaluator.ComplianceEvaluator` sweep of the
  same shard files after a graceful shutdown.

A failed check marks the pass incorrect; it is never a slow sample.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

import traffic
from drive import BenchError, Server
from repro.controls.evaluator import ComplianceEvaluator
from repro.processes import hiring, procurement
from repro.service import TransportError
from repro.store.backends import ShardedBackend, SQLiteBackend
from repro.store.backends.sharded import sqlite_shard_path
from repro.store.store import ProvenanceStore

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Loop:
    """Client-observed round trips of one operation kind."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.response_bytes = 0
        #: (start, end) perf_counter seconds of each completed call
        self.intervals: List[Tuple[float, float]] = []
        self.first_start = None
        self.last_end = None

    def call(self, operation: Callable):
        """Time *operation*; ``None`` when it failed on the wire."""
        self.attempted += 1
        counter = ResponseBytes.start()
        start = time.perf_counter()
        try:
            result = operation()
        except TransportError:
            self.failed += 1
            return None
        end = time.perf_counter()
        self.response_bytes += counter.stop()
        self.samples.append(end - start)
        self.intervals.append((start, end))
        if self.first_start is None:
            self.first_start = start
        self.last_end = end
        return result

    def merge(self, other: "Loop") -> None:
        self.samples.extend(other.samples)
        self.intervals.extend(other.intervals)
        self.attempted += other.attempted
        self.failed += other.failed
        self.response_bytes += other.response_bytes
        for attr, pick in (("first_start", min), ("last_end", max)):
            values = [v for v in (getattr(self, attr), getattr(other, attr))
                      if v is not None]
            setattr(self, attr, pick(values) if values else None)

    def rate(self, count: Optional[int] = None) -> float:
        """*count* (default: completed calls) per second of the loop."""
        if self.first_start is None or self.last_end <= self.first_start:
            return 0.0
        done = len(self.samples) if count is None else count
        return done / (self.last_end - self.first_start)


class ResponseBytes:
    """Counts response body bytes read on this thread (the wire size)."""

    _local = threading.local()
    _original = None

    @classmethod
    def install(cls) -> None:
        if cls._original is not None:
            return
        original = http.client.HTTPResponse.read
        cls._original = original

        def read(self, *args, **kwargs):
            data = original(self, *args, **kwargs)
            cls._local.count = getattr(cls._local, "count", 0) + len(data)
            return data

        http.client.HTTPResponse.read = read

    @classmethod
    def uninstall(cls) -> None:
        if cls._original is not None:
            http.client.HTTPResponse.read = cls._original
            cls._original = None

    @classmethod
    def start(cls) -> "ResponseBytes":
        counter = cls()
        counter.before = getattr(cls._local, "count", 0)
        return counter

    def stop(self) -> int:
        return getattr(self._local, "count", 0) - self.before


def percentile(samples: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` with fewer than ten samples
    beyond it (the highest percentile a sample count supports)."""
    n = len(samples)
    if n == 0 or n * (1.0 - q) < 10:
        return None
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * n)) - 1]


def cold_sweep(workload_module, paths: List[str]) -> List[Dict]:
    """A cold evaluator sweep over the given SQLite shard files."""
    if len(paths) == 1:
        backend = SQLiteBackend(paths[0])
    else:
        backend = ShardedBackend(
            [SQLiteBackend(path) for path in paths]
        )
    store = ProvenanceStore(
        model=workload_module.workload().build_model(), backend=backend
    )
    try:
        sim = workload_module.workload().attach(store)
        oracle = ComplianceEvaluator(store, sim.xom, sim.vocabulary)
        return [result.to_payload() for result in oracle.run(sim.controls)]
    finally:
        store.close()


def _split_by_trace(events, connections: int) -> List[List]:
    """Whole traces round-robin over *connections*, order kept."""
    owner: Dict[str, int] = {}
    streams: List[List] = [[] for __ in range(connections)]
    for event in events:
        slot = owner.setdefault(event.app_id, len(owner) % connections)
        streams[slot].append(event)
    return streams


def _run_threads(targets) -> None:
    """Run each callable in its own thread; raise if any of them failed."""
    errors: List[str] = []

    def guard(target):
        try:
            target()
        except Exception as exc:  # noqa: BLE001 - reported below, loudly
            errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=guard, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchError("; ".join(errors))


class Workload:
    """One named traffic mix.  Subclasses fill in the hooks below."""

    name = ""
    module = hiring
    shards = 4
    setups = 5
    #: the loop behind the op_* metrics
    primary = "read"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.problems: List[str] = []
        #: events acknowledged on first send / recorded as new rows
        self.events_sent = 0
        self.events_recorded = 0
        self.loops: Dict[str, Loop] = {}
        #: server peak RSS taken mid-window (ingest); None: at the end
        self.peak_rss_mb: Optional[float] = None
        self._count_lock = threading.Lock()

    def recorded(self, sent: int, recorded: int) -> None:
        """Count events first sent and recorded (connections are threads)."""
        with self._count_lock:
            self.events_sent += sent
            self.events_recorded += recorded

    # -- hooks ---------------------------------------------------------------

    def prepare(self, pristine: str, log_dir: str) -> None:
        """Build inputs and the untimed starting store in *pristine*."""

    def warm(self, server: Server) -> None:
        """Untimed requests after set-up, before the window opens."""

    def drive(self, server: Server, deadline: float) -> None:
        """The measured traffic."""
        raise NotImplementedError

    def check_reads(self, cold: List[Dict]) -> None:
        """Compare reads made during the window with the cold sweep."""

    # -- shared --------------------------------------------------------------

    def db_path(self, directory: str) -> str:
        return os.path.join(directory, "store.db")

    def shard_files(self, directory: str) -> List[str]:
        db = self.db_path(directory)
        if self.shards == 1:
            return [db]
        return [sqlite_shard_path(db, i) for i in range(self.shards)]

    def serve_args(self, directory: str) -> List[str]:
        return [
            "serve", self.module.__name__.rsplit(".", 1)[1],
            "--backend", "sqlite", "--db", self.db_path(directory),
            "--shards", str(self.shards),
        ]

    def ingest_checked(self, loop: Loop, transport, batch, resend: bool):
        """Send *batch* (and its re-send); check every disposition.

        A first send may already hold duplicates (two events that map to
        the same artifact record); a re-send must come back with every
        event the first send accepted reported as a duplicate.
        """
        reply = loop.call(lambda: transport.ingest(batch))
        if reply is None:
            return None
        dropped = reply.dropped_irrelevant + reply.dropped_unmapped
        if len(reply.dispositions) != len(batch) or (
            reply.recorded + reply.duplicates + dropped != len(batch)
        ):
            self.problems.append(
                f"ingest reply accounted for {len(reply.dispositions)} "
                f"dispositions / {reply.recorded + reply.duplicates + dropped}"
                f" events of a {len(batch)}-event batch"
            )
        self.recorded(len(batch), reply.recorded)
        if resend:
            again = loop.call(lambda: transport.ingest(batch))
            if again is not None and (
                len(again.dispositions) != len(batch)
                or again.recorded
                or again.duplicates != len(batch) - dropped
            ):
                self.problems.append(
                    f"re-sent batch came back with {again.duplicates} "
                    f"duplicates and {again.recorded} recorded of "
                    f"{len(batch)} events"
                )
        return reply


class IngestWorkload(Workload):
    name = "ingest"
    primary = "ingest"
    shards = 4
    setups = 5
    connections = 2
    batch = 10
    #: simulated cases per measured second: several times what the server
    #: can ingest, so the stream never runs dry inside the window.
    cases_per_second = 400
    #: the server's memory grows with the rows it holds, so peak RSS is
    #: read once this many events are in, not at the end of the window,
    #: where a faster server would hold more rows and read as a regression.
    rss_after_events = 6000

    def prepare(self, pristine: str, log_dir: str) -> None:
        cases = max(600, int(self.cases_per_second * self.seconds))
        self.traffic = traffic.ingest_traffic(
            self.seed, cases, connections=self.connections, batch=self.batch
        )

    def drive(self, server: Server, deadline: float) -> None:
        loops = [Loop() for __ in range(self.connections)]

        def connection(index: int) -> Callable:
            def run() -> None:
                transport = server.transport()
                try:
                    stream = self.traffic.streams[index]
                    resend = self.traffic.resend[index]
                    for batch, again in zip(stream, resend):
                        if time.perf_counter() >= deadline:
                            return
                        self.ingest_checked(
                            loops[index], transport, batch, again
                        )
                        if (self.peak_rss_mb is None
                                and self.events_sent >= self.rss_after_events):
                            self.peak_rss_mb = server.peak_rss_mb()
                    raise BenchError("ingest stream ran out inside the window")
                finally:
                    transport.close()
            return run

        _run_threads([connection(i) for i in range(self.connections)])
        total = Loop()
        for loop in loops:
            total.merge(loop)
        self.loops["ingest"] = total


class AuditWorkload(Workload):
    name = "audit"
    shards = 4
    setups = 3
    cases = 1000
    #: reads between two late batches (1 write per 10 reads), and the
    #: writer's think time: at least this long between the acknowledgement
    #: of one batch and the sending of the next.  Today ten reads take
    #: longer than that, since the first read after a write re-sweeps; the
    #: think time only caps the writes of a much faster server below the
    #: ~170 late batches the traffic holds.
    reads_per_write = 10
    think_s = 0.1
    #: events per late batch: whole tails of 1-3 events, so ~5 traces
    late_batch = 10

    def prepare(self, pristine: str, log_dir: str) -> None:
        self.traffic = traffic.audit_traffic(
            self.seed, self.cases, batch=self.late_batch
        )
        # Preload through the code under test: a server on an empty store
        # ingests every event not held back, then shuts down gracefully,
        # so the measured start-ups restore its snapshot.
        os.makedirs(pristine, exist_ok=True)
        server = Server(
            self.serve_args(pristine), os.path.join(log_dir, "preload.log")
        )
        try:
            streams = _split_by_trace(self.traffic.preload, 2)

            def connection(stream) -> Callable:
                def run() -> None:
                    transport = server.transport()
                    try:
                        for batch in traffic.batches_of(stream, 50):
                            reply = transport.ingest(batch)
                            if len(reply.dispositions) != len(batch):
                                raise BenchError("preload batch not accepted")
                            self.recorded(len(batch), reply.recorded)
                    finally:
                        transport.close()
                return run

            _run_threads([connection(stream) for stream in streams])
            server.shutdown()
        finally:
            server.close()

    def warm(self, server: Server) -> None:
        # A restarted server's read cache is empty; fill it untimed.
        transport = server.transport()
        try:
            transport.verdicts(trace=self.traffic.traces[0])
        finally:
            transport.close()

    def drive(self, server: Server, deadline: float) -> None:
        """Reads and late writes, one at a time, over two connections.

        One thread owns both connections, so no read is in flight while
        a write is: each write's re-sweep is paid by the read that
        follows its acknowledgement, never by a read racing its lane
        commits.  That read is a fresh one, since the reader takes the
        traces an acknowledged write touched before any random trace.
        """
        reads, writes = Loop(), Loop()
        #: the subset of *reads* that were a trace's first read after an
        #: acknowledged write touched it
        fresh = Loop()
        rng = random.Random(self.seed * 7919 + 1)
        traces = self.traffic.traces
        held = self.traffic.held
        late = iter(self.traffic.late_batches)
        #: traces touched by an acknowledged write and not read since
        pending: "deque[str]" = deque()
        acked: set = set()
        #: trace -> distinct verdict payloads from checkable reads
        self.seen: Dict[str, set] = {}
        reader, writer = server.transport(), server.transport()
        try:
            # The window opens with a write, so every read belongs to one
            # write-then-reads cycle.
            since_write, write_done = self.reads_per_write, -math.inf
            while time.perf_counter() < deadline:
                if since_write >= self.reads_per_write:
                    wait = write_done + self.think_s - time.perf_counter()
                    if wait > 0:
                        time.sleep(max(0.0, min(
                            wait, deadline - time.perf_counter()
                        )))
                        continue
                    batch = next(late, None)
                    if batch is None:
                        raise BenchError(
                            "late batches ran out inside the window"
                        )
                    reply = self.ingest_checked(writes, writer, batch, False)
                    since_write, write_done = 0, time.perf_counter()
                    if reply is not None:
                        for event in batch:
                            if event.app_id not in acked:
                                acked.add(event.app_id)
                                pending.append(event.app_id)
                    continue
                is_fresh = bool(pending)
                if is_fresh:
                    trace = pending.popleft()
                else:
                    trace = traces[rng.randrange(len(traces))]
                checkable = trace not in held or trace in acked
                since_write += 1
                payload = reads.call(lambda: reader.verdicts(trace=trace))
                if payload is None:
                    continue
                if is_fresh:
                    fresh.samples.append(reads.samples[-1])
                    fresh.intervals.append(reads.intervals[-1])
                if any(entry["trace"] != trace for entry in payload):
                    self.problems.append(f"read of {trace} leaked rows")
                if checkable:
                    self.seen.setdefault(trace, set()).add(
                        json.dumps(payload)
                    )
        finally:
            reader.close()
            writer.close()
        self.loops.update(read=reads, fresh_read=fresh, write=writes)

    def check_reads(self, cold: List[Dict]) -> None:
        expected: Dict[str, List[Dict]] = {}
        for entry in cold:
            expected.setdefault(entry["trace"], []).append(entry)
        for trace, payloads in self.seen.items():
            want = json.dumps(expected.get(trace, []))
            if payloads != {want}:
                self.problems.append(
                    f"a read of {trace} after its last write differs from "
                    f"the cold sweep"
                )
                return


class BackfillWorkload(Workload):
    name = "backfill"
    module = procurement
    shards = 1
    setups = 3
    cases = 5000

    def prepare(self, pristine: str, log_dir: str) -> None:
        # The `simulate --db` path: the CLI writes the store directly.
        os.makedirs(pristine, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_ROOT, "src")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "simulate", "procurement",
                "--cases", str(self.cases), "--seed", str(self.seed),
                "--violation-rate", str(traffic.VIOLATION_RATE),
                "--backend", "sqlite", "--db", self.db_path(pristine),
            ],
            env=env, capture_output=True, text=True, timeout=170,
        )
        if completed.returncode != 0:
            raise BenchError(f"preload failed: {completed.stderr[-500:]}")
        first = completed.stdout.splitlines()[0]
        # "workload 'purchase-to-pay': N cases, E events captured, ..."
        self.events_recorded = int(first.split(", ")[1].split()[0])

    def warm(self, server: Server) -> None:
        transport = server.transport()
        try:
            self.expected_all = transport.verdicts()
            self.controls = transport.stats()["controls"]
        finally:
            transport.close()
        self.expected = {
            control: [
                entry for entry in self.expected_all
                if entry["control"] == control
                and entry["status"] == "violated"
            ]
            for control in self.controls
        }

    def drive(self, server: Server, deadline: float) -> None:
        reads = Loop()
        transport = server.transport()
        try:
            while time.perf_counter() < deadline:
                for control in self.controls:
                    payload = reads.call(
                        lambda: transport.verdicts(
                            control=control, status="violated"
                        )
                    )
                    if payload is not None and payload != self.expected[control]:
                        self.problems.append(
                            f"violations of {control} changed mid-run"
                        )
                payload = reads.call(lambda: transport.verdicts())
                if payload is not None and payload != self.expected_all:
                    self.problems.append("the full table changed mid-run")
        finally:
            transport.close()
        self.loops["read"] = reads

    def check_reads(self, cold: List[Dict]) -> None:
        if json.dumps(self.expected_all) != json.dumps(cold):
            self.problems.append(
                "the first served table differs from the cold sweep"
            )


WORKLOADS = {
    cls.name: cls
    for cls in (IngestWorkload, AuditWorkload, BackfillWorkload)
}
