"""Tests for the ComplianceRuntime service core and runtime transports.

The contract under test: a runtime's served verdicts are byte-identical
to a cold sweep of the same store at the same instant, under ingestion,
concurrent readers, out-of-band writers, and shutdown/restart cycles.
"""

import json
import threading
from collections import Counter

import pytest

from repro.capture.recorder import RecorderClient
from repro.controls.evaluator import ComplianceEvaluator
from repro.errors import CaptureError, MappingError, ServiceError
from repro.faults import FaultPlan, SimulatedCrash, active_plan
from repro.processes import hiring
from repro.processes.engine import ProcessSimulator, all_events
from repro.processes.violations import ViolationPlan
from repro.service import ComplianceRuntime, InProcessTransport
from repro.model.records import RelationRecord
from repro.store.backends import (
    MemoryBackend,
    ShardedBackend,
    SQLiteBackend,
)
from repro.store.columnar import ColumnarCodec
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore


def _event_stream(workload, cases, seed=11, rate=0.25):
    """A raw application-event stream, store-free (recorder input)."""
    simulator = ProcessSimulator(
        workload.build_spec(),
        workload.case_factory(
            ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), rate)
        ),
        seed=seed,
    )
    return all_events(simulator.run(cases))


def _cold_sweep_payloads(sim):
    """The cold-sweep oracle: a fresh evaluator over the same store."""
    oracle = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    return json.dumps(
        [result.to_payload() for result in oracle.run(sim.controls)]
    )


def _served_payloads(runtime):
    return json.dumps(
        [result.to_payload() for result in runtime.verdicts()]
    )


def _open_runtime(workload, cases=0, seed=2011, backend=None, **kwargs):
    sim = workload.simulate(cases=cases, seed=seed, backend=backend)
    runtime = ComplianceRuntime.from_simulation(
        sim, workload=workload, **kwargs
    )
    return sim, runtime


class TestRuntimeCore:
    def test_open_reports_startup_sweep(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=6)
        report = runtime.open()
        assert not report.restored
        assert report.traces == 6
        assert report.evaluated == 6 * len(sim.controls)
        with pytest.raises(ServiceError):
            runtime.open()
        runtime.shutdown()

    def test_verdicts_match_cold_sweep_and_filter(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=8)
        runtime.open()
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        one_control = runtime.verdicts(control="gm-approval")
        assert len(one_control) == 8
        assert {r.control_name for r in one_control} == {"gm-approval"}
        one_trace = runtime.verdicts(trace="App03")
        assert {r.trace_id for r in one_trace} == {"App03"}
        by_status = runtime.verdicts(status="satisfied")
        assert all(r.status.value == "satisfied" for r in by_status)
        runtime.shutdown()

    def test_filtered_reads_are_the_canonical_rows_of_their_group(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=6)
        runtime.open()
        table = runtime.verdicts()
        for trace in ("App02", "App05", "nope"):
            assert runtime.verdicts(trace=trace) == [
                r for r in table if r.trace_id == trace
            ]
        for control in [c.name for c in sim.controls] + ["nope"]:
            assert runtime.verdicts(control=control) == [
                r for r in table if r.control_name == control
            ]
            assert runtime.verdicts(
                control=control, trace="App04", status="violated"
            ) == [
                r for r in table
                if r.control_name == control and r.trace_id == "App04"
                and r.status.value == "violated"
            ]
        # A served group is the caller's copy, never the cached entry.
        runtime.verdicts(trace="App02").clear()
        assert runtime.verdicts(trace="App02")
        runtime.shutdown()

    def test_ingest_pipeline_and_dedup(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=5)
        reply = runtime.ingest(events)
        assert reply.recorded > 0
        assert reply.duplicates == 0
        assert reply.correlated > 0  # hiring has correlation rules
        assert len(reply.dispositions) == len(events)
        assert (
            sum(1 for recorded, __ in reply.dispositions if recorded)
            == reply.recorded
        )
        # The same batch again: idempotent capture, everything a duplicate.
        again = runtime.ingest(events)
        assert again.recorded == 0
        assert again.duplicates == reply.recorded
        assert again.correlated == 0
        # Served verdicts over the ingested rows = cold sweep of them.
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_ingest_without_mapping_is_rejected(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=2, seed=2011)
        runtime = ComplianceRuntime.from_simulation(sim)  # no workload
        runtime.open()
        with pytest.raises(ServiceError):
            runtime.ingest(_event_stream(workload, cases=1))
        runtime.shutdown()

    def test_sync_folds_out_of_band_appends(self):
        import dataclasses

        workload = hiring.workload()
        sim = workload.simulate(cases=4, seed=2011)
        # Watch-style read-only runtime: no mapping, no correlation —
        # another pipeline owns the rows; this one only evaluates them.
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        # Another handle over the same backend appends behind our back.
        other = ProvenanceStore(backend=sim.store.backend)
        template = next(
            r for r in other.records() if r.app_id == "App02"
        )
        other.append(
            dataclasses.replace(template, record_id="oob-service-1")
        )
        outcome = runtime.sync()
        assert outcome.new_rows == 1
        # Only App02's pairs re-evaluate, one per control.
        assert outcome.refreshed == len(sim.controls)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_transitions_feed_is_indexed(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        newest, entries = runtime.transitions_since(0)
        assert newest == 0 and entries == []
        runtime.ingest(_event_stream(workload, cases=2))
        runtime.sync()
        newest, entries = runtime.transitions_since(0)
        assert newest == len(entries) > 0
        assert [index for index, __ in entries] == list(
            range(1, newest + 1)
        )
        # A caught-up reader sees nothing new.
        __, tail = runtime.transitions_since(newest)
        assert tail == []
        runtime.shutdown()

    def test_stats_counters(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=3)
        runtime.open()
        stats = runtime.stats()
        assert stats["workload"] == sim.workload_name
        assert stats["traces"] == 3
        assert stats["controls"] == [c.name for c in sim.controls]
        assert stats["dirty_pairs"] == 0
        runtime.ingest(_event_stream(workload, cases=1))
        assert runtime.stats()["ingest_batches"] == 1
        runtime.shutdown()

    def test_shutdown_is_idempotent_and_closes_owned_store(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=2, owns_store=True)
        runtime.open()
        runtime.shutdown()
        runtime.shutdown()  # second call is a no-op
        with pytest.raises(ServiceError):
            runtime.verdicts()


class TestSnapshotResume:
    def _attach_runtime(self, workload, db, shards=None, **kwargs):
        backend = (
            SQLiteBackend(db)
            if shards is None
            else ShardedBackend.for_sqlite(db, shards)
        )
        store = ProvenanceStore(model=workload.build_model(), backend=backend)
        sim = workload.attach(store)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload, owns_store=True, **kwargs
        )
        return sim, runtime

    def test_restart_resumes_from_cursor(self, tmp_path):
        db = str(tmp_path / "service.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=6)
        half = len(events) // 2

        sim1, first = self._attach_runtime(workload, db)
        report1 = first.open()
        assert not report1.restored
        first.ingest(events[:half])
        first.sync()
        first.shutdown()  # graceful: snapshot + flush + close

        sim2, second = self._attach_runtime(workload, db)
        report2 = second.open()
        # The snapshot covered every row: nothing re-evaluates at startup.
        assert report2.restored
        assert report2.evaluated == 0
        # The stream's tail lands after the restart; correlation id
        # sequences continue where the first process left off.
        second.ingest(events[half:])
        second.sync()
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()

    def test_relation_ids_continue_past_the_stored_maximum(self, tmp_path):
        """A reopened runtime seeds its REL<i> counter from the stored
        relation ids, so correlating more events of the same traces
        mints only fresh, higher ids.  Four shards make this the only
        guard: a lane's store sees its own shard's ids alone."""
        from repro.model.records import RecordClass

        db = str(tmp_path / "service.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=5)
        by_trace = {}
        for event in events:
            by_trace.setdefault(event.app_id, []).append(event)
        early = [e for evs in by_trace.values() for e in evs[:len(evs) // 2]]
        late = [e for evs in by_trace.values() for e in evs[len(evs) // 2:]]

        def relation_suffixes(store):
            # A list, not a set: an id minted twice (in two shards) must
            # show up twice.
            return [
                int(record_id[len("REL"):])
                for record_id in store.record_ids(RecordClass.RELATION)
                if record_id.startswith("REL")
            ]

        __, first = self._attach_runtime(workload, db, shards=4)
        first.open()
        first.ingest(early)
        first.sync()
        before = relation_suffixes(first.store)
        assert before
        first.shutdown()

        sim2, second = self._attach_runtime(workload, db, shards=4)
        second.open()
        second.ingest(late)
        second.sync()
        after = relation_suffixes(second.store)
        assert len(after) == len(set(after))
        minted = Counter(after) - Counter(before)
        assert minted
        assert min(minted) > max(before)
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()

    def test_rows_appended_while_down_reevaluate_only_their_trace(
        self, tmp_path
    ):
        import dataclasses

        db = str(tmp_path / "service.db")
        workload = hiring.workload()

        sim1, first = self._attach_runtime(workload, db)
        first.open()
        first.ingest(_event_stream(workload, cases=5))
        first.shutdown()

        other = ProvenanceStore(backend=SQLiteBackend(db))
        template = next(
            r for r in other.records() if r.app_id == "App01"
        )
        other.append(
            dataclasses.replace(template, record_id="downtime-row-1")
        )
        other.close()

        sim2, second = self._attach_runtime(workload, db)
        report = second.open()
        assert report.restored
        # One touched trace -> one pair per control, not 5 traces' worth.
        assert 0 < report.evaluated <= len(sim2.controls)
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()


class TestConcurrency:
    def test_racing_readers_share_one_lazily_grouped_entry(self):
        """Readers that race to build a cache entry's per-trace and
        per-control groupings all get the canonical group."""
        import sys

        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=12)
        runtime.open()
        table = runtime.verdicts()
        traces = sorted({r.trace_id for r in table})
        controls = [c.name for c in sim.controls]
        # A fresh entry whose groupings no reader has built yet.
        runtime.materializer.invalidate_all()
        errors = []
        barrier = threading.Barrier(8)

        def read(worker):
            try:
                barrier.wait(timeout=10)
                for round_no in range(20):
                    trace = traces[(worker + round_no) % len(traces)]
                    control = controls[(worker + round_no) % len(controls)]
                    assert runtime.verdicts(trace=trace) == [
                        r for r in table if r.trace_id == trace
                    ]
                    assert runtime.verdicts(control=control) == [
                        r for r in table if r.control_name == control
                    ]
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        runtime.shutdown()

    def test_threaded_ingest_with_live_readers(self):
        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=12, seed=23)
        writers = 3
        # Partition whole traces round-robin: each writer owns disjoint
        # traces, so per-trace event order is preserved within a writer.
        trace_ids = sorted({event.app_id for event in events})
        owner = {
            trace: index % writers
            for index, trace in enumerate(trace_ids)
        }
        partitions = [
            [e for e in events if owner[e.app_id] == index]
            for index in range(writers)
        ]
        errors = []
        stop_reading = threading.Event()

        def write(partition):
            try:
                client = RecorderClient(
                    transport=InProcessTransport(runtime)
                )
                # Many small batches maximize interleaving.
                for start in range(0, len(partition), 7):
                    client.process_all(partition[start:start + 7])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read():
            try:
                while not stop_reading.is_set():
                    for result in runtime.verdicts():
                        # Reads mid-ingest must always be coherent rows.
                        assert result.control_name and result.trace_id
                    runtime.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        reader = threading.Thread(target=read)
        threads = [
            threading.Thread(target=write, args=(partition,))
            for partition in partitions
        ]
        reader.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop_reading.set()
        reader.join()
        assert errors == []
        runtime.sync()
        assert runtime.stats()["traces"] == len(trace_ids)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_background_refresh_folds_out_of_band_rows(self):
        import dataclasses
        import time

        workload = hiring.workload()
        sim = workload.simulate(cases=3, seed=2011)
        # Read-only runtime: the out-of-band writer owns correlation.
        runtime = ComplianceRuntime.from_simulation(sim)
        runtime.open()
        runtime.start_background(interval=0.01)
        with pytest.raises(ServiceError):
            runtime.start_background(interval=0.01)
        other = ProvenanceStore(backend=sim.store.backend)
        template = next(
            r for r in other.records() if r.app_id == "App01"
        )
        other.append(
            dataclasses.replace(template, record_id="bg-oob-1")
        )
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if runtime.stats()["rows"] == len(other):
                if runtime.stats()["dirty_pairs"] == 0:
                    break
            time.sleep(0.01)
        assert runtime.stats()["dirty_pairs"] == 0
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()
        assert not runtime.background_running

    def test_refresh_loop_survives_failing_ticks(self):
        import time

        workload = hiring.workload()
        sim, runtime = _open_runtime(workload, cases=2)
        runtime.open()
        real_sync = runtime._sync_locked
        failing = threading.Event()
        failing.set()

        def flaky_sync():
            if failing.is_set():
                raise OSError("transient store error")
            return real_sync()

        runtime._sync_locked = flaky_sync

        def wait_for(predicate):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if predicate():
                    return True
                time.sleep(0.01)
            return False

        runtime.start_background(interval=0.01)
        # Failing ticks are counted and surfaced, not fatal.
        assert wait_for(lambda: runtime.stats()["refresh_errors"] >= 2)
        assert runtime.health()["status"] == "degraded"
        stats = runtime.stats()
        assert stats["background_running"]
        assert stats["last_refresh_error"] == (
            "OSError: transient store error"
        )
        polls = stats["polls"]
        # The next good tick clears the degraded state.
        failing.clear()
        assert wait_for(lambda: runtime.stats()["polls"] > polls)
        assert wait_for(lambda: runtime.health()["status"] == "ok")
        runtime.ingest(_event_stream(workload, cases=1))
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()
        assert not runtime.background_running
        assert runtime.health()["status"] == "stopped"

    def test_health_and_stats_do_not_wait_for_the_global_lock(
        self, tmp_path
    ):
        workload = hiring.workload()
        store = ProvenanceStore(
            model=workload.build_model(),
            backend=SQLiteBackend(
                str(tmp_path / "busy.db"), threadsafe=True
            ),
        )
        sim = workload.attach(store)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload, owns_store=True
        )
        runtime.open()
        runtime.ingest(_event_stream(workload, cases=2))
        held = threading.Event()
        release = threading.Event()

        def hold_global_lock():
            # Stands in for a long refresh or snapshot.
            with runtime._lock:
                held.set()
                release.wait(30.0)

        holder = threading.Thread(target=hold_global_lock)
        holder.start()
        assert held.wait(10.0)
        answers = {}

        def probe():
            answers["health"] = runtime.health()
            answers["stats"] = runtime.stats()

        prober = threading.Thread(target=probe, daemon=True)
        try:
            prober.start()
            prober.join(5.0)
            assert not prober.is_alive(), "stats/health waited on the lock"
        finally:
            release.set()
            holder.join()
        assert answers["health"]["status"] == "ok"
        assert answers["stats"]["ingest_batches"] == 1
        assert len(answers["stats"]["lanes"]) == 1
        runtime.shutdown()


class TestShardedLanes:
    """The lane runtime: one ingest lane per shard + the verdict cache.

    Same contract as everywhere else — served verdicts byte-identical to
    a cold sweep — but now under lane-parallel writers, mid-stream
    snapshots, simulated lane crashes, and cache hits.  Runs over a
    4-shard store here and over a plain single-file store (the 1-shard
    case) in :class:`TestSingleShardLanes`: the runtime has one shape.
    """

    SHARDS = 4
    WRITERS = 4

    def _memory_backend(self):
        if self.SHARDS == 1:
            return MemoryBackend()
        return ShardedBackend(
            [MemoryBackend() for __ in range(self.SHARDS)]
        )

    def _sqlite_backend(self, db):
        if self.SHARDS == 1:
            return SQLiteBackend(db, threadsafe=True)
        return ShardedBackend.for_sqlite(db, self.SHARDS, threadsafe=True)

    def _memory_runtime(self, workload):
        return _open_runtime(workload, backend=self._memory_backend())

    def _attach_sqlite(self, workload, db):
        store = ProvenanceStore(
            model=workload.build_model(),
            backend=self._sqlite_backend(db),
        )
        sim = workload.attach(store)
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload, owns_store=True
        )
        return sim, runtime

    def test_memory_shards_share_children_without_forking(self):
        workload = hiring.workload()
        sim, runtime = self._memory_runtime(workload)
        runtime.open()
        assert runtime.lane_count == self.SHARDS
        assert len(runtime.stats()["lanes"]) == self.SHARDS
        runtime.shutdown()

    def test_lane_parallel_ingest_matches_cold_sweep(self):
        """WRITERS threads over SHARDS lanes, mid-stream snapshot: parity."""
        workload = hiring.workload()
        sim, runtime = self._memory_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=12, seed=29)
        writers = self.WRITERS
        trace_ids = sorted({event.app_id for event in events})
        owner = {
            trace: index % writers
            for index, trace in enumerate(trace_ids)
        }
        partitions = [
            [e for e in events if owner[e.app_id] == index]
            for index in range(writers)
        ]
        errors = []
        barrier = threading.Barrier(writers + 1)

        def write(partition):
            try:
                client = RecorderClient(
                    transport=InProcessTransport(runtime)
                )
                barrier.wait()
                for start in range(0, len(partition), 7):
                    client.process_all(partition[start:start + 7])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(partition,))
            for partition in partitions
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        # A snapshot while every lane is mid-stream must fold whatever
        # is committed so far without corrupting anything.
        runtime.snapshot()
        for thread in threads:
            thread.join()
        assert errors == []
        runtime.sync()
        stats = runtime.stats()
        # Every event landed in exactly one lane.
        assert sum(
            lane["events_routed"] for lane in stats["lanes"]
        ) == len(events)
        assert stats["traces"] == len(trace_ids)
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        runtime.shutdown()

    def test_verdict_read_cache_hits_until_ingest_invalidates(self):
        workload = hiring.workload()
        sim, runtime = self._memory_runtime(workload)
        runtime.open()
        runtime.ingest(_event_stream(workload, cases=3))
        first = _served_payloads(runtime)
        before = runtime.stats()["verdict_cache"]
        # An unchanged runtime serves repeat reads from the cache.
        assert _served_payloads(runtime) == first
        after = runtime.stats()["verdict_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        # New rows bump a lane's commit counter: the next read misses,
        # recomputes, and still matches the cold sweep.
        runtime.ingest(_event_stream(workload, cases=5))
        assert _served_payloads(runtime) == _cold_sweep_payloads(sim)
        assert (
            runtime.stats()["verdict_cache"]["misses"]
            == after["misses"] + 1
        )
        runtime.shutdown()

    def test_sharded_restart_resumes_with_zero_reevaluations(
        self, tmp_path
    ):
        db = str(tmp_path / "sharded-service.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=6)

        sim1, first = self._attach_sqlite(workload, db)
        first.open()
        assert first.lane_count == self.SHARDS
        first.ingest(events)
        first.shutdown()  # folds lanes, snapshots, closes shard files

        sim2, second = self._attach_sqlite(workload, db)
        report = second.open()
        # The snapshot's cursor covered every lane-committed row.
        assert report.restored
        assert report.evaluated == 0
        # Replaying the stream is absorbed by rebuilt per-lane dedup.
        again = second.ingest(events)
        assert again.recorded == 0
        assert again.duplicates > 0
        second.sync()
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()

    def test_lane_crash_reopen_recovers_to_cold_sweep_parity(
        self, tmp_path
    ):
        """A lane dying mid-batch loses nothing already committed; a
        rebuilt runtime over the same shard files replays to parity."""
        db = str(tmp_path / "crashy-service.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=8, seed=17)

        sim1, first = self._attach_sqlite(workload, db)
        first.open()
        plan = FaultPlan(seed=5).crash_at(
            "sharded.append.shard0", occurrence=2
        )
        with active_plan(plan):
            with pytest.raises(SimulatedCrash):
                for start in range(0, len(events), 5):
                    first.ingest(events[start:start + 5])
        # Simulated process death: abandon the runtime, no shutdown.

        sim2, second = self._attach_sqlite(workload, db)
        report = second.open()
        assert second.lane_count == self.SHARDS
        # Whatever survived the crash is clean, evaluable state.
        assert report.traces >= 0
        second.ingest(events)  # full replay; dedup keeps it idempotent
        second.sync()
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()


    def test_reopened_lanes_correlate_without_decoding_at_open(
        self, tmp_path, monkeypatch
    ):
        """A lane seeds no edge set at open: a snapshot-restored open
        decodes no row, and a read after it decodes through the global
        store, none through a lane handle.  Correlation still emits each
        (type, source, target) edge once when re-sent and late events
        reach the reopened lanes."""
        db = str(tmp_path / "reopened-lanes.db")
        workload = hiring.workload()
        events = _event_stream(workload, cases=8, seed=23)
        positions = {}
        for position, event in enumerate(events):
            positions.setdefault(event.app_id, []).append(position)
        held = {p for trace in positions.values() for p in trace[-2:]}
        early = [e for p, e in enumerate(events) if p not in held]
        late = [e for p, e in enumerate(events) if p in held]

        sim1, first = self._attach_sqlite(workload, db)
        first.open()
        first.ingest(early)
        first.shutdown()

        decoded_by = []
        store_decode = ProvenanceStore._decode
        cols_decode = ColumnarCodec.decode_cols

        def spy_store_decode(store, row):
            decoded_by.append(store)
            return store_decode(store, row)

        def spy_cols_decode(codec, row, cols, projection=None):
            decoded_by.append(codec)
            return cols_decode(codec, row, cols, projection)

        monkeypatch.setattr(ProvenanceStore, "_decode", spy_store_decode)
        monkeypatch.setattr(ColumnarCodec, "decode_cols", spy_cols_decode)
        sim2, second = self._attach_sqlite(workload, db)
        report = second.open()
        # The snapshot-restored open decodes nothing at all; a read of
        # one trace after it proves the spies see decodes, and that
        # they go through the global store.
        assert report.restored and decoded_by == []
        trace = sim2.store.app_ids()[0]
        assert sim2.store.select(RecordQuery(app_id=trace))
        monkeypatch.undo()
        assert decoded_by
        assert all(
            owner is sim2.store or owner is sim2.store.columnar
            for owner in decoded_by
        )

        resent = second.ingest(early)
        assert resent.recorded == 0
        assert second.ingest(late).recorded == len(late)
        second.sync()
        edges = [
            (r.entity_type, r.source_id, r.target_id)
            for r in sim2.store.records()
            if isinstance(r, RelationRecord)
        ]
        assert edges and len(edges) == len(set(edges))
        assert _served_payloads(second) == _cold_sweep_payloads(sim2)
        second.shutdown()


class TestSingleShardLanes(TestShardedLanes):
    """The same lane contract over a plain (one-shard) store: one lane,
    a forked SQLite handle or the shared memory backend, and the
    ``sharded.append.shard0`` crash point."""

    SHARDS = 1


class TestTransportRecorder:
    def test_constructor_requires_exactly_one_backing(self):
        workload = hiring.workload()
        sim = workload.simulate(cases=0)
        mapping = workload.build_mapping(sim.model)
        with pytest.raises(CaptureError):
            RecorderClient()  # neither
        with pytest.raises(CaptureError):
            RecorderClient(sim.store)  # store without mapping
        runtime = ComplianceRuntime.from_simulation(
            sim, workload=workload
        )
        with pytest.raises(CaptureError):
            RecorderClient(
                sim.store, mapping,
                transport=InProcessTransport(runtime),
            )  # both

    def test_remote_recorder_matches_embedded_stats(self):
        workload = hiring.workload()
        events = _event_stream(workload, cases=4, seed=31)

        # Embedded oracle: classic store-backed recorder.
        model = workload.build_model()
        mapping = workload.build_mapping(model)
        oracle_store = ProvenanceStore(model=model)
        embedded = RecorderClient(oracle_store, mapping)
        embedded_envelopes = embedded.process_all(events + events[:5])

        # Remote: same stream through a served runtime.
        sim, runtime = _open_runtime(workload)
        runtime.open()
        remote = RecorderClient(
            transport=InProcessTransport(runtime), mapping=mapping
        )
        remote_envelopes = remote.process_all(events + events[:5])

        for field in (
            "seen", "recorded", "dropped_irrelevant",
            "dropped_unmapped", "duplicates",
        ):
            assert (
                getattr(remote.stats, field)
                == getattr(embedded.stats, field)
            ), field
        assert [
            (envelope.recorded, envelope.dropped_reason)
            for envelope in remote_envelopes
        ] == [
            (envelope.recorded, envelope.dropped_reason)
            for envelope in embedded_envelopes
        ]
        oracle_store.close()
        runtime.shutdown()

    def test_unknown_kind_is_dropped_by_the_server(self):
        from repro.capture.events import ApplicationEvent, EventSource

        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        stray = ApplicationEvent(
            event_id="stray-1",
            source=EventSource.MANUAL,
            kind="totally.unknown",
            app_id="App99",
        )
        # Without a client-side mapping, everything ships; the server's
        # relevance filter rejects the unknown kind and the client folds
        # the disposition into its own counters.
        lenient = RecorderClient(transport=InProcessTransport(runtime))
        (envelope,) = lenient.process_all([stray])
        assert not envelope.recorded
        assert lenient.stats.dropped_irrelevant == 1
        # With the scope's mapping the client filters before the wire:
        # same outcome, nothing shipped.
        mapping = workload.build_mapping(sim.model)
        local_filter = RecorderClient(
            transport=InProcessTransport(runtime), mapping=mapping
        )
        (envelope,) = local_filter.process_all([stray])
        assert not envelope.recorded
        assert local_filter.stats.dropped_irrelevant == 1
        runtime.shutdown()

    def test_strict_client_raises_on_remote_unmapped_disposition(self):
        from repro.capture.events import ApplicationEvent, EventSource
        from repro.service.transport import IngestReply

        class StubTransport:
            def __init__(self, dispositions):
                self.reply = IngestReply(
                    recorded=0, duplicates=0, dropped_irrelevant=0,
                    dropped_unmapped=len(dispositions), correlated=0,
                    dispositions=dispositions, last_seq=0,
                )

            def ingest(self, events):
                return self.reply

        stray = ApplicationEvent(
            "stray-2", EventSource.MANUAL, "x.y", app_id="App01"
        )
        unmapped = [(False, "no mapping rule for kind 'x.y'")]
        lenient = RecorderClient(transport=StubTransport(unmapped))
        (envelope,) = lenient.process_all([stray])
        assert not envelope.recorded
        assert lenient.stats.dropped_unmapped == 1
        strict = RecorderClient(
            transport=StubTransport(unmapped), strict=True
        )
        with pytest.raises(MappingError):
            strict.process_all([stray])

    def test_disposition_count_mismatch_is_a_capture_error(self):
        from repro.capture.events import ApplicationEvent, EventSource
        from repro.service.transport import IngestReply

        class ShortTransport:
            def ingest(self, events):
                return IngestReply(
                    recorded=0, duplicates=0, dropped_irrelevant=0,
                    dropped_unmapped=0, correlated=0,
                    dispositions=[], last_seq=0,
                )

        client = RecorderClient(transport=ShortTransport())
        with pytest.raises(CaptureError):
            client.process_all([
                ApplicationEvent(
                    "m-1", EventSource.MANUAL, "a.b", app_id="App01"
                )
            ])

    def test_remote_recorder_scrubs_before_the_wire(self):
        from repro.capture.filters import SensitiveDataScrubber

        workload = hiring.workload()
        sim, runtime = _open_runtime(workload)
        runtime.open()
        events = _event_stream(workload, cases=1)
        # Tag one payload field as sensitive on the recording side.
        poisoned = [
            event.with_payload(salary_band="SB9") for event in events
        ]
        client = RecorderClient(
            transport=InProcessTransport(runtime),
            scrubber=SensitiveDataScrubber(
                sensitive_fields=("salary_band",)
            ),
        )
        client.process_all(poisoned)
        assert client.stats.scrubbed_fields == len(poisoned)
        # Nothing that reached the store mentions the scrubbed value.
        for row in runtime.store.rows():
            assert "SB9" not in row.xml
        runtime.shutdown()
