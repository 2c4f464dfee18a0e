"""Regression tests for the evaluator's shared per-trace context cache.

PR 1's evaluator rebuilt each trace's graph (and re-wrapped its XOM
objects) on *every* check — ``check_trace`` in a loop paid one
``build_trace_graph`` per call.  These tests pin the fix: all public
entry points route through one frame cache, appends invalidate exactly
the touched trace, historical (``as_of``) views bypass the cache, and
the production sweep returns the rows of the ``cold_sweep`` oracle under
both rule engines.
"""

import dataclasses

import pytest

import repro.controls.evaluator as evaluator_module
from repro.brms.engine import RuleEngine
from repro.controls.evaluator import ComplianceEvaluator, cold_sweep
from repro.graph.build import build_trace_graph
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.store.query import RecordQuery


@pytest.fixture
def sim():
    return hiring.workload().simulate(
        cases=4,
        seed=9,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.3),
    )


@pytest.fixture
def evaluator(sim):
    return ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )


def _count_builds(monkeypatch):
    """Monkeypatch the evaluator's graph builders to count invocations."""
    calls = {"n": 0}
    real_build = build_trace_graph

    def counting_build(*args, **kwargs):
        calls["n"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(
        evaluator_module, "build_trace_graph", counting_build
    )
    return calls


def _normalize(results):
    return [
        (
            r.control_name, r.trace_id, r.status, r.checked_at,
            tuple(r.alerts), tuple(sorted(r.bound_nodes.items())),
            tuple(r.touched_nodes),
        )
        for r in results
    ]


class TestCheckTraceCaching:
    def test_repeat_checks_build_graph_once(self, sim, evaluator, monkeypatch):
        calls = _count_builds(monkeypatch)
        trace_id = sim.store.app_ids()[0]
        first = evaluator.check_trace(sim.controls[0], trace_id)
        for control in sim.controls:
            evaluator.check_trace(control, trace_id)
        assert calls["n"] == 1
        assert evaluator.graph_builds == 1
        # And the repeat check is deterministic.
        assert evaluator.check_trace(sim.controls[0], trace_id) == first

    def test_distinct_traces_build_once_each(self, sim, evaluator, monkeypatch):
        calls = _count_builds(monkeypatch)
        for trace_id in sim.store.app_ids():
            evaluator.check_trace(sim.controls[0], trace_id)
            evaluator.check_trace(sim.controls[1], trace_id)
        assert calls["n"] == len(sim.store.app_ids())

    def test_run_then_check_trace_reuses_frames(self, sim, evaluator):
        evaluator.run(sim.controls)
        builds_after_sweep = evaluator.graph_builds
        assert builds_after_sweep == len(sim.store.app_ids())
        for trace_id in sim.store.app_ids():
            evaluator.check_trace(sim.controls[0], trace_id)
        evaluator.run(sim.controls)
        assert evaluator.graph_builds == builds_after_sweep

    def test_as_of_bypasses_cache(self, sim, evaluator):
        trace_id = sim.store.app_ids()[0]
        evaluator.check_trace(sim.controls[0], trace_id)
        assert evaluator.graph_builds == 1
        evaluator.check_trace(sim.controls[0], trace_id, as_of=10)
        evaluator.check_trace(sim.controls[0], trace_id, as_of=10)
        # Historical views never enter or read the cache...
        assert evaluator.graph_builds == 3
        # ...and the live frame is still there.
        evaluator.check_trace(sim.controls[1], trace_id)
        assert evaluator.graph_builds == 3

class TestInvalidation:
    def test_append_invalidates_only_touched_trace(self, sim, evaluator):
        ids = sim.store.app_ids()
        evaluator.run(sim.controls)
        assert evaluator.graph_builds == len(ids)
        # Grow one trace by cloning one of its existing records.
        victim = ids[0]
        template = max(
            (r for r in sim.store.records() if r.app_id == victim),
            key=lambda r: r.timestamp,
        )
        sim.store.append(
            dataclasses.replace(
                template,
                record_id=f"{template.record_id}-clone",
                timestamp=template.timestamp + 1000,
            )
        )
        evaluator.run(sim.controls)
        # Exactly one frame was rebuilt, and its result sees the append.
        assert evaluator.graph_builds == len(ids) + 1
        refreshed = evaluator.check_trace(sim.controls[0], victim)
        assert refreshed.checked_at == template.timestamp + 1000

    def test_clear_context_cache_rebuilds_everything(self, sim, evaluator):
        evaluator.run(sim.controls)
        evaluator.clear_context_cache()
        evaluator.run(sim.controls)
        assert evaluator.graph_builds == 2 * len(sim.store.app_ids())

class TestSweepParity:
    def test_modes_produce_identical_rows(self, sim, evaluator):
        # The reference oracle: rebuilt graphs and the BAL interpreter.
        interpret = RuleEngine(
            sim.xom, sim.vocabulary, execution_mode="interpret"
        )
        reference = _normalize(
            cold_sweep(
                sim.store, interpret, sim.controls,
                observable_types=sim.observable_types,
            )
        )
        # The production path: frame cache, verdict table, compiled rules.
        assert _normalize(evaluator.run(sim.controls)) == reference
        # The same path with the interpreter swapped in.
        interpreted = ComplianceEvaluator(
            sim.store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        interpreted.engine = interpret
        assert _normalize(interpreted.run(sim.controls)) == reference


# ---------------------------------------------------------------------------
# Re-sweep after a write: O(dirty traces), not O(store)
# ---------------------------------------------------------------------------


def _sharded_sqlite_sim(tmp_path, cases=60):
    """A 4-shard SQLite hiring store, reopened so no record is cached."""
    from repro.store.backends import ShardedBackend
    from repro.store.store import ProvenanceStore

    path = str(tmp_path / "resweep.db")
    sim = hiring.workload().simulate(
        cases=cases,
        seed=5,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.3),
        backend=ShardedBackend.for_sqlite(path, 4),
    )
    sim.store.close()
    store = ProvenanceStore(
        model=sim.model, backend=ShardedBackend.for_sqlite(path, 4)
    )
    return sim, store, path


def _grow(store, trace_ids, suffix="late"):
    """Append one clone of each trace's newest record."""
    with store.bulk():
        for trace_id in trace_ids:
            template = max(
                store.select(RecordQuery(app_id=trace_id)),
                key=lambda r: r.timestamp,
            )
            store.append(
                dataclasses.replace(
                    template,
                    record_id=f"{template.record_id}-{suffix}",
                    timestamp=template.timestamp + 1000,
                )
            )


def _count_decodes(monkeypatch):
    """Count row decodes on both codecs (columnar payload and XML)."""
    from repro.store.columnar import ColumnarCodec
    from repro.store.xmlcodec import XmlCodec

    calls = {"n": 0}
    for owner, name in (
        (ColumnarCodec, "decode_cols"),
        (XmlCodec, "decode_row"),
    ):
        real = getattr(owner, name)

        def counting(*args, _real=real, **kwargs):
            calls["n"] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return calls


class TestScopedResweep:
    """A sweep after appends to 3 of ~60 traces reads those 3 traces."""

    @pytest.fixture
    def swept(self, tmp_path):
        sim, store, __ = _sharded_sqlite_sim(tmp_path)
        evaluator = ComplianceEvaluator(
            store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        evaluator.run(sim.controls)
        ids = store.app_ids()
        assert len(ids) >= 50
        dirty = [ids[3], ids[len(ids) // 2], ids[-2]]
        _grow(store, dirty)
        yield sim, store, evaluator, dirty
        store.close()

    def test_resweep_decodes_only_dirty_trace_rows(
        self, swept, monkeypatch
    ):
        sim, store, evaluator, dirty = swept
        dirty_rows = sum(
            len(store.select(RecordQuery(app_id=t))) for t in dirty
        )
        assert dirty_rows < len(store) // 10
        decodes = _count_decodes(monkeypatch)
        builds_before = evaluator.graph_builds
        evaluator.run(sim.controls)
        assert decodes["n"] <= dirty_rows
        assert evaluator.graph_builds - builds_before == len(dirty)

    def test_resweep_issues_no_per_shard_group_by(
        self, swept, monkeypatch
    ):
        from repro.store.backends import SQLiteBackend

        sim, store, evaluator, __ = swept
        calls = {"n": 0}
        real = SQLiteBackend.app_ids

        def counting(self):
            calls["n"] += 1
            return real(self)

        monkeypatch.setattr(SQLiteBackend, "app_ids", counting)
        evaluator.run(sim.controls)
        assert calls["n"] == 0

    def test_resweep_equals_cold_sweep(self, swept):
        sim, store, evaluator, __ = swept
        reference = cold_sweep(
            store, evaluator.engine, sim.controls,
            observable_types=sim.observable_types,
        )
        assert _normalize(evaluator.run(sim.controls)) == _normalize(
            reference
        )

    def test_tampered_untouched_trace_stays_out_of_the_resweep(
        self, tmp_path, monkeypatch
    ):
        """At-rest damage to a trace nobody wrote to is never read by a
        post-write sweep: the scoped fetch succeeds, so the sweep does
        not fall back to per-pair refreshes."""
        import sqlite3

        from repro.controls.status import ComplianceStatus
        from repro.store.backends.sharded import sqlite_shard_path

        sim, store, path = _sharded_sqlite_sim(tmp_path, cases=12)
        evaluator = ComplianceEvaluator(
            store, sim.xom, sim.vocabulary,
            observable_types=sim.observable_types,
        )
        before = evaluator.run(sim.controls)
        ids = store.app_ids()
        victim, dirty = ids[0], [ids[1], ids[2]]
        conn = sqlite3.connect(
            sqlite_shard_path(path, store.shard_index(victim))
        )
        with conn:
            conn.execute(
                "UPDATE provenance SET xml = substr(xml, 1, 20) "
                "WHERE appid = ?",
                (victim,),
            )
        conn.close()
        _grow(store, dirty)

        failures = []
        real_prime = evaluator.prime_frames

        def spying_prime(*args, **kwargs):
            try:
                return real_prime(*args, **kwargs)
            except Exception as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(evaluator, "prime_frames", spying_prime)
        after = evaluator.run(sim.controls)
        assert failures == []
        assert all(r.status is not ComplianceStatus.ERROR for r in after)
        untouched = [r for r in after if r.trace_id == victim]
        assert untouched == [r for r in before if r.trace_id == victim]
        store.close()
