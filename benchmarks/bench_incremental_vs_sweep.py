"""Incremental re-check vs warm full re-sweep after a single-trace append.

The point of the materialized verdict table: once a store has been swept,
the next "are we still compliant?" question should cost what *changed*,
not what *exists*.  This bench stages exactly that situation — a store of
``CASES`` already-swept traces receives one new trace, then both
evaluation styles answer the same freshness question:

- **incremental** — ``run()`` on an evaluator with the materialized table:
  only the new trace's (control, trace) pairs evaluate, everything else is
  a table read,
- **warm sweep** — ``run()`` on a second evaluator after
  ``materializer.invalidate_all()``, which dirties every pair but keeps the
  frames: the strongest non-incremental baseline, since trace frames are
  cached and only the new trace's frame rebuilds, yet every pair still
  re-evaluates.

Both must return byte-identical rows (same normalization as the
execution-modes bench).  At full scale the incremental re-check must be at
least **5x** faster; under ``BAL_BENCH_SCALE=tiny`` (the CI smoke run) the
bar drops to "not slower", since fixed per-sweep overheads swamp ratios at
30 traces.

Benchmarked operation: one incremental re-check after a one-trace append.

A second case appends late records to **5 existing traces** of a 4-shard
SQLite store reopened from disk (so no record sits in a decode cache).
Two or more dirty traces are primed in one fetch, and that fetch must be
scoped: the case asserts the rows decoded during the re-check are at
most the dirty traces' rows, and that the final table equals
:func:`~repro.controls.evaluator.cold_sweep`.
"""

import dataclasses
import os
import time

from repro.controls.evaluator import ComplianceEvaluator, cold_sweep
from repro.model.records import RelationRecord
from repro.processes import hiring
from repro.processes.violations import ViolationPlan
from repro.reporting.tables import render_table
from repro.store.backends import ShardedBackend
from repro.store.columnar import ColumnarCodec
from repro.store.query import RecordQuery
from repro.store.store import ProvenanceStore
from repro.store.xmlcodec import XmlCodec

TINY = os.environ.get("BAL_BENCH_SCALE") == "tiny"
CASES = 30 if TINY else 300
ROUNDS = 5
MIN_SPEEDUP = 1.0 if TINY else 5.0
DIRTY_PER_ROUND = 5
SHARDS = 4


def _normalize(results):
    return [
        (
            r.control_name,
            r.trace_id,
            r.status.value,
            r.checked_at,
            tuple(r.alerts),
            tuple(sorted(r.bound_nodes.items())),
            tuple(r.touched_nodes),
        )
        for r in results
    ]


def _clone_trace(store, source_trace, new_trace):
    """A fresh trace: *source_trace*'s records re-identified under a new
    app id (edges rewired to the cloned endpoints)."""
    clones = []
    for record in store.records():
        if record.app_id != source_trace:
            continue
        changes = {
            "record_id": f"{record.record_id}::{new_trace}",
            "app_id": new_trace,
        }
        if isinstance(record, RelationRecord):
            changes["source_id"] = f"{record.source_id}::{new_trace}"
            changes["target_id"] = f"{record.target_id}::{new_trace}"
        clones.append(dataclasses.replace(record, **changes))
    return clones


def test_incremental_vs_sweep(benchmark, artifact):
    sim = hiring.workload().simulate(
        cases=CASES,
        seed=7,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2),
    )
    incremental = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    warm_sweep = ComplianceEvaluator(
        sim.store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    # Cold sweeps: both sides materialize their frames (and the
    # incremental side its verdict table) before measurement starts.
    incremental.run(sim.controls)
    warm_sweep.run(sim.controls)

    template_trace = sim.store.app_ids()[0]
    rows = []
    incremental_times = []
    sweep_times = []
    for round_no in range(ROUNDS):
        new_trace = f"Incr{round_no:02d}"
        for record in _clone_trace(sim.store, template_trace, new_trace):
            sim.store.append(record)

        evals_before = incremental.materializer.refreshes
        start = time.perf_counter()
        incr_results = incremental.run(sim.controls)
        incr_sec = time.perf_counter() - start
        evals = incremental.materializer.refreshes - evals_before

        warm_sweep.materializer.invalidate_all()
        start = time.perf_counter()
        sweep_results = warm_sweep.run(sim.controls)
        sweep_sec = time.perf_counter() - start

        assert _normalize(incr_results) == _normalize(sweep_results), (
            f"incremental re-check diverged from the full sweep after "
            f"appending {new_trace}"
        )
        # Only the appended trace's pairs re-evaluated.
        assert evals == len(sim.controls)
        incremental_times.append(incr_sec)
        sweep_times.append(sweep_sec)
        rows.append(
            (
                new_trace,
                len(incr_results),
                evals,
                f"{incr_sec * 1000:.2f}ms",
                f"{sweep_sec * 1000:.2f}ms",
                f"{sweep_sec / incr_sec:.1f}x",
            )
        )

    median_incr = sorted(incremental_times)[ROUNDS // 2]
    median_sweep = sorted(sweep_times)[ROUNDS // 2]
    speedup = median_sweep / median_incr
    assert speedup >= MIN_SPEEDUP, (
        f"incremental re-check is only {speedup:.2f}x the warm full "
        f"sweep; required >= {MIN_SPEEDUP}x at {CASES} traces"
    )

    columns = (
        "appended trace",
        "result rows",
        "pairs evaluated",
        "incremental",
        "warm sweep",
        "speedup",
    )
    table = render_table(
        columns,
        rows,
        title=(
            f"Incremental re-check vs warm sweep — hiring, start "
            f"{CASES} traces, {len(sim.controls)} controls, +1 trace "
            f"per round"
        ),
    )
    artifact(
        "Incremental vs sweep",
        table,
        data={
            "cases": CASES,
            "controls": len(sim.controls),
            "rounds": ROUNDS,
            "scale": "tiny" if TINY else "full",
            "columns": list(columns),
            "rows": [list(row) for row in rows],
            "seconds": {
                "incremental_median": median_incr,
                "warm_sweep_median": median_sweep,
            },
            "speedup": speedup,
        },
    )

    benchmark(lambda: incremental.run(sim.controls))


def _count_decodes(monkeypatch):
    """Count row decodes on both codecs (columnar payload and XML)."""
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


def test_five_trace_append_on_sharded_sqlite(tmp_path, monkeypatch, artifact):
    path = str(tmp_path / "resweep.db")
    sim = hiring.workload().simulate(
        cases=CASES,
        seed=7,
        violations=ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), 0.2),
        backend=ShardedBackend.for_sqlite(path, SHARDS),
    )
    sim.store.close()
    store = ProvenanceStore(
        model=sim.model, backend=ShardedBackend.for_sqlite(path, SHARDS)
    )
    evaluator = ComplianceEvaluator(
        store, sim.xom, sim.vocabulary,
        observable_types=sim.observable_types,
    )
    evaluator.run(sim.controls)
    trace_ids = store.app_ids()
    stride = len(trace_ids) // (ROUNDS * DIRTY_PER_ROUND)

    rows = []
    for round_no in range(ROUNDS):
        first = round_no * DIRTY_PER_ROUND
        dirty = [
            trace_ids[(first + k) * stride]
            for k in range(DIRTY_PER_ROUND)
        ]
        with store.bulk():
            for trace_id in dirty:
                template = max(
                    store.select(RecordQuery(app_id=trace_id)),
                    key=lambda r: r.timestamp,
                )
                store.append(
                    dataclasses.replace(
                        template,
                        record_id=f"{template.record_id}::late{round_no}",
                        timestamp=template.timestamp + 1000,
                    )
                )
        dirty_rows = sum(
            len(store.select(RecordQuery(app_id=t))) for t in dirty
        )
        evals_before = evaluator.materializer.refreshes
        with monkeypatch.context() as patch:
            decodes = _count_decodes(patch)
            start = time.perf_counter()
            evaluator.run(sim.controls)
            seconds = time.perf_counter() - start
        evals = evaluator.materializer.refreshes - evals_before
        assert evals == DIRTY_PER_ROUND * len(sim.controls)
        assert decodes["n"] <= dirty_rows, (
            f"re-check after appends to {DIRTY_PER_ROUND} traces decoded "
            f"{decodes['n']} rows; the dirty traces hold {dirty_rows}"
        )
        rows.append(
            (
                round_no,
                len(store),
                dirty_rows,
                decodes["n"],
                evals,
                f"{seconds * 1000:.2f}ms",
            )
        )

    reference = cold_sweep(
        store, evaluator.engine, sim.controls,
        observable_types=sim.observable_types,
    )
    assert _normalize(evaluator.run(sim.controls)) == _normalize(reference)

    columns = (
        "round",
        "store rows",
        "dirty-trace rows",
        "rows decoded",
        "pairs evaluated",
        "re-check",
    )
    table = render_table(
        columns,
        rows,
        title=(
            f"Re-check after late appends to {DIRTY_PER_ROUND} traces — "
            f"hiring, {CASES} traces, {SHARDS}-shard SQLite, "
            f"{len(sim.controls)} controls"
        ),
    )
    artifact(
        "Incremental vs sweep: five-trace append, sharded SQLite",
        table,
        data={
            "cases": CASES,
            "shards": SHARDS,
            "dirty_per_round": DIRTY_PER_ROUND,
            "rounds": ROUNDS,
            "scale": "tiny" if TINY else "full",
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        },
    )
    store.close()
