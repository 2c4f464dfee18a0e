"""Per-layer metrics of a traced run, and what each should move.

Names, units and better-directions come from ``BENCHMARK.json``;
:data:`MOVES` adds, for each, the end-to-end metric and workload a change
to that layer should move (``perfbench/README.md`` explains the
end-to-end names).
Time totals (``busy_ms``, ``self_ms``) and call counts cover the traced
server from the start of ``open`` to the end of the measured window, so
start-up work (restore, the start-up sweep) is included; the HTTP
overheads compare the window's round trips with the window's runtime
calls.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Optional, Tuple

import spec
from tracing import Summary, under_roots

MOVES: Dict[str, str] = {
    "service.http.ingest_overhead_ms": "ingest_p50_ms on ingest",
    "service.http.read_overhead_ms": "read_p50_ms on audit and backfill",
    "service.http.response_bytes": "read_p99_ms on backfill",
    "service.runtime.ingest.calls": "ingest_events_per_s on ingest",
    "service.runtime.ingest.busy_ms": "ingest_p99_ms on ingest",
    "service.runtime.ingest.self_ms": "ingest_p99_ms on ingest",
    "service.runtime.verdicts.calls": "read_p50_ms on audit",
    "service.runtime.verdicts.busy_ms": "read_p50_ms on audit",
    "service.runtime.verdict_cache_hit_ratio": "read_p50_ms on audit",
    "service.runtime.sync.calls":
        "fresh_read_p90_ms on audit, ingest_p99_ms on ingest",
    "service.runtime.sync.busy_ms":
        "fresh_read_p90_ms on audit, ingest_p99_ms on ingest",
    "service.runtime.open.ms": "setup_s on audit",
    "service.runtime.open.self_ms": "setup_s on audit",
    "service.lanes.ingest.busy_ms": "ingest_events_per_s on ingest",
    "service.lanes.skew": "ingest_events_per_s on ingest",
    "capture.recorder.process_all.self_ms": "ingest_p50_ms on ingest",
    "capture.recorder.dedup_hit_ratio": "ingest_p50_ms on ingest",
    "capture.correlation.run.calls": "ingest_events_per_s on ingest",
    "capture.correlation.run.busy_ms": "ingest_events_per_s on ingest",
    "capture.correlation.run.relations": "ingest_events_per_s on ingest",
    "capture.correlation.pairs_considered_ratio":
        "ingest_events_per_s on ingest",
    "capture.correlation.rows_selected_per_relation":
        "ingest_events_per_s on ingest",
    "store.append.calls":
        "ingest_events_per_s, disk_bytes_per_event on ingest",
    "store.append.self_ms":
        "ingest_events_per_s, disk_bytes_per_event on ingest",
    "store.xml_encode.busy_ms":
        "ingest_events_per_s, disk_bytes_per_event on ingest",
    "store.columnar_encode.busy_ms":
        "ingest_events_per_s, disk_bytes_per_event on ingest",
    "store.sqlite.flush.calls": "ingest_p50_ms on ingest",
    "store.sqlite.flush.busy_ms": "ingest_p50_ms on ingest",
    "store.sqlite.contains.calls": "ingest_p50_ms on ingest",
    "store.sqlite.query_records.busy_ms": "ingest_p50_ms on ingest",
    "store.sqlite.query_records.rows": "ingest_p50_ms on ingest",
    "store.sync.busy_ms": "fresh_read_p50_ms on audit, setup_s on backfill",
    "store.sync.rows": "fresh_read_p50_ms on audit, setup_s on backfill",
    "store.records_by_trace_projected.calls":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "store.rows_decoded": "fresh_read_p50_ms on audit, setup_s on backfill",
    "store.records_by_trace_projected.calls_per_fresh_read":
        "fresh_read_p50_ms on audit",
    "store.rows_decoded_per_fresh_read": "fresh_read_p50_ms on audit",
    "store.rows_decoded_per_cache_miss": "reads_per_s on audit",
    "controls.materializer.refresh.busy_ms":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "controls.materializer.sweep.busy_ms":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "controls.materializer.restore.busy_ms":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "controls.materializer.stale_pairs":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "controls.materializer.changed_ratio":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "controls.evaluator.prime_frames.busy_ms":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "controls.evaluator.graph_builds":
        "fresh_read_p50_ms on audit, setup_s on backfill",
    "brms.engine.evaluate.calls": "setup_s on backfill",
    "brms.engine.evaluate.busy_ms": "setup_s on backfill",
    "service.process.cpu_ms_per_op": "every workload",
}

#: ``name -> (unit, better)`` of every per-layer metric of BENCHMARK.json
LAYER_METRICS = spec.metrics("per_layer")
if set(MOVES) != set(LAYER_METRICS):
    raise ImportError(
        "perfbench/layers.py MOVES and BENCHMARK.json per_layer name "
        f"different metrics: {sorted(set(MOVES) ^ set(LAYER_METRICS))}"
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean_ms(samples: List[float]) -> Optional[float]:
    return statistics.fmean(samples) * 1000.0 if samples else None


def _overhead(samples: List[float], window: Summary, name: str) -> float:
    """Mean client round trip minus mean server-side runtime call."""
    client = _mean_ms(samples)
    calls = window.calls.get(name, 0)
    if client is None or not calls:
        return 0.0
    return client - window.busy_ms(name) / calls


def _stat_delta(before: Dict, after: Dict, *path: str) -> int:
    for key in path[:-1]:
        before = (before or {}).get(key) or {}
        after = (after or {}).get(key) or {}
    return int(after.get(path[-1], 0)) - int(before.get(path[-1], 0))


def _lane_skew(before: Dict, after: Dict) -> float:
    """max / mean of events routed per lane during the window."""
    old = {lane["lane"]: lane["events_routed"]
           for lane in before.get("lanes") or ()}
    routed = [lane["events_routed"] - old.get(lane["lane"], 0)
              for lane in after.get("lanes") or ()]
    if not routed or not sum(routed):
        return 0.0
    return max(routed) / statistics.fmean(routed)


def per_layer(traced, untraced) -> List[Tuple[str, float, str]]:
    """``(name, value, unit)`` for every entry of :data:`LAYER_METRICS`."""
    with open(traced.spans_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    start, end = traced.window_ns
    whole = Summary(payload, 0, end)
    window = Summary(payload, start, end)
    loops = traced.workload.loops
    writes = loops.get("ingest") or loops.get("write")
    reads = loops.get("read")
    fresh = loops.get("fresh_read")
    fresh_reads = len(fresh.samples) if fresh is not None else 0
    # Only the server's verdict calls made inside a fresh read's client
    # round trip count towards it, so the figures show where
    # fresh_read_p50_ms goes and not what other reads paid.
    under_fresh = under_roots(
        payload, "service.runtime.verdicts",
        [(int(start * 1e9), int(end * 1e9))
         for start, end in (fresh.intervals if fresh is not None else ())],
    )
    before, after = traced.stats_before, traced.stats_after
    hits = _stat_delta(before, after, "verdict_cache", "hits")
    misses = _stat_delta(before, after, "verdict_cache", "misses")
    seen = _stat_delta(before, after, "recorder", "seen")
    duplicates = _stat_delta(before, after, "recorder", "duplicates")
    relations = whole.values.get("capture.correlation.run", 0)
    selected = whole.child_values.get(
        ("store.select", "capture.correlation.run"), 0
    )
    transitions = whole.count("controls.materializer.transitions")
    base = untraced.workload
    primary = base.loops.get("ingest") or base.loops.get("read")
    untraced_reads = base.loops.get("read")
    values = {
        "service.http.ingest_overhead_ms": _overhead(
            writes.samples if writes else [], window,
            "service.runtime.ingest"),
        "service.http.read_overhead_ms": _overhead(
            reads.samples if reads else [], window,
            "service.runtime.verdicts"),
        "service.http.response_bytes": _ratio(
            untraced_reads.response_bytes, len(untraced_reads.samples)
        ) if untraced_reads is not None else 0.0,
        "service.runtime.ingest.calls": whole.calls.get(
            "service.runtime.ingest", 0),
        "service.runtime.ingest.busy_ms": whole.busy_ms(
            "service.runtime.ingest"),
        "service.runtime.ingest.self_ms": whole.self_ms(
            "service.runtime.ingest"),
        "service.runtime.verdicts.calls": whole.calls.get(
            "service.runtime.verdicts", 0),
        "service.runtime.verdicts.busy_ms": whole.busy_ms(
            "service.runtime.verdicts"),
        "service.runtime.verdict_cache_hit_ratio": _ratio(
            hits, hits + misses),
        "service.runtime.sync.calls": whole.calls.get(
            "service.runtime.sync", 0),
        "service.runtime.sync.busy_ms": whole.busy_ms("service.runtime.sync"),
        "service.runtime.open.ms": whole.busy_ms("service.runtime.open"),
        "service.runtime.open.self_ms": whole.self_ms("service.runtime.open"),
        "service.lanes.ingest.busy_ms": whole.busy_ms("service.lanes.ingest"),
        "service.lanes.skew": _lane_skew(before, after),
        "capture.recorder.process_all.self_ms": whole.self_ms(
            "capture.recorder.process_all"),
        "capture.recorder.dedup_hit_ratio": _ratio(duplicates, seen),
        "capture.correlation.run.calls": whole.calls.get(
            "capture.correlation.run", 0),
        "capture.correlation.run.busy_ms": whole.busy_ms(
            "capture.correlation.run"),
        "capture.correlation.run.relations": relations,
        "capture.correlation.pairs_considered_ratio": _ratio(
            whole.count("capture.correlation.pairs_considered"),
            whole.count("capture.correlation.pairs_naive")),
        "capture.correlation.rows_selected_per_relation": _ratio(
            selected, relations),
        "store.append.calls": whole.calls.get("store.append", 0),
        "store.append.self_ms": whole.self_ms("store.append"),
        "store.xml_encode.busy_ms": whole.busy_ms("store.xml_encode"),
        "store.columnar_encode.busy_ms": whole.busy_ms(
            "store.columnar_encode"),
        "store.sqlite.flush.calls": whole.calls.get("store.sqlite.flush", 0),
        "store.sqlite.flush.busy_ms": whole.busy_ms("store.sqlite.flush"),
        "store.sqlite.contains.calls": whole.count("store.sqlite.contains"),
        "store.sqlite.query_records.busy_ms": whole.busy_ms(
            "store.sqlite.query_records"),
        "store.sqlite.query_records.rows": whole.values.get(
            "store.sqlite.query_records", 0),
        "store.sync.busy_ms": whole.busy_ms("store.sync"),
        "store.sync.rows": whole.values.get("store.sync", 0),
        "store.records_by_trace_projected.calls": whole.calls.get(
            "store.records_by_trace_projected", 0),
        "store.rows_decoded": whole.count("store.rows_decoded"),
        "store.records_by_trace_projected.calls_per_fresh_read": _ratio(
            under_fresh.get("store.records_by_trace_projected", 0),
            fresh_reads),
        "store.rows_decoded_per_fresh_read": _ratio(
            under_fresh.get("store.rows_decoded", 0), fresh_reads),
        "store.rows_decoded_per_cache_miss": _ratio(
            window.count("store.rows_decoded", "service.runtime.verdicts"),
            misses),
        "controls.materializer.refresh.busy_ms": whole.busy_ms(
            "controls.materializer.refresh"),
        "controls.materializer.sweep.busy_ms": whole.busy_ms(
            "controls.materializer.sweep"),
        "controls.materializer.restore.busy_ms": whole.busy_ms(
            "controls.materializer.restore"),
        "controls.materializer.stale_pairs": transitions,
        "controls.materializer.changed_ratio": _ratio(
            whole.count("controls.materializer.changed"), transitions),
        "controls.evaluator.prime_frames.busy_ms": whole.busy_ms(
            "controls.evaluator.prime_frames"),
        "controls.evaluator.graph_builds": whole.count(
            "controls.evaluator.graph_builds"),
        "brms.engine.evaluate.calls": whole.calls.get(
            "brms.engine.evaluate", 0),
        "brms.engine.evaluate.busy_ms": whole.busy_ms("brms.engine.evaluate"),
        "service.process.cpu_ms_per_op": _ratio(
            untraced.cpu_s * 1000.0, len(primary.samples)),
    }
    return [(name, float(values[name]), unit)
            for name, (unit, __) in LAYER_METRICS.items()]
