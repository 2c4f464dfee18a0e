"""Metrics, report lines and the result record of one benchmark run."""

from __future__ import annotations

import json
import os
import platform
import shutil
import sqlite3
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

import layers
import spec
from drive import BenchError
from measure import PassResult, run_pass
from repro.service import TransportError
from workloads import WORKLOADS, ResponseBytes, percentile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STATE = os.path.join(_ROOT, ".perfbench")

#: ``name -> (unit, better)`` of the end-to-end metrics every workload
#: reports
END_TO_END = spec.metrics("end_to_end")

Row = Tuple[str, Optional[float], str, int]


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1000.0


def end_to_end(result: PassResult) -> Dict[str, Optional[float]]:
    """The ``BENCHMARK.json`` end-to-end metrics; ops are the workload's
    primary loop (ingest batches, or verdict reads).

    Op latency is gated as a mean: the backfill mix is four request kinds
    of very different cost, and its full-table reads alternate between
    two modes as the server's collector runs, so any fixed percentile can
    sit on a boundary between modes and jump from run to run.  The
    report lines carry the medians and high percentiles.
    """
    workload = result.workload
    primary = workload.loops[workload.primary]
    values = {
        "setup_s": statistics.median(result.setups),
        "op_mean_ms": _ms(statistics.fmean(primary.samples))
        if primary.samples else None,
        "ops_per_s": primary.rate(),
        "peak_rss_mb": result.peak_rss_mb,
        "disk_bytes_per_event": (
            result.disk_bytes / max(1, workload.events_recorded)
        ),
    }
    if set(values) != set(END_TO_END):
        raise BenchError(
            "measured end-to-end metrics and BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(END_TO_END))}"
        )
    return {name: values[name] for name in END_TO_END}


def named_metrics(result: PassResult, e2e: Dict) -> List[Row]:
    """Every named end-to-end metric the workload's traffic produces."""
    workload = result.workload
    loops = workload.loops
    rows: List[Row] = [("setup_s", e2e["setup_s"], "s", len(result.setups))]
    writes = loops.get("ingest") or loops.get("write")
    if writes is not None:
        n = len(writes.samples)
        if workload.name == "ingest":
            rows.append((
                "ingest_events_per_s",
                writes.rate(count=workload.events_sent), "1/s",
                workload.events_sent,
            ))
        rows.append(("ingest_p50_ms", _ms(percentile(writes.samples, 0.5)),
                     "ms", n))
        rows.append(("ingest_p99_ms", _ms(percentile(writes.samples, 0.99)),
                     "ms", n))
    reads = loops.get("read")
    if reads is not None:
        n = len(reads.samples)
        rows.append(("read_p50_ms", _ms(percentile(reads.samples, 0.5)),
                     "ms", n))
        rows.append(("read_p99_ms", _ms(percentile(reads.samples, 0.99)),
                     "ms", n))
        rows.append(("reads_per_s", reads.rate(), "1/s", n))
    fresh = loops.get("fresh_read")
    if fresh is not None:
        n = len(fresh.samples)
        rows.append(("fresh_read_p50_ms",
                     _ms(percentile(fresh.samples, 0.5)), "ms", n))
        rows.append(("fresh_read_p90_ms",
                     _ms(percentile(fresh.samples, 0.9)), "ms", n))
    attempted, failed = attempts(result)
    rows += [
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1),
        ("disk_bytes_per_event", e2e["disk_bytes_per_event"], "B",
         workload.events_recorded),
        ("failed_ratio", failed / max(1, attempted), "ratio", attempted),
    ]
    return rows


def attempts(result: PassResult) -> Tuple[int, int]:
    """Operations attempted and failed over every connection."""
    loops = result.workload.loops.values()
    return (sum(loop.attempted for loop in loops),
            sum(loop.failed for loop in loops))


def manifest(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    """What a number needs to be replayed: versions, CPUs, inputs."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def _print_rows(title: str, rows: List[Row]) -> None:
    print(title)
    for name, value, unit, samples in rows:
        print(f"  {name:<48} {_fmt(value):>12} {unit:<6} n={samples}")


def run(workload_name: str, seed: int, seconds: float, trace: int) -> int:
    if workload_name not in WORKLOADS:
        print(f"perfbench: unknown workload {workload_name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    record: Dict = {"manifest": manifest(workload_name, seed, seconds, trace)}
    stamp = f"{workload_name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir = os.path.join(_STATE, "work", stamp)
    os.makedirs(workdir)
    workload = WORKLOADS[workload_name]
    traced = layer_rows = None
    ResponseBytes.install()
    # A traced run starts each pass's server once: set-up medians are not
    # its output, and the two passes must fit the run's time limit.
    setups = 1 if trace else None
    try:
        untraced = run_pass(workload(seed, seconds),
                            os.path.join(workdir, "untraced"), setups=setups)
        if trace:
            # Same seed, same inputs, now with spans in the server.
            traced = run_pass(workload(seed, seconds),
                              os.path.join(workdir, "traced"),
                              traced=True, setups=setups)
            layer_rows = layers.per_layer(traced, untraced)
    except (BenchError, TransportError, OSError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        ResponseBytes.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(untraced)
    rows = named_metrics(untraced, e2e)
    _print_rows(f"{workload_name} (seed {seed}, {seconds:g}s window)", rows)
    record.update(end_to_end=e2e, report=rows)
    passes = [untraced] if traced is None else [untraced, traced]
    metrics = e2e
    units = {name: unit for name, (unit, __) in END_TO_END.items()}
    if traced is not None:
        print("per-layer (traced run; the metric and workload it should "
              "move)")
        for name, value, unit in layer_rows:
            print(f"  {name:<56} {_fmt(value):>12} {unit:<6} "
                  f"-> {layers.MOVES[name]}")
        traced_e2e = end_to_end(traced)
        overhead = [
            (name, None if None in (value, traced_e2e[name])
             else traced_e2e[name] - value, units[name], 1)
            for name, value in e2e.items()
        ]
        _print_rows("tracing overhead (traced minus untraced)", overhead)
        metrics = {name: value for name, value, __ in layer_rows}
        units = {name: unit for name, __, unit in layer_rows}
        record.update(per_layer=metrics, tracing_overhead=overhead)
    problems = [problem for result in passes
                for problem in result.workload.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    record["problems"] = problems
    os.makedirs(os.path.join(_STATE, "results"), exist_ok=True)
    path = os.path.join(
        _STATE, "results",
        time.strftime("%Y%m%dT%H%M%SZ-", time.gmtime()) + stamp + ".json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    missing = [name for name, value in metrics.items() if value is None]
    if missing:
        print(f"perfbench: too few samples for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    totals = [attempts(result) for result in passes]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(attempted for attempted, __ in totals),
        "failed": sum(failed for __, failed in totals),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0
