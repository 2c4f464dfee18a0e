"""One measured pass of a workload against a served runtime.

The pass sets the workload's store up (untimed), starts the server
``workload.setups`` times on fresh copies of that store to time set-up,
drives the last server for the measured window, reads the server's
counters and resources, shuts it down gracefully and runs the
served-versus-cold-sweep parity gate on the files it left behind.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from drive import Server, disk_bytes
from workloads import Workload, cold_sweep


@dataclass
class PassResult:
    """What one pass measured; its checks' failures are on the workload."""

    workload: Workload
    setups: List[float]
    window_ns: tuple
    cpu_s: float
    peak_rss_mb: float
    disk_bytes: int
    stats_before: Dict
    stats_after: Dict
    spans_path: Optional[str] = None


def run_pass(
    workload: Workload,
    workdir: str,
    traced: bool = False,
    setups: Optional[int] = None,
) -> PassResult:
    pristine = os.path.join(workdir, "pristine")
    os.makedirs(pristine)
    workload.prepare(pristine, workdir)
    setups = setups or workload.setups
    setup_s: List[float] = []
    spans_path = os.path.join(workdir, "spans.json") if traced else None
    server = None
    try:
        for attempt in range(setups):
            last = attempt == setups - 1
            run_dir = os.path.join(workdir, f"run{attempt}")
            shutil.copytree(pristine, run_dir)
            server = Server(
                workload.serve_args(run_dir),
                os.path.join(workdir, f"server{attempt}.log"),
                trace_out=spans_path if last else None,
            )
            setup_s.append(server.setup_s)
            if not last:
                server.shutdown()
                server = None
                shutil.rmtree(run_dir)
        workload.warm(server)
        probe = server.transport()
        stats_before = probe.stats()
        probe.close()
        cpu_before = server.cpu_s()
        # The generator's own collector pauses are not the server's
        # latency; parsed replies hold no cycles, so refcounting frees them.
        gc.collect()
        gc.disable()
        try:
            window_start = time.perf_counter_ns()
            workload.drive(server, time.perf_counter() + workload.seconds)
            window_end = time.perf_counter_ns()
        finally:
            gc.enable()
        cpu_s = server.cpu_s() - cpu_before
        peak_rss_mb = workload.peak_rss_mb or server.peak_rss_mb()
        probe = server.transport()
        try:
            stats_after = probe.stats()
            probe.sync()
            served = probe.verdicts()
        finally:
            probe.close()
        server.shutdown()
        server = None
    finally:
        if server is not None:
            server.close()
    files = workload.shard_files(run_dir)
    cold = cold_sweep(workload.module, files)
    if json.dumps(served) != json.dumps(cold):
        workload.problems.append(
            "served verdicts differ from a cold sweep of the same files"
        )
    workload.check_reads(cold)
    return PassResult(
        workload=workload,
        setups=setup_s,
        window_ns=(window_start, window_end),
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        disk_bytes=disk_bytes(files),
        stats_before=stats_before,
        stats_after=stats_after,
        spans_path=spans_path,
    )
