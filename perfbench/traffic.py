"""Seeded inputs for the benchmark workloads.

Every workload's traffic comes from **one** process simulation per seed:
the preload, the live stream, the held-back late tails and the re-sent
batches are all cut from the same set of cases.  Two separate simulations
would both start at ``App01`` and reuse event ids, so the second would be
silently deduplicated by the recorder.  The server only ever receives the
generated events; the seed never reaches it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Set

from repro.processes import hiring
from repro.processes.engine import CaseRun, ProcessSimulator
from repro.processes.violations import ViolationPlan

#: injection probability per violation kind, so every control has both
#: satisfied and violated traces to report.
VIOLATION_RATE = 0.2


def simulate(cases: int, seed: int) -> List[CaseRun]:
    """The seed's one simulation of *cases* hiring cases."""
    bundle = hiring.workload()
    plan = ViolationPlan.uniform(list(hiring.VIOLATION_KINDS), VIOLATION_RATE)
    simulator = ProcessSimulator(
        bundle.build_spec(), bundle.case_factory(plan), seed=seed
    )
    return simulator.run(cases)


def interleave(runs: Sequence[CaseRun], window: int, rng: random.Random):
    """Events of *runs* with up to *window* cases open at once.

    Each step emits the next event of a randomly chosen open case, so the
    cases' events interleave while each case keeps its own order; a case
    that runs out of events is replaced by the next unopened one.
    """
    pending = deque(runs)
    open_cases: List[List] = []
    stream = []
    while pending or open_cases:
        while pending and len(open_cases) < window:
            open_cases.append([pending.popleft().events, 0])
        slot = rng.randrange(len(open_cases))
        case = open_cases[slot]
        stream.append(case[0][case[1]])
        case[1] += 1
        if case[1] == len(case[0]):
            open_cases[slot] = open_cases[-1]
            open_cases.pop()
    return stream


def batches_of(events: Sequence, size: int) -> List[List]:
    return [list(events[i:i + size]) for i in range(0, len(events), size)]


@dataclass
class IngestTraffic:
    """Per connection: its batches and which of them are re-sent."""

    streams: List[List[List]]
    resend: List[List[bool]]


def ingest_traffic(
    seed: int,
    cases: int,
    connections: int = 2,
    window: int = 32,
    batch: int = 10,
    resend_share: float = 0.10,
) -> IngestTraffic:
    """New hiring traces, interleaved, split by case across connections.

    A case belongs to exactly one connection, so per-trace order survives
    two concurrent senders.  A seeded ~10% of batches are sent twice in a
    row (at-least-once delivery); the second copy must come back as all
    duplicates.
    """
    rng = random.Random(seed)
    runs = simulate(cases, seed)
    streams, resend = [], []
    for connection in range(connections):
        own = runs[connection::connections]
        stream = batches_of(
            interleave(own, window // connections, rng), batch
        )
        streams.append(stream)
        resend.append([rng.random() < resend_share for __ in stream])
    return IngestTraffic(streams=streams, resend=resend)


@dataclass
class AuditTraffic:
    """Preloaded traces, and the late tails held back from them."""

    preload: List
    late_batches: List[List]
    traces: List[str]
    #: traces whose tail was held back
    held: Set[str]


def audit_traffic(
    seed: int,
    cases: int,
    held_share: float = 0.8,
    batch: int = 10,
) -> AuditTraffic:
    """Hiring traces with the last 1-3 events of a seeded share held back.

    The held-back tails are shuffled and packed, whole, into late batches
    of at most *batch* events, so each late batch touches several
    preloaded traces and never splits one trace's tail.
    """
    rng = random.Random(seed)
    runs = simulate(cases, seed)
    preload, tails = [], []
    for run in runs:
        held = 0
        if len(run.events) > 1 and rng.random() < held_share:
            held = min(rng.randint(1, 3), len(run.events) - 1)
        cut = len(run.events) - held
        preload.extend(run.events[:cut])
        if held:
            tails.append((run.app_id, run.events[cut:]))
    rng.shuffle(tails)
    late_batches: List[List] = []
    current: List = []
    held: Set[str] = set()
    for app_id, tail in tails:
        if current and len(current) + len(tail) > batch:
            late_batches.append(current)
            current = []
        current.extend(tail)
        held.add(app_id)
    if current:
        late_batches.append(current)
    return AuditTraffic(
        preload=preload,
        late_batches=late_batches,
        traces=[run.app_id for run in runs],
        held=held,
    )
