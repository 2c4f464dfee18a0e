"""Named crash points, threaded through the hot paths as no-ops.

A crash point is one line at a place where a real process death would
leave interesting state behind::

    crash_point("store.append.after_commit_before_index")

With no plan active (the default, i.e. production and every ordinary
test) the call is a module-global ``None`` check — nothing is computed,
nothing can raise.  Under :func:`active_plan` the point is reported to
the :class:`~repro.faults.plan.FaultPlan`, which may kill the run with
:class:`~repro.faults.plan.SimulatedCrash`.

The registry of points that exist today (grep for ``crash_point(`` to
re-derive the list):

==========================================  =================================
point                                       site
==========================================  =================================
``store.append.before_commit``              append validated, row not yet
                                            handed to the backend
``store.append.after_commit_before_index``  row in the backend, secondary
                                            indexes/observers not yet run
``store.bulk.enter`` / ``store.bulk.exit``  bulk-section boundaries
``store.flush`` / ``store.close``           durability boundaries
``sqlite.flush.before_commit``              rows inserted, transaction not
                                            yet committed (must roll back)
``sqlite.flush.after_commit``               transaction committed, pending
                                            buffer not yet cleared
``sharded.flush.shard<i>``                  shards < i flushed, shard i and
                                            later still staged
``sharded.append.shard<i>``                 row routed to shard i, not yet
                                            handed to it; also a service
                                            ingest lane's batch for shard
                                            i (shard 0 on a plain store),
                                            before any of it lands
``materializer.save.mid_snapshot``          dirty pairs refreshed, snapshot
                                            not yet written
``materializer.restore.mid_restore``        snapshot loaded, catch-up not
                                            yet marked
==========================================  =================================
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.faults.plan import FaultPlan

#: the plan crash points report to; ``None`` (the default) disables them.
_ACTIVE: Optional[FaultPlan] = None


def crash_point(point: str) -> None:
    """Report reaching *point* to the active plan (no-op when none)."""
    plan = _ACTIVE
    if plan is not None:
        plan.reached_point(point)


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate *plan* for every crash point in this process.

    Nested activation is rejected: two plans racing for the same points
    would make replay ambiguous.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
