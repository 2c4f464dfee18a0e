"""Materialized compliance verdicts — the incremental evaluation core.

§II.A promises that a deployed control "emits results in real-time"; the
run-time-compliance literature frames that as maintaining a *verdict state*
under event arrival rather than recomputing it by sweeps.  The
:class:`VerdictMaterializer` is that state: a materialized
``(control, trace) → ComplianceResult`` table kept current by dirty-pair
tracking driven from store appends (via the store's change feed / observer
fan-out), so that one appended record costs O(affected trace) — never
O(store).

Every existing evaluation style is a *view* over this one table:

- **batch sweep** (:meth:`ComplianceEvaluator.run <repro.controls.
  evaluator.ComplianceEvaluator.run>`) — :meth:`sweep`: drain the dirty
  pairs, then read the whole table in canonical (trace, control) order,
- **on-demand check** (``check_trace``) — :meth:`check`: a targeted
  refresh of one pair,
- **deployed controls** (:class:`~repro.controls.deployment.
  ControlDeployment`) — :meth:`refresh` after appends, with per-control
  *relevance* filters deciding which appends dirty which controls, and
  listeners receiving each refreshed verdict as a
  :class:`VerdictTransition` delta.

Because a clean pair's stored verdict is exactly what re-evaluating the
unchanged trace would produce (evaluation is deterministic and
``checked_at`` is a function of the trace), the table stays byte-identical
to a cold full sweep — the differential interleaving suite asserts this.

Snapshots: :meth:`save` persists the table plus the feed cursor as backend
auxiliary state keyed by a fingerprint of the registered controls;
:meth:`restore` reloads it and replays ``changes_since(cursor)`` to mark
exactly the traces touched while the snapshot was cold.  On SQLite this
survives close/reopen, so ``check --incremental`` against a ``--db`` only
re-evaluates what changed since the last run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.controls.control import InternalControl
from repro.controls.status import ComplianceResult, ComplianceStatus
from repro.errors import StoreError
from repro.faults.points import crash_point
from repro.model.records import ProvenanceRecord, RelationRecord
from repro.store.cursor import (
    cursor_covers,
    cursor_from_wire,
    cursor_to_wire,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.controls.evaluator import ComplianceEvaluator

#: Version tag of the snapshot wire format.
_SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class VerdictTransition:
    """One verdict delta: a (control, trace) pair got a fresh result.

    ``previous`` is the status the pair held before this refresh (``None``
    for the first materialization).  ``changed`` distinguishes actual
    status flips — what dashboards and audit logs care about — from
    re-confirmations of the same status on new evidence.
    """

    result: ComplianceResult
    previous: Optional[ComplianceStatus]

    @property
    def control_name(self) -> str:
        return self.result.control_name

    @property
    def trace_id(self) -> str:
        return self.result.trace_id

    @property
    def status(self) -> ComplianceStatus:
        return self.result.status

    @property
    def changed(self) -> bool:
        return self.previous is not self.result.status

    def describe(self) -> str:
        """One line: ``gm-approval @ App10: violated -> satisfied``."""
        before = self.previous.value if self.previous else "(new)"
        return (
            f"{self.control_name} @ {self.trace_id}: "
            f"{before} -> {self.status.value}"
        )


TransitionListener = Callable[[VerdictTransition], None]
IgnorePredicate = Callable[[ProvenanceRecord], bool]


class VerdictMaterializer:
    """Maintains the materialized (control, trace) verdict table.

    Args:
        evaluator: the :class:`~repro.controls.evaluator.
            ComplianceEvaluator` whose raw ``evaluate_pair`` computes
            verdicts; the materializer subscribes to its store.
        ignore: optional predicate; records it accepts never dirty
            anything (deployments use it to skip their own binder's
            control-point rows).
    """

    def __init__(
        self,
        evaluator: "ComplianceEvaluator",
        ignore: Optional[IgnorePredicate] = None,
    ) -> None:
        self.evaluator = evaluator
        self.store = evaluator.store
        self.ignore = ignore
        self._controls: Dict[str, InternalControl] = {}
        # Per control: node types whose arrival dirties it; None = every
        # record of the trace does (the exact-sweep-parity default).
        self._relevance: Dict[str, Optional[Set[str]]] = {}
        self._verdicts: Dict[Tuple[str, str], ComplianceResult] = {}
        # Dirty (control, trace) pairs in first-marked order (dict keys:
        # deduped and FIFO, like the deployment's old tracking).
        self._dirty: Dict[Tuple[str, str], None] = {}
        self._listeners: List[TransitionListener] = []
        #: change-feed cursor: the store seq already folded into the table
        #: or the dirty set.
        self.cursor = self.store.last_seq()
        #: (control, trace) evaluations actually run.
        self.refreshes = 0
        #: monotonic transition epoch: bumped whenever the materialized
        #: view (or what it would answer) may have changed — new verdicts,
        #: freshly dirtied pairs, registry changes, snapshot restores.
        #: Read caches key on it to detect staleness without locking.
        self.epoch = 0
        self.store.subscribe(self._on_append)

    # -- control registry ----------------------------------------------------

    def register(
        self,
        control: InternalControl,
        relevant_types: Optional[Set[str]] = None,
    ) -> bool:
        """Track *control*; marks every known trace dirty for it.

        Registering the identical control object again is a no-op (so
        repeated sweeps over the same control set stay incremental); a
        *different* control under the same name replaces it and forces a
        full re-materialization of that control's column.  Returns whether
        anything new was registered.
        """
        existing = self._controls.get(control.name)
        if existing is control:
            if relevant_types is not None:
                self._relevance[control.name] = set(relevant_types)
            return False
        self._controls[control.name] = control
        self._relevance[control.name] = (
            set(relevant_types) if relevant_types is not None else None
        )
        for trace_id in self.store.app_ids():
            self._dirty.setdefault((control.name, trace_id))
        self.epoch += 1
        return True

    def unregister(self, name: str) -> None:
        """Stop tracking a control.  Its materialized verdicts remain
        readable, but dirty pairs for it are skipped at refresh time."""
        self._controls.pop(name, None)
        self._relevance.pop(name, None)
        self.epoch += 1

    def registered(self, name: str) -> bool:
        return name in self._controls

    @property
    def controls(self) -> List[InternalControl]:
        return list(self._controls.values())

    # -- reads ---------------------------------------------------------------

    def latest(
        self, control_name: str, trace_id: str
    ) -> Optional[ComplianceResult]:
        """The materialized verdict of one pair (may be pending-dirty)."""
        return self._verdicts.get((control_name, trace_id))

    def all_latest(self) -> List[ComplianceResult]:
        """Every materialized verdict, in first-materialized order."""
        return list(self._verdicts.values())

    @property
    def dirty_count(self) -> int:
        """How many (control, trace) pairs await a refresh."""
        return len(self._dirty)

    def dirty_traces(self) -> List[str]:
        """Distinct trace ids with at least one dirty pair, FIFO order."""
        seen: Dict[str, None] = {}
        for __, trace_id in self._dirty:
            seen.setdefault(trace_id)
        return list(seen)

    def dirty_traces_by_shard(self) -> Dict[int, List[str]]:
        """Dirty traces grouped by home shard (FIFO within each shard).

        The scatter-gather view of the dirty set: each shard's list is an
        independent work unit — its traces share a partition and nothing
        outside it.  Unsharded stores report everything under shard 0.
        """
        grouped: Dict[int, List[str]] = {}
        for trace_id in self.dirty_traces():
            grouped.setdefault(
                self.store.shard_index(trace_id), []
            ).append(trace_id)
        return grouped

    # -- listeners -----------------------------------------------------------

    def subscribe(self, listener: TransitionListener) -> None:
        """Receive a :class:`VerdictTransition` for every refreshed pair."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: TransitionListener) -> None:
        self._listeners.remove(listener)

    # -- dirty tracking ------------------------------------------------------

    def _on_append(self, record: ProvenanceRecord) -> None:
        # Store observers fire once per commit, in order, so the store's
        # cursor at this moment is exactly this record's seq.
        self.cursor = self.store.last_seq()
        self.epoch += 1
        if self.ignore is not None and self.ignore(record):
            return
        for name in self._controls:
            if self._is_relevant(name, record):
                self._dirty.setdefault((name, record.app_id))

    def _is_relevant(self, name: str, record: ProvenanceRecord) -> bool:
        types = self._relevance.get(name)
        if types is None:
            return True
        if isinstance(record, RelationRecord):
            # A new edge can complete a control's subgraph even though its
            # endpoints arrived earlier.
            for node_id in (record.source_id, record.target_id):
                if node_id in self.store:
                    if self.store.get(node_id).entity_type in types:
                        return True
            return False
        return record.entity_type in types

    def mark(self, control_name: str, trace_id: str) -> None:
        """Explicitly dirty one pair (forces re-evaluation on refresh)."""
        self._dirty.setdefault((control_name, trace_id))
        self.epoch += 1

    def invalidate_all(self) -> None:
        """Dirty every (registered control, known trace) pair."""
        for trace_id in self.store.app_ids():
            for name in self._controls:
                self._dirty.setdefault((name, trace_id))
        self.epoch += 1

    # -- refresh -------------------------------------------------------------

    def _refresh_pair(
        self, control: InternalControl, trace_id: str
    ) -> ComplianceResult:
        self.refreshes += 1
        try:
            result = self.evaluator.evaluate_pair(control, trace_id)
        except StoreError as exc:
            # The trace's evidence could not be read — e.g. a row
            # tampered with at rest failed to decode.  An integrity
            # failure must surface as an explicit verdict (and a
            # transition, so deployed listeners hear about it), never as
            # a silent skip or a crashed sweep.
            result = ComplianceResult(
                control_name=control.name,
                trace_id=trace_id,
                status=ComplianceStatus.ERROR,
                alerts=[f"evaluation failed: {exc}"],
            )
        self._store_result(result)
        return result

    def _store_result(self, result: ComplianceResult) -> None:
        key = (result.control_name, result.trace_id)
        previous = self._verdicts.get(key)
        self._verdicts[key] = result
        self.epoch += 1
        transition = VerdictTransition(
            result=result,
            previous=previous.status if previous is not None else None,
        )
        for listener in list(self._listeners):
            listener(transition)

    def refresh(self) -> List[ComplianceResult]:
        """Evaluate every dirty pair once, in first-marked order.

        Pairs whose control was unregistered while dirty are skipped (and
        forgotten).  This is the deployed-controls drain: a burst of
        records for one trace costs one evaluation per affected control,
        not one per record.
        """
        pending, self._dirty = list(self._dirty), {}
        results = []
        for control_name, trace_id in pending:
            control = self._controls.get(control_name)
            if control is None:
                continue
            results.append(self._refresh_pair(control, trace_id))
        return results

    def check(
        self, control: InternalControl, trace_id: str
    ) -> ComplianceResult:
        """Targeted refresh of one pair; memoized while the trace is clean.

        Registers the control (so future appends dirty the pair) and
        evaluates only if the pair is dirty or was never materialized —
        otherwise the stored verdict is returned, which on an unchanged
        trace is exactly what re-evaluating would produce.
        """
        self.register(control)
        key = (control.name, trace_id)
        if key in self._dirty:
            del self._dirty[key]
            return self._refresh_pair(control, trace_id)
        cached = self._verdicts.get(key)
        if cached is not None:
            return cached
        return self._refresh_pair(control, trace_id)

    def sweep(
        self,
        controls: Sequence[InternalControl],
        trace_ids: Optional[Iterable[str]] = None,
    ) -> List[ComplianceResult]:
        """The batch view: refresh what is stale, then read the table.

        Returns one row per (trace, control) in canonical sweep order —
        traces in first-seen order (or the *trace_ids* given), controls in
        the order passed — byte-identical to a cold full sweep.  Only
        dirty pairs are evaluated.
        """
        for control in controls:
            self.register(control)
        ids = (
            list(trace_ids)
            if trace_ids is not None
            else self.store.app_ids()
        )
        names = [control.name for control in controls]
        stale: List[Tuple[InternalControl, str]] = []
        for trace_id in ids:
            for control in controls:
                key = (control.name, trace_id)
                if key in self._dirty or key not in self._verdicts:
                    stale.append((control, trace_id))
        for control, trace_id in stale:
            self._dirty.pop((control.name, trace_id), None)
        if stale:
            try:
                self.evaluator.prime_frames(
                    list(dict.fromkeys(t for __, t in stale)),
                    controls=controls,
                )
            except StoreError:
                # An unreadable row anywhere poisons the shared scan;
                # fall through to per-pair refreshes, which confine the
                # failure to the affected trace's verdicts.
                pass
            for control, trace_id in stale:
                self._refresh_pair(control, trace_id)
        # Dirty pairs of controls outside this sweep's set stay dirty; the
        # assembled view reads only the columns asked for.
        return [
            self._verdicts[(name, trace_id)]
            for trace_id in ids
            for name in names
        ]

    # -- snapshots -----------------------------------------------------------

    def fingerprint(self) -> str:
        """Identity of the materialized state: which controls, which rules.

        Two materializers with the same fingerprint would compute the same
        table over the same rows, so a snapshot saved by one is safe for
        the other.  Controls are fingerprinted by name, BAL source, and
        bound parameter defaults; the evaluator's observable-types
        configuration is included because it changes verdicts.
        """
        observable = self.evaluator.observable_types
        basis = {
            "controls": sorted(
                (
                    control.name,
                    control.source,
                    sorted(
                        (k, repr(v))
                        for k, v in control.parameter_defaults.items()
                    ),
                )
                for control in self._controls.values()
            ),
            "observable": (
                sorted(observable) if observable is not None else None
            ),
        }
        digest = hashlib.sha256(
            json.dumps(basis, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def _state_key(self) -> str:
        return f"verdicts:{self.fingerprint()}"

    def save(self) -> None:
        """Persist the table + cursor as backend auxiliary state.

        Dirty pairs are refreshed first so the snapshot is internally
        consistent: every saved verdict is current as of the saved cursor.
        """
        self.refresh()
        crash_point("materializer.save.mid_snapshot")
        payload = json.dumps(
            {
                "version": _SNAPSHOT_VERSION,
                "cursor": cursor_to_wire(self.cursor),
                "verdicts": [
                    result.to_payload()
                    for result in self._verdicts.values()
                ],
            }
        )
        self.store.save_state(self._state_key(), payload)

    def restore(self) -> bool:
        """Reload a snapshot and catch up through the change feed.

        Returns False (leaving state untouched) when the backend has no
        snapshot for the current control set.  On success the verdicts and
        cursor are adopted, and every trace appended to after the snapshot
        cursor is marked dirty for every registered control — so the next
        refresh/sweep re-evaluates exactly the rows the snapshot missed,
        never the whole store.

        Call after :meth:`register`-ing the control set (the snapshot key
        depends on it) and before new appends arrive through this handle.
        """
        raw = self.store.load_state(self._state_key())
        if raw is None:
            return False
        snapshot = json.loads(raw)
        if snapshot.get("version") != _SNAPSHOT_VERSION:
            return False
        snap_cursor = cursor_from_wire(snapshot["cursor"])
        if not cursor_covers(self.store.last_seq(), snap_cursor):
            # The snapshot describes rows the store no longer holds — a
            # crash made the aux-state write outlive the row suffix it
            # summarized — or was taken under a different shard layout.
            # Its verdicts may cite vanished evidence, so the only safe
            # answer is a cold re-materialization.  Pre-sharding int
            # cursors compare fine against a single-shard vector (the
            # N=1 degenerate case), so old snapshots keep restoring.
            return False
        crash_point("materializer.restore.mid_restore")
        for entry in snapshot["verdicts"]:
            result = ComplianceResult.from_payload(entry)
            self._verdicts[(result.control_name, result.trace_id)] = result
        touched: Dict[str, None] = {}
        for __, record in self.store.changes_since(snap_cursor):
            touched.setdefault(record.app_id)
        for trace_id in touched:
            for name in self._controls:
                self._dirty.setdefault((name, trace_id))
        self.cursor = self.store.last_seq()
        # Traces the snapshot knew were dirtied at registration time; their
        # saved verdicts are current, so only snapshot-missed traces stay
        # dirty.
        for key in list(self._dirty):
            if key[1] not in touched and key in self._verdicts:
                del self._dirty[key]
        self.epoch += 1
        return True
