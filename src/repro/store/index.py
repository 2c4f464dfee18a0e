"""Secondary indexes for the provenance store.

The physical table only groups rows by position; the queries the control
evaluator issues ("the Data records of type ``jobrequisition`` in trace
``App01``", "relations whose source is PE3") need faster access paths.  The
index maintains hash maps over class, APPID, entity type, and relation
endpoints.

Indexing is an optimization layer: the store works with indexes disabled
(every query falls back to a scan), which experiment E8 uses to quantify the
speedup.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.model.records import ProvenanceRecord, RecordClass, RelationRecord


class StoreIndex:
    """Hash indexes over the records of one store."""

    def __init__(self) -> None:
        self._by_class: Dict[RecordClass, List[str]] = defaultdict(list)
        self._by_app: Dict[str, List[str]] = defaultdict(list)
        self._by_type: Dict[str, List[str]] = defaultdict(list)
        self._by_app_class: Dict[Tuple[str, RecordClass], List[str]] = (
            defaultdict(list)
        )
        self._by_source: Dict[str, List[str]] = defaultdict(list)
        self._by_target: Dict[str, List[str]] = defaultdict(list)

    def rebuild(self, records: "Iterable[ProvenanceRecord]") -> int:
        """Re-index from scratch over *records* (in append order).

        Used when a store opens over a storage backend that already holds
        rows — e.g. a SQLite file written by an earlier run — so that the
        hydrated indexes are indistinguishable from freshly-built ones.
        Returns the number of records indexed.
        """
        self._by_class.clear()
        self._by_app.clear()
        self._by_type.clear()
        self._by_app_class.clear()
        self._by_source.clear()
        self._by_target.clear()
        count = 0
        for record in records:
            self.add(record)
            count += 1
        return count

    def add(self, record: ProvenanceRecord) -> None:
        """Index one appended record."""
        rid = record.record_id
        self._by_class[record.record_class].append(rid)
        self._by_app[record.app_id].append(rid)
        self._by_type[record.entity_type].append(rid)
        self._by_app_class[(record.app_id, record.record_class)].append(rid)
        if isinstance(record, RelationRecord):
            self._by_source[record.source_id].append(rid)
            self._by_target[record.target_id].append(rid)

    # -- lookups (each returns ids in append order) --------------------------

    def by_class(self, record_class: RecordClass) -> List[str]:
        return list(self._by_class.get(record_class, ()))

    def by_app(self, app_id: str) -> List[str]:
        return list(self._by_app.get(app_id, ()))

    def by_type(self, entity_type: str) -> List[str]:
        return list(self._by_type.get(entity_type, ()))

    def by_app_class(
        self, app_id: str, record_class: RecordClass
    ) -> List[str]:
        return list(self._by_app_class.get((app_id, record_class), ()))

    def relations_from(self, source_id: str) -> List[str]:
        return list(self._by_source.get(source_id, ()))

    def relations_to(self, target_id: str) -> List[str]:
        return list(self._by_target.get(target_id, ()))

    def has_app(self, app_id: str) -> bool:
        """Whether any record of trace *app_id* has been indexed."""
        return app_id in self._by_app

    def app_ids(self) -> List[str]:
        """All distinct application ids, in first-seen order."""
        return list(self._by_app.keys())
