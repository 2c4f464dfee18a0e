"""Secondary indexes for the provenance store.

The paper's Table I has two columns a query can key on: ``APPID`` (which
trace a row belongs to) and ``CLASS``.  The index keeps one hash map over
each, from column value to row ids in append order.  APPID → ids gives
the trace order (:meth:`StoreIndex.app_ids`) and answers "have we seen
this trace"; CLASS → ids serves :meth:`ProvenanceStore.record_ids
<repro.store.store.ProvenanceStore.record_ids>`.

Both maps read only a row's ``ID``, ``CLASS`` and ``APPID`` — fields a
:class:`~repro.store.xmlcodec.StoredRow` and a decoded record share — so
opening a store over a populated backend hydrates the index from the
physical rows without decoding any XML.

Indexing is an optimization layer: the store works with indexes disabled
(every query falls back to a scan), which experiment E8 uses to quantify the
speedup.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Union

from repro.model.records import ProvenanceRecord, RecordClass
from repro.store.xmlcodec import StoredRow

#: anything carrying Table I's ``record_id``, ``record_class`` and ``app_id``.
Indexable = Union[StoredRow, ProvenanceRecord]


class StoreIndex:
    """APPID and CLASS hash indexes over the rows of one store."""

    def __init__(self) -> None:
        self._by_class: Dict[RecordClass, List[str]] = defaultdict(list)
        self._by_app: Dict[str, List[str]] = defaultdict(list)

    def rebuild(self, rows: Iterable[Indexable]) -> int:
        """Re-index from scratch over *rows* (in append order).

        Used when a store opens over a storage backend that already holds
        rows — e.g. a SQLite file written by an earlier run — so that the
        hydrated indexes are indistinguishable from freshly-built ones.
        Returns the number of rows indexed.
        """
        self._by_class.clear()
        self._by_app.clear()
        count = 0
        for row in rows:
            self.add(row)
            count += 1
        return count

    def add(self, row: Indexable) -> None:
        """Index one appended row (or its record)."""
        self._by_class[row.record_class].append(row.record_id)
        self._by_app[row.app_id].append(row.record_id)

    # -- lookups (each returns ids in append order) --------------------------

    def by_class(self, record_class: RecordClass) -> List[str]:
        return list(self._by_class.get(record_class, ()))

    def by_app(self, app_id: str) -> List[str]:
        return list(self._by_app.get(app_id, ()))

    def has_app(self, app_id: str) -> bool:
        """Whether any row of trace *app_id* has been indexed."""
        return app_id in self._by_app

    def app_ids(self) -> List[str]:
        """All distinct application ids, in first-seen order."""
        return list(self._by_app.keys())
