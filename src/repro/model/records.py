"""Provenance record classes.

Each record corresponds to one row of the paper's Table I: an id, one of the
five record classes, the application id (``APPID``) that groups a trace, and
a bag of attributes that the XML column serializes.  Nodes of the provenance
graph are Data/Task/Resource/Custom records; RelationRecords become edges.

Records are immutable once created — the provenance store is append-only, and
correlation analytics *add* relation records rather than mutating nodes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SchemaViolation, UnknownRecordClass
from repro.model.attributes import AttributeValue


class RecordClass(enum.Enum):
    """The five provenance record classes of the paper's data model."""

    DATA = "Data"
    TASK = "Task"
    RESOURCE = "Resource"
    CUSTOM = "Custom"
    RELATION = "Relation"

    @classmethod
    def from_wire(cls, text: str) -> "RecordClass":
        """Parse the CLASS column value (case-insensitive).

        Stored rows carry the exact value, so that is one dict lookup;
        any other spelling falls back to a case-insensitive match.
        """
        member = _CLASS_BY_VALUE.get(text)
        if member is not None:
            return member
        for member in cls:
            if member.value.lower() == text.strip().lower():
                return member
        raise UnknownRecordClass(f"unknown record class {text!r}")

    @property
    def is_node(self) -> bool:
        """Whether records of this class become provenance-graph nodes."""
        return self is not RecordClass.RELATION


_CLASS_BY_VALUE: Dict[str, RecordClass] = {
    member.value: member for member in RecordClass
}


def _freeze_attributes(
    attributes: Mapping[str, AttributeValue],
) -> Tuple[Tuple[str, AttributeValue], ...]:
    return tuple(sorted(attributes.items()))


@dataclass(frozen=True)
class ProvenanceRecord:
    """Base class for all provenance records.

    Attributes:
        record_id: unique id within a store (Table I's ``ID`` column).
        app_id: the application/trace id (Table I's ``APPID`` column).
        entity_type: the node or relation *type* within the class — e.g. a
            Data record of type ``jobrequisition``, a Relation record of type
            ``submitterOf``.  This is the name the data model declares and the
            vocabulary verbalizes.
        timestamp: simulated capture time.
        attributes: the typed payload serialized into the XML column.
    """

    record_id: str
    app_id: str
    entity_type: str
    timestamp: int = 0
    _attributes: Tuple[Tuple[str, AttributeValue], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        if not self.record_id:
            raise SchemaViolation("record_id must be non-empty")
        if not self.app_id:
            raise SchemaViolation("app_id must be non-empty")
        if not self.entity_type:
            raise SchemaViolation("entity_type must be non-empty")

    @property
    def record_class(self) -> RecordClass:
        raise NotImplementedError

    @property
    def attributes(self) -> Dict[str, AttributeValue]:
        """The attribute payload as a fresh dict (records stay immutable)."""
        return dict(self._attributes)

    def get(
        self, name: str, default: Optional[AttributeValue] = None
    ) -> Optional[AttributeValue]:
        """Return attribute *name* or *default* when absent."""
        for key, value in self._attributes:
            if key == name:
                return value
        return default

    def has(self, name: str) -> bool:
        """Whether attribute *name* is present."""
        return any(key == name for key, __ in self._attributes)

    def with_attributes(self, **extra: AttributeValue) -> "ProvenanceRecord":
        """Return a copy of this record with *extra* attributes merged in.

        Enrichment analytics use this to derive an enriched record; the
        original row in the store is never modified.
        """
        merged = self.attributes
        merged.update(extra)
        return type(self)(
            record_id=self.record_id,
            app_id=self.app_id,
            entity_type=self.entity_type,
            timestamp=self.timestamp,
            _attributes=_freeze_attributes(merged),
        )


def _make_record(cls, record_id, app_id, entity_type, timestamp, attributes):
    return cls(
        record_id=record_id,
        app_id=app_id,
        entity_type=entity_type,
        timestamp=timestamp,
        _attributes=_freeze_attributes(attributes or {}),
    )


@dataclass(frozen=True)
class DataRecord(ProvenanceRecord):
    """A business artifact produced or exchanged during the process."""

    @property
    def record_class(self) -> RecordClass:
        return RecordClass.DATA

    @classmethod
    def create(
        cls,
        record_id: str,
        app_id: str,
        entity_type: str,
        timestamp: int = 0,
        attributes: Optional[Mapping[str, AttributeValue]] = None,
    ) -> "DataRecord":
        return _make_record(cls, record_id, app_id, entity_type, timestamp, attributes)


@dataclass(frozen=True)
class TaskRecord(ProvenanceRecord):
    """A process activity that utilizes or manipulates data."""

    @property
    def record_class(self) -> RecordClass:
        return RecordClass.TASK

    @classmethod
    def create(
        cls,
        record_id: str,
        app_id: str,
        entity_type: str,
        timestamp: int = 0,
        attributes: Optional[Mapping[str, AttributeValue]] = None,
    ) -> "TaskRecord":
        return _make_record(cls, record_id, app_id, entity_type, timestamp, attributes)

    @property
    def start(self) -> Optional[int]:
        """Task start time, when the recorder captured one."""
        value = self.get("start")
        return int(value) if value is not None else None

    @property
    def end(self) -> Optional[int]:
        """Task end time, when the recorder captured one."""
        value = self.get("end")
        return int(value) if value is not None else None


@dataclass(frozen=True)
class ResourceRecord(ProvenanceRecord):
    """A person, runtime, or other actor relevant to the business scope."""

    @property
    def record_class(self) -> RecordClass:
        return RecordClass.RESOURCE

    @classmethod
    def create(
        cls,
        record_id: str,
        app_id: str,
        entity_type: str,
        timestamp: int = 0,
        attributes: Optional[Mapping[str, AttributeValue]] = None,
    ) -> "ResourceRecord":
        return _make_record(cls, record_id, app_id, entity_type, timestamp, attributes)


@dataclass(frozen=True)
class CustomRecord(ProvenanceRecord):
    """Domain-specific virtual artifact: compliance goal, alert, checkpoint.

    Deployed internal control points materialize as Custom records whose
    attributes carry the control id and its edge requirements.
    """

    @property
    def record_class(self) -> RecordClass:
        return RecordClass.CUSTOM

    @classmethod
    def create(
        cls,
        record_id: str,
        app_id: str,
        entity_type: str,
        timestamp: int = 0,
        attributes: Optional[Mapping[str, AttributeValue]] = None,
    ) -> "CustomRecord":
        return _make_record(cls, record_id, app_id, entity_type, timestamp, attributes)


@dataclass(frozen=True)
class RelationRecord(ProvenanceRecord):
    """An edge of the provenance graph between two node records.

    The paper stores relations as first-class rows (Table I row PE4) with a
    source, a target, and a relation type such as ``actor``, ``generates``,
    ``submitterOf`` or ``approvalOf``.
    """

    source_id: str = ""
    target_id: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.source_id or not self.target_id:
            raise SchemaViolation("relation needs both source_id and target_id")

    @property
    def record_class(self) -> RecordClass:
        return RecordClass.RELATION

    @classmethod
    def create(
        cls,
        record_id: str,
        app_id: str,
        entity_type: str,
        source_id: str,
        target_id: str,
        timestamp: int = 0,
        attributes: Optional[Mapping[str, AttributeValue]] = None,
    ) -> "RelationRecord":
        return cls(
            record_id=record_id,
            app_id=app_id,
            entity_type=entity_type,
            timestamp=timestamp,
            _attributes=_freeze_attributes(attributes or {}),
            source_id=source_id,
            target_id=target_id,
        )


_NODE_CLASSES = {
    RecordClass.DATA: DataRecord,
    RecordClass.TASK: TaskRecord,
    RecordClass.RESOURCE: ResourceRecord,
    RecordClass.CUSTOM: CustomRecord,
}


def record_from_parts(
    record_class: RecordClass,
    record_id: str,
    app_id: str,
    entity_type: str,
    timestamp: int = 0,
    attributes: Optional[Mapping[str, AttributeValue]] = None,
    source_id: str = "",
    target_id: str = "",
) -> ProvenanceRecord:
    """Reconstruct a record of the right concrete class from row parts.

    The XML codec uses this when materializing rows read back from a store.
    """
    if record_class is RecordClass.RELATION:
        return RelationRecord.create(
            record_id=record_id,
            app_id=app_id,
            entity_type=entity_type,
            source_id=source_id,
            target_id=target_id,
            timestamp=timestamp,
            attributes=attributes,
        )
    concrete = _NODE_CLASSES[record_class]
    return concrete.create(
        record_id=record_id,
        app_id=app_id,
        entity_type=entity_type,
        timestamp=timestamp,
        attributes=attributes,
    )
