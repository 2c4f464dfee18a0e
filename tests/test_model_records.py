"""Unit tests for provenance record classes."""

import pytest

from repro.errors import SchemaViolation, UnknownRecordClass
from repro.model.records import (
    CustomRecord,
    DataRecord,
    RecordClass,
    RelationRecord,
    ResourceRecord,
    TaskRecord,
    record_from_parts,
)


def make_data(**overrides):
    args = dict(
        record_id="PE3",
        app_id="App01",
        entity_type="jobrequisition",
        timestamp=100,
        attributes={"reqid": "Req001", "type": "new"},
    )
    args.update(overrides)
    return DataRecord.create(**args)


class TestRecordClass:
    def test_from_wire_case_insensitive(self):
        assert RecordClass.from_wire("data") is RecordClass.DATA
        assert RecordClass.from_wire("Resource") is RecordClass.RESOURCE
        assert RecordClass.from_wire("RELATION") is RecordClass.RELATION

    def test_from_wire_unknown_raises(self):
        with pytest.raises(UnknownRecordClass):
            RecordClass.from_wire("thing")

    def test_from_wire_exact_folded_and_unknown_values(self):
        for member in RecordClass:
            # The exact CLASS column value every stored row carries.
            assert RecordClass.from_wire(member.value) is member
            # Any other spelling takes the case-insensitive fallback.
            for text in (
                member.value.lower(),
                member.value.upper(),
                f"  {member.value.lower()}\t",
            ):
                assert RecordClass.from_wire(text) is member
        for text in ("", "   ", "Datum", "Data Task", "relations"):
            with pytest.raises(UnknownRecordClass):
                RecordClass.from_wire(text)

    def test_relation_is_not_node(self):
        assert not RecordClass.RELATION.is_node
        for cls in (
            RecordClass.DATA,
            RecordClass.TASK,
            RecordClass.RESOURCE,
            RecordClass.CUSTOM,
        ):
            assert cls.is_node


class TestNodeRecords:
    def test_data_record_class(self):
        assert make_data().record_class is RecordClass.DATA

    def test_attribute_access(self):
        record = make_data()
        assert record.get("reqid") == "Req001"
        assert record.get("missing") is None
        assert record.get("missing", "x") == "x"
        assert record.has("type")
        assert not record.has("nope")

    def test_attributes_returns_fresh_dict(self):
        record = make_data()
        attrs = record.attributes
        attrs["reqid"] = "tampered"
        assert record.get("reqid") == "Req001"

    def test_with_attributes_returns_new_record(self):
        record = make_data()
        enriched = record.with_attributes(dept="Dept501")
        assert enriched.get("dept") == "Dept501"
        assert not record.has("dept")
        assert enriched.record_id == record.record_id

    def test_records_are_hashable_and_equal_by_value(self):
        assert make_data() == make_data()
        assert hash(make_data()) == hash(make_data())

    def test_empty_record_id_rejected(self):
        with pytest.raises(SchemaViolation):
            make_data(record_id="")

    def test_empty_app_id_rejected(self):
        with pytest.raises(SchemaViolation):
            make_data(app_id="")

    def test_empty_entity_type_rejected(self):
        with pytest.raises(SchemaViolation):
            make_data(entity_type="")

    def test_task_start_end(self):
        task = TaskRecord.create(
            record_id="PE2",
            app_id="App01",
            entity_type="submission",
            attributes={"start": 10, "end": 25},
        )
        assert task.start == 10
        assert task.end == 25

    def test_task_start_end_absent(self):
        task = TaskRecord.create(
            record_id="PE2", app_id="App01", entity_type="submission"
        )
        assert task.start is None
        assert task.end is None

    def test_resource_and_custom_classes(self):
        resource = ResourceRecord.create("PE1", "App01", "person")
        custom = CustomRecord.create("PE9", "App01", "controlpoint")
        assert resource.record_class is RecordClass.RESOURCE
        assert custom.record_class is RecordClass.CUSTOM


class TestRelationRecord:
    def test_create(self):
        relation = RelationRecord.create(
            record_id="PE5",
            app_id="App01",
            entity_type="submitterOf",
            source_id="PE1",
            target_id="PE3",
        )
        assert relation.record_class is RecordClass.RELATION
        assert relation.source_id == "PE1"
        assert relation.target_id == "PE3"

    def test_missing_endpoint_rejected(self):
        with pytest.raises(SchemaViolation):
            RelationRecord.create(
                record_id="PE5",
                app_id="App01",
                entity_type="submitterOf",
                source_id="",
                target_id="PE3",
            )


class TestRecordFromParts:
    def test_rebuild_each_node_class(self):
        for record_class in (
            RecordClass.DATA,
            RecordClass.TASK,
            RecordClass.RESOURCE,
            RecordClass.CUSTOM,
        ):
            record = record_from_parts(
                record_class, "X1", "App01", "thing", 5, {"a": "b"}
            )
            assert record.record_class is record_class
            assert record.get("a") == "b"

    def test_rebuild_relation(self):
        record = record_from_parts(
            RecordClass.RELATION,
            "X1",
            "App01",
            "actor",
            source_id="A",
            target_id="B",
        )
        assert isinstance(record, RelationRecord)
        assert record.source_id == "A"
