"""Unit tests for subgraph pattern matching and graph serialization."""

import pytest

from repro.errors import PatternError
from repro.graph.graph import ProvenanceGraph
from repro.graph.match import (
    EdgePattern,
    GraphPattern,
    NodePattern,
    match_pattern,
)
from repro.model.records import (
    DataRecord,
    RecordClass,
    RelationRecord,
    ResourceRecord,
)
from repro.store.query import AttributePredicate


@pytest.fixture
def graph():
    """A small hiring trace: person -> requisition <- approval."""
    graph = ProvenanceGraph()
    graph.add_node_record(
        ResourceRecord.create(
            "R1", "App01", "person", attributes={"name": "Joe"}
        )
    )
    graph.add_node_record(
        DataRecord.create(
            "D1",
            "App01",
            "jobrequisition",
            attributes={"reqid": "Req001", "type": "new"},
        )
    )
    graph.add_node_record(
        DataRecord.create(
            "D2",
            "App01",
            "approval",
            attributes={"reqid": "Req001", "status": "approved"},
        )
    )
    graph.add_relation_record(
        RelationRecord.create(
            "E1", "App01", "submitterOf", source_id="R1", target_id="D1"
        )
    )
    graph.add_relation_record(
        RelationRecord.create(
            "E2", "App01", "approvalOf", source_id="D2", target_id="D1"
        )
    )
    return graph


class TestPatternValidation:
    def test_duplicate_variable_rejected(self):
        pattern = GraphPattern(
            nodes=[NodePattern("a"), NodePattern("a")], edges=[]
        )
        with pytest.raises(PatternError):
            pattern.validate()

    def test_unknown_edge_variable_rejected(self):
        pattern = GraphPattern(
            nodes=[NodePattern("a")],
            edges=[EdgePattern("a", "ghost")],
        )
        with pytest.raises(PatternError):
            pattern.validate()

    def test_node_pattern_lookup(self):
        pattern = GraphPattern(nodes=[NodePattern("a")])
        assert pattern.node_pattern("a").var == "a"
        with pytest.raises(PatternError):
            pattern.node_pattern("b")


class TestMatching:
    def test_single_match(self, graph):
        pattern = GraphPattern(
            nodes=[
                NodePattern("req", entity_type="jobrequisition"),
                NodePattern("appr", entity_type="approval"),
            ],
            edges=[EdgePattern("appr", "req", "approvalOf")],
        )
        bindings = match_pattern(graph, pattern)
        assert bindings == [{"req": "D1", "appr": "D2"}]

    def test_attribute_constrained_match(self, graph):
        pattern = GraphPattern(
            nodes=[
                NodePattern(
                    "req",
                    entity_type="jobrequisition",
                    predicates=(AttributePredicate("type", "==", "new"),),
                )
            ]
        )
        assert match_pattern(graph, pattern) == [{"req": "D1"}]

    def test_attribute_mismatch_no_match(self, graph):
        pattern = GraphPattern(
            nodes=[
                NodePattern(
                    "req",
                    entity_type="jobrequisition",
                    predicates=(
                        AttributePredicate("type", "==", "existing"),
                    ),
                )
            ]
        )
        assert match_pattern(graph, pattern) == []

    def test_missing_edge_no_match(self, graph):
        pattern = GraphPattern(
            nodes=[
                NodePattern("req", entity_type="jobrequisition"),
                NodePattern("person", record_class=RecordClass.RESOURCE),
            ],
            edges=[EdgePattern("req", "person", "submitterOf")],
        )
        # Edge goes person -> requisition, not the reverse.
        assert match_pattern(graph, pattern) == []

    def test_optional_variable_binds_when_present(self, graph):
        pattern = GraphPattern(
            nodes=[
                NodePattern("req", entity_type="jobrequisition"),
                NodePattern("appr", entity_type="approval", optional=True),
            ],
            edges=[EdgePattern("appr", "req", "approvalOf")],
        )
        bindings = match_pattern(graph, pattern)
        assert bindings == [{"req": "D1", "appr": "D2"}]

    def test_optional_variable_absent_when_missing(self, graph):
        pattern = GraphPattern(
            nodes=[
                NodePattern("req", entity_type="jobrequisition"),
                NodePattern(
                    "list", entity_type="candidatelist", optional=True
                ),
            ],
        )
        bindings = match_pattern(graph, pattern)
        assert bindings == [{"req": "D1"}]

    def test_required_variable_missing_no_match(self, graph):
        pattern = GraphPattern(
            nodes=[NodePattern("list", entity_type="candidatelist")]
        )
        assert match_pattern(graph, pattern) == []

    def test_multiple_matches(self, graph):
        graph.add_node_record(
            DataRecord.create(
                "D9",
                "App01",
                "approval",
                attributes={"reqid": "Req001", "status": "approved"},
            )
        )
        graph.add_relation_record(
            RelationRecord.create(
                "E9", "App01", "approvalOf", source_id="D9", target_id="D1"
            )
        )
        pattern = GraphPattern(
            nodes=[
                NodePattern("req", entity_type="jobrequisition"),
                NodePattern("appr", entity_type="approval"),
            ],
            edges=[EdgePattern("appr", "req", "approvalOf")],
        )
        bindings = match_pattern(graph, pattern)
        assert len(bindings) == 2
        assert {b["appr"] for b in bindings} == {"D2", "D9"}

    def test_distinct_nodes_per_binding(self, graph):
        # Two variables of the same type must bind different nodes.
        pattern = GraphPattern(
            nodes=[
                NodePattern("a", entity_type="approval"),
                NodePattern("b", entity_type="approval"),
            ]
        )
        assert match_pattern(graph, pattern) == []


class TestSerialize:
    def test_dot_output(self, graph):
        from repro.graph.serialize import to_dot

        dot = to_dot(graph)
        assert dot.startswith("digraph")
        assert '"R1" [label=' in dot
        assert '"R1" -> "D1"' in dot
        assert "shape=note" in dot  # data records render as notepads

    def test_json_output(self, graph):
        import json

        from repro.graph.serialize import to_json

        payload = json.loads(to_json(graph))
        assert len(payload["nodes"]) == 3
        assert len(payload["edges"]) == 2
        assert payload["edges"][0]["type"] in ("submitterOf", "approvalOf")

    def test_census_lines(self, graph):
        from repro.graph.serialize import trace_census

        lines = trace_census(graph)
        assert "3 nodes, 2 edges" in lines[0]
        assert any("Resource: person" in line for line in lines)
        assert any("approval" in line for line in lines)
