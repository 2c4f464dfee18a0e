"""The provenance graph.

"Each relevant event produced by the IT system is stored in a provenance
graph as a particular type of node or edge" (§II).  This package turns store
contents into a typed directed multigraph and provides the operations the
rest of the system needs:

- :mod:`repro.graph.graph` — the graph structure itself,
- :mod:`repro.graph.build` — building graphs from a store (whole store or
  per trace),
- :mod:`repro.graph.match` — subgraph pattern matching; "a business control
  point is a sub graph of the provenance graph" (§II.C),
- :mod:`repro.graph.serialize` — DOT/JSON/text rendering (Figure 2).
"""

from repro.graph.graph import ProvenanceGraph
from repro.graph.build import build_graph, build_trace_graph, graph_from_records
from repro.graph.match import EdgePattern, GraphPattern, NodePattern, match_pattern
from repro.graph.serialize import to_dot, to_json, trace_census

__all__ = [
    "EdgePattern",
    "GraphPattern",
    "NodePattern",
    "ProvenanceGraph",
    "build_graph",
    "build_trace_graph",
    "graph_from_records",
    "match_pattern",
    "to_dot",
    "to_json",
    "trace_census",
]
