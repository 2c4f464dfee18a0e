"""Metric names, units and better-directions, read from ``BENCHMARK.json``.

The file at the repository root is the one list of metrics; the report
and the per-layer code take their names and units from here.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


def metrics(kind: str) -> Dict[str, Tuple[str, str]]:
    """``name -> (unit, better)`` of the ``end_to_end`` or ``per_layer``
    metrics, in file order."""
    with open(_PATH, encoding="utf-8") as handle:
        entries = json.load(handle)[kind]
    return {entry["name"]: (entry["unit"], entry["better"])
            for entry in entries}
