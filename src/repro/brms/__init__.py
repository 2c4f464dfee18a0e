"""Business Rule Management System (BRMS).

This package reimplements the slice of ILOG JRules the paper relies on
(§II.D, §III), over the provenance data model instead of Java:

- :mod:`repro.brms.xom` — the *executable object model* (XOM): runtime
  classes generated from the provenance data model, whose instances wrap
  provenance-graph nodes ("the nodes and the edges of the graph and their
  attributes are directly linked to XOM java objects through getters and
  setters").
- :mod:`repro.brms.bom` — the *business object model* (BOM) and the
  BOM-to-XOM mapping: concepts, members, and how each member executes.
- :mod:`repro.brms.verbalization` — generating the BOM from the XOM with
  navigation/action phrases ("class attributes are verbalized as navigation
  phrases and the methods are verbalized as action phrases").
- :mod:`repro.brms.vocabulary` — the vocabulary: "the set of terms and
  phrases attached to the elements of the BOM", with the lookups a rule
  editor's drop-down menus need.
- :mod:`repro.brms.bal` — the Business Action Language: definitions /
  if / then / else rules written in that vocabulary.
- :mod:`repro.brms.engine` — rule execution against a trace graph.
- :mod:`repro.brms.repository` — rule artifacts and deployment lifecycle.
"""

from repro.brms.xom import ExecutableObjectModel, XomClass, XomObject
from repro.brms.bom import (
    BomClass,
    BomMember,
    BusinessObjectModel,
    MemberKind,
)
from repro.brms.verbalization import Verbalizer
from repro.brms.vocabulary import Vocabulary
from repro.brms.engine import RuleEngine, RuleOutcome, RuleVerdict
from repro.brms.repository import RuleArtifact, RuleRepository, RuleState
from repro.brms.profiles import (
    DEFAULT_PROFILE,
    VerbalizationProfile,
    profile_from_translations,
    verbalize_with_profile,
)

__all__ = [
    "BomClass",
    "DEFAULT_PROFILE",
    "VerbalizationProfile",
    "profile_from_translations",
    "verbalize_with_profile",
    "BomMember",
    "BusinessObjectModel",
    "ExecutableObjectModel",
    "MemberKind",
    "RuleArtifact",
    "RuleEngine",
    "RuleOutcome",
    "RuleRepository",
    "RuleState",
    "RuleVerdict",
    "Verbalizer",
    "Vocabulary",
    "XomClass",
    "XomObject",
]
