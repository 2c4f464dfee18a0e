"""The rule execution engine.

Runs compiled BAL rules against trace graphs and produces
:class:`RuleOutcome` objects.  Two execution back ends share one
semantics:

- ``compiled`` (the default) lowers each rule once into Python closures
  (:mod:`repro.brms.bal.codegen`) and thereafter evaluates by direct
  function calls — the hot path for sweeps and deployed re-checks.  Rules
  the closure compiler cannot cover fall back per-rule to the interpreter
  automatically (``codegen_gaps`` records why).
- ``interpret`` walks the AST every evaluation
  (:mod:`repro.brms.bal.evaluate`) — the reference semantics and the
  differential-testing oracle.

Verdicts are one of four:

- ``SATISFIED`` / ``NOT_SATISFIED`` — the paper's two explicit outcomes,
- ``NOT_APPLICABLE`` — the rule's anchor (its first instance binding, e.g.
  "the current job request") does not bind in this trace: the control is
  about artifacts the trace does not contain,
- ``UNDETERMINED`` — the rule references a concept whose artifacts are
  *known to be unobservable* under the current capture configuration, so a
  verdict would be evidence-free.  This refinement matters for partially
  managed processes (experiment E4); pass ``observable_types=None`` to get
  the paper's plain two-outcome behaviour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.brms.bal import ast
from repro.brms.bal.compiler import CompiledRule
from repro.brms.bal.codegen import ClosureProgram, CodegenGap, compile_rule
from repro.brms.bal.evaluate import (
    EvalContext,
    TraceFrame,
    evaluate_condition,
    evaluate_definition,
    evaluate_expression,
)
from repro.brms.vocabulary import Vocabulary
from repro.brms.xom import ExecutableObjectModel, XomObject
from repro.errors import RuleEngineError
from repro.graph.graph import ProvenanceGraph


class RuleVerdict(enum.Enum):
    SATISFIED = "satisfied"
    NOT_SATISFIED = "not_satisfied"
    NOT_APPLICABLE = "not_applicable"
    UNDETERMINED = "undetermined"


@dataclass
class RuleOutcome:
    """The result of evaluating one rule against one trace."""

    rule_name: str
    trace_id: str
    verdict: RuleVerdict
    condition_value: Optional[bool] = None
    alerts: List[str] = field(default_factory=list)
    bindings: Dict[str, Optional[str]] = field(default_factory=dict)
    env_values: Dict[str, object] = field(default_factory=dict)
    touched_nodes: List[str] = field(default_factory=list)

    @property
    def bound_node_ids(self) -> List[str]:
        """Record ids of all graph nodes the rule's definitions bound.

        Control deployment turns these into edges from the control's custom
        node to the data nodes — the paper's "connected to the three data
        nodes defined by the constraints".
        """
        return [rid for rid in self.bindings.values() if rid is not None]


EXECUTION_MODES = ("compiled", "interpret")


class RuleEngine:
    """Evaluates compiled rules against trace graphs.

    Args:
        execution_mode: ``"compiled"`` (closure codegen, the default) or
            ``"interpret"`` (AST walking).  Compiled mode falls back to the
            interpreter per rule on codegen gaps.
    """

    def __init__(
        self,
        xom: ExecutableObjectModel,
        vocabulary: Vocabulary,
        execution_mode: str = "compiled",
    ) -> None:
        if execution_mode not in EXECUTION_MODES:
            raise RuleEngineError(
                f"unknown execution mode {execution_mode!r}; "
                f"expected one of {EXECUTION_MODES}"
            )
        self.xom = xom
        self.vocabulary = vocabulary
        self.execution_mode = execution_mode
        # id(compiled) → (compiled, program-or-None).  The strong reference
        # to the CompiledRule pins its id; None records a codegen gap so the
        # fallback decision is made once per rule, not per evaluation.
        self._programs: Dict[
            int, "Tuple[CompiledRule, Optional[ClosureProgram]]"
        ] = {}
        self.codegen_gaps: Dict[str, str] = {}  # rule name → gap reason

    def program_for(
        self, compiled: CompiledRule
    ) -> Optional[ClosureProgram]:
        """The rule's closure program, compiled on first use.

        Returns None when the closure compiler cannot cover the rule; the
        gap reason is recorded in :attr:`codegen_gaps`.
        """
        entry = self._programs.get(id(compiled))
        if entry is not None and entry[0] is compiled:
            return entry[1]
        try:
            program: Optional[ClosureProgram] = compile_rule(compiled)
        except CodegenGap as gap:
            program = None
            self.codegen_gaps[compiled.name] = str(gap)
        self._programs[id(compiled)] = (compiled, program)
        return program

    def clear_program_cache(self) -> None:
        """Drop compiled closures (after vocabulary/BOM edits)."""
        self._programs.clear()
        self.codegen_gaps.clear()

    def _unobservable_concepts(
        self, compiled: CompiledRule, observable_types: Optional[Set[str]]
    ) -> List[str]:
        if observable_types is None:
            return []
        missing = []
        for concept in compiled.concepts:
            bom_class = self.vocabulary.concept(concept)
            if bom_class.node_type not in observable_types:
                missing.append(concept)
        return missing

    def evaluate(
        self,
        compiled: CompiledRule,
        graph: ProvenanceGraph,
        parameters: Optional[Dict[str, object]] = None,
        observable_types: Optional[Set[str]] = None,
        frame: Optional[TraceFrame] = None,
    ) -> RuleOutcome:
        """Evaluate *compiled* against one trace *graph*.

        Args:
            frame: optional shared per-trace state (memoized XOM instance
                wraps).  Callers evaluating several rules against the same
                graph should build one :class:`TraceFrame` and pass it to
                every evaluation.
        """
        trace_id = graph.name
        if self._unobservable_concepts(compiled, observable_types):
            return RuleOutcome(
                rule_name=compiled.name,
                trace_id=trace_id,
                verdict=RuleVerdict.UNDETERMINED,
            )

        context = EvalContext(
            graph=graph,
            xom=self.xom,
            vocabulary=self.vocabulary,
            parameters=dict(parameters or {}),
            frame=frame,
        )

        if self.execution_mode == "compiled":
            program = self.program_for(compiled)
            if program is not None:
                return self._evaluate_program(
                    program, compiled, trace_id, context
                )
        return self._evaluate_interpreted(compiled, trace_id, context)

    def _evaluate_interpreted(
        self,
        compiled: CompiledRule,
        trace_id: str,
        context: EvalContext,
    ) -> RuleOutcome:
        anchor = compiled.anchor_variable
        for definition in compiled.rule.definitions:
            value = evaluate_definition(definition, context)
            if definition.var == anchor and value is None:
                return self._outcome_from(
                    compiled, trace_id, RuleVerdict.NOT_APPLICABLE, context
                )

        condition_value = evaluate_condition(compiled.rule.condition, context)
        actions = (
            compiled.rule.then_actions
            if condition_value
            else compiled.rule.else_actions
        )
        default = (
            RuleVerdict.SATISFIED
            if condition_value
            else RuleVerdict.NOT_SATISFIED
        )

        outcome = self._outcome_from(compiled, trace_id, default, context)
        outcome.condition_value = condition_value
        for action in actions:
            self._execute_action(action, context, outcome)
        # Re-capture bindings: Assign actions may have added variables.
        self._capture_bindings(context, outcome)
        return outcome

    def _evaluate_program(
        self,
        program: ClosureProgram,
        compiled: CompiledRule,
        trace_id: str,
        context: EvalContext,
    ) -> RuleOutcome:
        """The compiled fast path; step-for-step twin of the interpreter."""
        anchor = program.anchor
        env = context.env
        for var, fn in program.definitions:
            value = fn(context)
            env[var] = value
            if var == anchor and value is None:
                return self._outcome_from(
                    compiled, trace_id, RuleVerdict.NOT_APPLICABLE, context
                )

        condition_value = program.condition(context)
        actions = (
            program.then_actions
            if condition_value
            else program.else_actions
        )
        default = (
            RuleVerdict.SATISFIED
            if condition_value
            else RuleVerdict.NOT_SATISFIED
        )

        outcome = self._outcome_from(compiled, trace_id, default, context)
        outcome.condition_value = condition_value
        for action in actions:
            action(context, outcome)
        self._capture_bindings(context, outcome)
        return outcome

    def evaluate_many(
        self,
        compiled: CompiledRule,
        graphs: Sequence[ProvenanceGraph],
        parameters: Optional[Dict[str, object]] = None,
        observable_types: Optional[Set[str]] = None,
        frames: Optional[Sequence[TraceFrame]] = None,
    ) -> List[RuleOutcome]:
        """Evaluate one rule across many trace graphs.

        Pass *frames* (one per graph, e.g. shared with other rules) to
        reuse XOM instance wraps; otherwise each graph gets a fresh frame
        so at least the rule's own quantifiers share wrapping.
        """
        if frames is None:
            frames = [TraceFrame(graph) for graph in graphs]
        return [
            self.evaluate(
                compiled, graph, parameters, observable_types, frame=frame
            )
            for graph, frame in zip(graphs, frames)
        ]

    # -- helpers -------------------------------------------------------------

    def _outcome_from(
        self,
        compiled: CompiledRule,
        trace_id: str,
        verdict: RuleVerdict,
        context: EvalContext,
    ) -> RuleOutcome:
        outcome = RuleOutcome(
            rule_name=compiled.name, trace_id=trace_id, verdict=verdict
        )
        self._capture_bindings(context, outcome)
        return outcome

    @staticmethod
    def _capture_bindings(context: EvalContext, outcome: RuleOutcome) -> None:
        for var, value in context.env.items():
            if isinstance(value, XomObject):
                outcome.bindings[var] = value.record.record_id
            else:
                outcome.bindings[var] = None
                outcome.env_values[var] = value
        outcome.touched_nodes = sorted(context.touched)

    @staticmethod
    def _execute_action(
        action: ast.Node, context: EvalContext, outcome: RuleOutcome
    ) -> None:
        if isinstance(action, ast.SetStatus):
            outcome.verdict = (
                RuleVerdict.SATISFIED
                if action.satisfied
                else RuleVerdict.NOT_SATISFIED
            )
            return
        if isinstance(action, ast.Alert):
            outcome.alerts.append(action.message)
            return
        if isinstance(action, ast.Assign):
            context.env[action.var] = evaluate_expression(
                action.expr, context
            )
            return
        raise RuleEngineError(
            f"unknown action node {type(action).__name__}"
        )
