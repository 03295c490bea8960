"""The paper's contribution: assertions, OMG runtime, consistency, BAL.

Public surface:

- :class:`ModelAssertion`, :class:`FunctionAssertion` — the assertion
  abstraction (§2.1).
- :class:`AssertionDatabase` — the shared assertion registry (Figure 2).
- :class:`OMG`, :class:`MonitoringReport` — runtime monitoring (§2.4).
- :class:`ConsistencySpec` + generated assertion classes — the
  ``AddConsistencyAssertion(Id, Attrs, T)`` API (§4).
- :class:`BAL`, :class:`CCMAB` and the selection strategies — active
  learning (§3).
- :func:`harvest_weak_labels` — weak supervision (§4.2).
"""

from repro.core.active_learning import (
    ActiveLearningResult,
    ActiveLearningTask,
    RoundResult,
    compare_strategies,
    run_active_learning,
)
from repro.core.assertion import FunctionAssertion, ModelAssertion, as_assertion
from repro.core.bal import BAL, BALSelection
from repro.core.ccmab import CCMAB
from repro.core.consistency import (
    AttributeConsistencyAssertion,
    ConsistencyIndex,
    ConsistencySpec,
    TemporalConsistencyAssertion,
    TemporalViolation,
    generate_assertions,
    majority_value,
)
from repro.core.database import AssertionDatabase, AssertionEntry
from repro.core.runtime import OMG, MonitoringReport
from repro.core.seeding import derive_rng, derive_seed, spawn_seeds
from repro.core.spec import (
    AssertionSuite,
    CompositeAssertion,
    CompositeSpec,
    ConsistencySpecDecl,
    PerItemSpec,
    RollingWindowSpec,
    SuiteDiff,
    SuiteEntry,
    TemporalDecl,
    compile_spec,
    compile_suite,
    get_predicate,
    lint_suite,
    load_suite,
    predicate_names,
    register_predicate,
    save_suite,
    spec_assertion_names,
)
from repro.core.streaming import (
    AttributeConsistencyEvaluator,
    PerItemEvaluator,
    RollingWindowEvaluator,
    StreamingEngine,
    StreamingEvaluator,
    TemporalConsistencyEvaluator,
    WindowedReplayEvaluator,
    make_evaluator,
)
from repro.core.strategies import (
    BALStrategy,
    RandomStrategy,
    SelectionContext,
    SelectionStrategy,
    UncertaintyStrategy,
    UniformAssertionStrategy,
    default_strategies,
)
from repro.core.taxonomy import (
    ASSERTION_CLASSES,
    TAXONOMY,
    TaxonomyEntry,
    entries_for_class,
    format_taxonomy_table,
)
from repro.core.types import (
    AssertionRecord,
    Correction,
    StreamItem,
    apply_corrections,
    make_stream,
)
from repro.core.weak_supervision import (
    WeakLabelSet,
    WeakSupervisionResult,
    harvest_weak_labels,
)

__all__ = [
    "ASSERTION_CLASSES",
    "BAL",
    "BALSelection",
    "BALStrategy",
    "CCMAB",
    "TAXONOMY",
    "ActiveLearningResult",
    "ActiveLearningTask",
    "AssertionDatabase",
    "AssertionEntry",
    "AssertionRecord",
    "AssertionSuite",
    "CompositeAssertion",
    "CompositeSpec",
    "ConsistencySpecDecl",
    "PerItemSpec",
    "RollingWindowSpec",
    "SuiteDiff",
    "SuiteEntry",
    "TemporalDecl",
    "compile_spec",
    "compile_suite",
    "get_predicate",
    "lint_suite",
    "load_suite",
    "predicate_names",
    "register_predicate",
    "save_suite",
    "spec_assertion_names",
    "AttributeConsistencyAssertion",
    "AttributeConsistencyEvaluator",
    "ConsistencyIndex",
    "ConsistencySpec",
    "Correction",
    "FunctionAssertion",
    "ModelAssertion",
    "MonitoringReport",
    "OMG",
    "PerItemEvaluator",
    "RollingWindowEvaluator",
    "StreamingEngine",
    "StreamingEvaluator",
    "TemporalConsistencyEvaluator",
    "WindowedReplayEvaluator",
    "RandomStrategy",
    "RoundResult",
    "SelectionContext",
    "SelectionStrategy",
    "StreamItem",
    "TaxonomyEntry",
    "TemporalConsistencyAssertion",
    "TemporalViolation",
    "UncertaintyStrategy",
    "UniformAssertionStrategy",
    "WeakLabelSet",
    "WeakSupervisionResult",
    "apply_corrections",
    "as_assertion",
    "compare_strategies",
    "default_strategies",
    "derive_rng",
    "derive_seed",
    "spawn_seeds",
    "entries_for_class",
    "format_taxonomy_table",
    "generate_assertions",
    "harvest_weak_labels",
    "majority_value",
    "make_evaluator",
    "make_stream",
    "run_active_learning",
]
