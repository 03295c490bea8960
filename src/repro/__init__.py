"""OMG — Model Assertions for Monitoring and Improving ML Models.

This package is a from-scratch reproduction of the system described in

    Kang, Raghavan, Bailis, Zaharia.
    "Model Assertions for Monitoring and Improving ML Models." MLSys 2020.

The public API mirrors the paper's library, OMG ("OMG Model Guardian"):

- :class:`repro.core.OMG` — the runtime monitor. Register assertions with
  :meth:`~repro.core.runtime.OMG.add_assertion` or the high-level
  :meth:`~repro.core.runtime.OMG.add_consistency_assertion` API and stream
  model inputs/outputs through it.
- :class:`repro.core.ModelAssertion` — the assertion abstraction: an
  arbitrary function over model inputs and outputs returning a severity
  score (0 = abstain).
- :class:`repro.core.BAL` — the bandit-based active-learning data-selection
  algorithm (Algorithm 2 in the paper).
- :func:`repro.core.harvest_weak_labels` — weak supervision from
  consistency-assertion correction rules.

Substrates used by the paper's evaluation (synthetic worlds, trainable
detectors and classifiers, metrics) live in sibling subpackages.

Public names resolve lazily, on first access (PEP 562): ``import repro``
loads no subpackage, and ``from repro import OMG`` imports
:mod:`repro.core` only then. So does each subpackage's own namespace
(:mod:`repro.utils`, :mod:`repro.serve`, :mod:`repro.fleet`), which is
how the fleet router (``python -m repro fleet``) routes without loading
numpy or the monitor core.

Reproducing the evaluation
--------------------------
Every table/figure is a registered experiment (frozen config dataclass +
pure ``run(config)`` body) executed by the registry runner in
:mod:`repro.experiments.runner`, which layers on deterministic
child-seed fan-out (:mod:`repro.core.seeding`), process-parallel trial
execution, a content-addressed artifact cache (``.repro-cache/``), and
uniform JSON + text reporting. ``python -m repro`` drives it from the
command line::

    python -m repro list
    python -m repro run fig4_video --jobs 4
    python -m repro run --all --jobs 2
    python -m repro report

Same-seed results are bit-identical run directly, via the CLI, serially,
or with ``--jobs N`` (see ``tests/experiments/test_runner.py``).

Runtime performance
-------------------
Online monitoring is incremental: :meth:`~repro.core.runtime.OMG.observe`
dispatches each invocation through stateful per-assertion streaming
evaluators (:mod:`repro.core.streaming`) — deque-based rolling windows
for windowed function assertions, per-identifier aggregates for
consistency assertions — so one observation costs O(assertions)
amortized instead of the O(window × assertions) cost of replaying the
trailing window (~9× items/sec at ``window_size=64`` with 8 assertions;
see ``benchmarks/test_streaming_throughput.py``). For chunked feeds,
:meth:`~repro.core.runtime.OMG.observe_batch` ingests many items per
call and returns the chunk's severity matrix. Severity attribution is
revisable — a flicker is flagged on the gap items once the object
reappears — and :meth:`~repro.core.runtime.OMG.online_report` is
guaranteed to equal an offline :meth:`~repro.core.runtime.OMG.monitor`
pass over the same stream exactly (the differential invariant enforced
by ``tests/core/test_streaming_equivalence.py``). Example:
``examples/streaming_monitor.py``.

Serving API
-----------
All four workloads implement one :class:`~repro.domains.registry.Domain`
contract (``build_monitor`` / ``build_world`` / ``iter_stream`` /
``item_from_raw``), resolved by name through
:func:`~repro.domains.registry.get_domain`.
:class:`~repro.serve.MonitorService` serves many keyed streams of a
domain at once — batched ingest, LRU/TTL session eviction,
per-stream and fleet-aggregate reports, ``on_fire`` routing with stream
provenance, and bit-exact JSON snapshot/restore of the whole fleet
(``python -m repro stream DOMAIN --streams N --items M
[--snapshot PATH]``). See the README's "Serving API" section and
``examples/multi_stream_service.py``.

Improvement loop
----------------
:mod:`repro.improve` closes the paper's monitor → label → retrain →
redeploy lifecycle over the serving fleet:
:class:`~repro.improve.ImprovementLoop` accumulates fires
(:class:`~repro.improve.FireStore`), selects labeling candidates
(random / uniform-assertion / BAL bandit), routes them to the oracle or
consistency weak supervision (:class:`~repro.improve.LabelQueue`),
retrains in the background (:class:`~repro.improve.RetrainWorker`), and
hot-swaps monotonically versioned models
(:class:`~repro.improve.ModelRegistry`) into live streams at raw-unit
boundaries — with bit-exact snapshot/resume of the entire loop
(``python -m repro improve DOMAIN --rounds R --budget B --policy
bal|random|uniform [--snapshot PATH]``). See the README's "Improvement
loop" section and ``examples/closed_loop_improvement.py``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core": (
            "OMG",
            "BAL",
            "AssertionDatabase",
            "ConsistencySpec",
            "FunctionAssertion",
            "ModelAssertion",
            "MonitoringReport",
            "StreamItem",
            "harvest_weak_labels",
        ),
        "repro.domains.registry": ("Domain", "RetrainableModel", "get_domain"),
        "repro.improve": ("ImproveConfig", "ImprovementLoop"),
        "repro.serve": ("MonitorService", "ServiceConfig"),
    },
)

__version__ = "1.2.0"

__all__ = [
    "OMG",
    "BAL",
    "AssertionDatabase",
    "ConsistencySpec",
    "Domain",
    "FunctionAssertion",
    "ImproveConfig",
    "ImprovementLoop",
    "ModelAssertion",
    "MonitorService",
    "MonitoringReport",
    "RetrainableModel",
    "ServiceConfig",
    "StreamItem",
    "get_domain",
    "harvest_weak_labels",
    "__version__",
]
