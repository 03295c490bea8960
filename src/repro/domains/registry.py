"""The ``Domain`` protocol and registry: one serving contract, four workloads.

The paper's Figure 2 pitches model assertions as *one* runtime
abstraction shared across deployments, but the four domain packages each
grew a bespoke monitoring surface (``AVPipeline.observe_sample``,
``VideoPipeline.observe_frame``, ``TVNewsPipeline.observe_scenes``, the
ECG free functions). This module collapses them into a single contract a
serving layer can drive uniformly:

- :meth:`Domain.assertion_suite` — the domain's assertions as a
  declarative, pure-data :class:`~repro.core.spec.AssertionSuite`;
- :meth:`Domain.build_monitor` — a fresh :class:`~repro.core.runtime.OMG`
  runtime with the domain's assertions registered (by default, the
  compiled suite);
- :meth:`Domain.build_world` — a seeded, deterministic data source
  (synthetic world plus whatever bootstrapped models the domain needs);
- :meth:`Domain.iter_stream` — an unbounded iterator of *raw units*
  (a frame's detections, a fused AV sample, a news scene, an ECG
  record's window predictions) drawn from that world;
- :meth:`Domain.item_from_raw` — normalization of one raw unit into zero
  or more ``(outputs, timestamp)`` stream items the runtime ingests.

Domains register under a short name with :func:`register_domain`; the
four built-ins resolve lazily so importing the registry stays cheap:

>>> from repro.domains.registry import get_domain
>>> monitor = get_domain("video").build_monitor()
>>> monitor.database.names()
['multibox', 'flicker', 'appear']

:class:`~repro.serve.MonitorService` layers keyed multi-stream sessions,
batching, eviction, and snapshots on top of this contract.
"""

from __future__ import annotations

import abc
import importlib
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple

if TYPE_CHECKING:
    from repro.core.runtime import OMG, MonitoringReport
    from repro.core.spec import AssertionSuite


class MonitorRun(NamedTuple):
    """Result of an offline pipeline ``monitor`` pass.

    A named tuple so every pipeline's ``monitor`` has one return shape:
    ``run.report`` / ``run.items`` for new code, while existing
    ``report, items = pipeline.monitor(...)`` unpacking keeps working.
    """

    report: MonitoringReport
    items: list


class RawItem(NamedTuple):
    """One normalized stream item: model outputs plus its timestamp.

    ``timestamp=None`` lets the runtime default to the item index (one
    item per second), matching :meth:`repro.core.runtime.OMG.observe`.
    """

    outputs: list
    timestamp: "float | None" = None


class RetrainableModel(abc.ABC):
    """The fleet model behind a domain's streams, as the improvement loop
    sees it (see :mod:`repro.improve`).

    One instance serves every stream of a loop: it turns raw sensor
    *samples* (an ECG record's features, a traffic frame) into the *raw
    units* :meth:`Domain.item_from_raw` ingests, labels samples through
    the oracle or consistency-based weak supervision, fine-tunes on the
    accumulated labeled set, and snapshots its full training state so the
    :class:`~repro.improve.ModelRegistry` can version it and retraining
    can run bit-identically in a worker process.
    """

    #: Display name of :meth:`evaluate`'s unit (e.g. ``"accuracy%"``).
    metric_name: str = "metric"

    @abc.abstractmethod
    def predict_raw(self, sample: Any) -> Any:
        """Model outputs for one sensor sample, in the domain's raw-unit
        shape (consumable by :meth:`Domain.item_from_raw`)."""

    def uncertainty(self, sample: Any, raw: Any) -> float:
        """Least-confidence score for one predicted unit (higher = less
        confident); 0.0 when the domain has no confidence signal."""
        return 0.0

    @abc.abstractmethod
    def oracle_label(self, sample: Any) -> Any:
        """Ground-truth label for one sample (the human-oracle route)."""

    def weak_labels(self, samples: list, raws: "list | None" = None) -> list:
        """Consistency-propagated pseudo-labels (the weak-supervision
        route); ``None`` entries mean no pseudo-label for that sample.

        ``raws`` are the model outputs the samples streamed with (so the
        labels correct what the monitor actually saw); domains without a
        weak-supervision rule keep this default.
        """
        return [None] * len(samples)

    @abc.abstractmethod
    def fine_tune(self, examples: list) -> None:
        """Continue training on ``examples``: ``(sample, label)`` pairs
        accumulated by the labeling queue, oracle and weak mixed."""

    @abc.abstractmethod
    def evaluate(self) -> float:
        """Held-out metric of the current weights (``metric_name`` units)."""

    @abc.abstractmethod
    def get_state(self) -> dict:
        """JSON-encodable snapshot of everything retraining depends on
        (weights, optimizer state, generator positions)."""

    @abc.abstractmethod
    def set_state(self, payload: dict) -> None:
        """Restore :meth:`get_state` output — the hot-swap primitive."""


class Domain(abc.ABC):
    """One workload's serving contract (see the module docstring).

    Instances are lightweight and may be shared across streams: all
    per-stream mutable state lives in the opaque object returned by
    :meth:`new_state`, which the caller threads through
    :meth:`item_from_raw`. ``config`` is the domain's frozen config
    dataclass (each implementation defines its own); ``None`` means the
    implementation's defaults.
    """

    #: Registry name; filled in by :func:`register_domain`.
    name: str = ""

    def __init__(self, config: Any = None) -> None:
        self.config = config if config is not None else self.default_config()

    @classmethod
    def default_config(cls) -> Any:
        """The config used when none is given; ``None`` if configless."""
        return None

    def _config(self, config: Any) -> Any:
        return config if config is not None else self.config

    # -- contract ------------------------------------------------------
    def assertion_suite(self, config: Any = None) -> AssertionSuite:
        """This domain's assertions as a declarative, pure-data suite.

        The canonical source of the domain's assertion set: serialize it,
        diff it, ship it in a config, or hand an edited copy to
        :meth:`~repro.serve.MonitorService.apply_suite`. The default
        :meth:`build_monitor` compiles it, so overriding this method is
        all a new domain needs to plug its assertions into serving,
        snapshots, and the ``assertions`` CLI.
        """
        raise NotImplementedError(
            f"domain {self.name or type(self).__name__!r} declares no "
            "assertion suite; override assertion_suite() (preferred) or "
            "build_monitor()"
        )

    def build_monitor(self, config: Any = None) -> OMG:
        """A fresh runtime with this domain's assertions registered.

        Default: compile :meth:`assertion_suite` — bit-identical to the
        pre-spec hand-built monitors (``tests/domains/test_suites.py``).
        Domains with assertions that cannot be expressed as specs may
        override this directly.
        """
        from repro.core.runtime import OMG
        from repro.core.spec import compile_suite

        return OMG(compile_suite(self.assertion_suite(config)))

    def build_pipeline(self, config: Any = None):
        """The domain's offline pipeline object, when it has one.

        Optional hook: experiments and examples use it where they need
        more than the bare runtime (assertion objects, ``to_stream``,
        judging helpers). Domains whose offline surface *is* the runtime
        (ecg) keep this default.
        """
        raise NotImplementedError(
            f"domain {self.name or type(self).__name__!r} has no offline "
            "pipeline; use build_monitor()"
        )

    @abc.abstractmethod
    def build_world(self, seed: int = 0) -> Any:
        """A seeded data source consumable by :meth:`iter_stream`.

        Deterministic: the same seed always yields the same raw-unit
        sequence, which is what lets a snapshot-resumed stream fast
        forward its world by replaying the units already consumed.
        """

    @abc.abstractmethod
    def iter_stream(self, world: Any) -> Iterator[Any]:
        """Yield raw units from a :meth:`build_world` source, unbounded."""

    @abc.abstractmethod
    def item_from_raw(self, raw: Any, state: Any = None) -> "list[RawItem]":
        """Normalize one raw unit into zero or more stream items.

        ``state`` is this stream's :meth:`new_state` object (the video
        domain's live tracker, the ECG domain's time offset); stateless
        domains ignore it.
        """

    # -- closed improvement loop (optional) ----------------------------
    def build_sensor(self, seed: int = 0) -> Any:
        """A seeded *model-free* sample source for the improvement loop.

        Unlike :meth:`build_world` (which bootstraps the demo model so
        :meth:`iter_stream` can decorate samples with predictions), a
        sensor yields undecorated samples; the loop's shared
        :class:`RetrainableModel` predicts on them, so every stream sees
        the *current* model version. Deterministic per seed, like worlds.
        """
        raise NotImplementedError(
            f"domain {self.name or type(self).__name__!r} has no sensor "
            "stream; it cannot drive an improvement loop"
        )

    def iter_samples(self, sensor: Any) -> Iterator[Any]:
        """Yield raw sensor samples from :meth:`build_sensor`, unbounded."""
        raise NotImplementedError(
            f"domain {self.name or type(self).__name__!r} has no sensor "
            "stream; it cannot drive an improvement loop"
        )

    def retrainable(
        self, seed: int = 0, *, bootstrap: bool = True
    ) -> RetrainableModel:
        """The domain's :class:`RetrainableModel` adapter.

        ``bootstrap=False`` skips pretraining (and data generation) and
        returns a bare, architecture-matched model shell — what retrain
        workers use before ``set_state`` overwrites the weights. Domains
        without a retrainable model (tvnews: "we were unable to access
        the training code") keep this default.
        """
        raise NotImplementedError(
            f"domain {self.name or type(self).__name__!r} has no "
            "retrainable model"
        )

    # -- per-stream adapter state --------------------------------------
    def new_state(self, config: Any = None) -> Any:
        """Fresh per-stream adaptation state; ``None`` when stateless."""
        return None

    def state_snapshot(self, state: Any) -> Any:
        """JSON-encodable form of ``state`` (``None`` when stateless)."""
        return None

    def state_restore(self, payload: Any, config: Any = None) -> Any:
        """Rebuild per-stream state from :meth:`state_snapshot` output."""
        return self.new_state(config)


#: name → Domain subclass, for explicitly registered domains.
_REGISTRY: dict = {}

#: Built-in domains resolve lazily: importing the module registers the
#: class, so `get_domain("av")` works without eagerly importing every
#: domain package (and its models) at registry-import time.
_BUILTIN = {
    "av": "repro.domains.av.domain",
    "ecg": "repro.domains.ecg.domain",
    "tvnews": "repro.domains.tvnews.domain",
    "video": "repro.domains.video.domain",
}


def register_domain(name: str):
    """Class decorator: register a :class:`Domain` subclass under ``name``."""

    def decorate(cls):
        if not (isinstance(cls, type) and issubclass(cls, Domain)):
            raise TypeError(f"@register_domain expects a Domain subclass, got {cls!r}")
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"domain {name!r} is already registered to {existing!r}")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def get_domain(name: str, config: Any = None) -> Domain:
    """Instantiate the domain registered under ``name``.

    ``config`` is the domain's own config dataclass (``None`` = its
    defaults). Unknown names raise ``KeyError`` listing what exists.
    """
    if name not in _REGISTRY and name in _BUILTIN:
        importlib.import_module(_BUILTIN[name])
    cls = _REGISTRY.get(name)
    if cls is None:
        raise KeyError(
            f"unknown domain {name!r}; registered domains: {', '.join(domain_names())}"
        )
    return cls(config)


def domain_names() -> list:
    """Sorted names of every known domain (registered or built-in)."""
    return sorted(set(_REGISTRY) | set(_BUILTIN))
