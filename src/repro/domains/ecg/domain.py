"""``ecg`` domain adapter: AF-classification monitoring via the registry.

Raw unit: one record's window predictions —
``{"record": ECGRecord, "classes": ndarray}``. A serving stream is the
concatenation of successive records' windows; per-stream state is the
running time offset, which pads ``temporal_threshold`` seconds between
records so the 30 s oscillation assertion never fires *across* a record
boundary (a gap must be strictly shorter than ``T`` to fire). A run that
reaches a record's edge can still be judged short once the next record
opens with a different class — the price of one continuous stream; the
per-record experiment path (:func:`repro.domains.ecg.task.record_severities`)
keeps its reset-per-record semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.seeding import derive_seed
from repro.core.spec import (
    AssertionSuite,
    ConsistencySpecDecl,
    SuiteEntry,
    TemporalDecl,
)
from repro.domains.registry import Domain, RawItem, RetrainableModel, register_domain
from repro.utils.codec import register_result_type
from repro.worlds.ecg import ECG_CLASSES, ECGWorld, ECGWorldConfig


@register_result_type
@dataclass(frozen=True)
class EcgDomainConfig:
    """Serving config: assertion threshold plus demo world/model sizes."""

    temporal_threshold: float = 30.0
    world: ECGWorldConfig = field(default_factory=ECGWorldConfig)
    #: Bootstrap size for the demo classifier built by :meth:`build_world`.
    n_train: int = 80
    #: Held-out records behind :meth:`RetrainableModel.evaluate`.
    n_eval: int = 160


class _ECGWorld:
    """An ECG record generator plus the classifier that reads it."""

    def __init__(self, world: ECGWorld, model) -> None:
        self.world = world
        self.model = model


class EcgRetrainableModel(RetrainableModel):
    """The AF window classifier behind an ECG improvement loop.

    Weak supervision uses the paper's consistency default for the
    oscillation assertion: minority oscillating windows are repaired to
    the record's majority *predicted* class, i.e. the record-level
    pseudo-label is that majority class (§4.2 / Table 4).
    """

    metric_name = "accuracy%"

    def __init__(
        self, config: EcgDomainConfig, seed: int = 0, *, bootstrap: bool = True
    ) -> None:
        from repro.domains.ecg.model import ECGClassifier

        self.config = config
        self._seed = seed
        self._eval_records: "list | None" = None
        self.model = ECGClassifier(seed=derive_seed(seed, "ecg-improve", "model"))
        if bootstrap:
            train = ECGWorld(
                config.world, seed=derive_seed(seed, "ecg-improve", "train")
            ).generate_records(config.n_train)
            self.model.fit(train)

    @property
    def eval_records(self) -> list:
        """Held-out records (generated lazily: workers never evaluate)."""
        if self._eval_records is None:
            self._eval_records = ECGWorld(
                self.config.world, seed=derive_seed(self._seed, "ecg-improve", "eval")
            ).generate_records(self.config.n_eval)
        return self._eval_records

    def predict_raw(self, sample) -> dict:
        classes, probs = self.model.predict_windows(sample)
        return {"record": sample, "classes": classes, "probs": probs}

    def uncertainty(self, sample, raw) -> float:
        return 1.0 - float(raw["probs"].max(axis=1).mean())

    def oracle_label(self, sample) -> int:
        return int(sample.label)

    def weak_labels(self, samples: list, raws: "list | None" = None) -> list:
        if raws is None:
            raws = [self.predict_raw(sample) for sample in samples]
        return [
            int(np.bincount(raw["classes"], minlength=len(ECG_CLASSES)).argmax())
            for raw in raws
        ]

    def fine_tune(self, examples: list) -> None:
        records = [sample for sample, _label in examples]
        labels = [label for _sample, label in examples]
        self.model.fine_tune(records, labels)

    def evaluate(self) -> float:
        return self.model.accuracy(self.eval_records)

    def get_state(self) -> dict:
        return self.model.get_state()

    def set_state(self, payload: dict) -> None:
        self.model.set_state(payload)


@register_domain("ecg")
class EcgDomain(Domain):
    """ECG: the single 30 s oscillation-consistency assertion."""

    @classmethod
    def default_config(cls) -> EcgDomainConfig:
        return EcgDomainConfig()

    def assertion_suite(self, config: "EcgDomainConfig | None" = None) -> AssertionSuite:
        """The single 30 s oscillation assertion (named ``ECG``), as a spec."""
        cfg = self._config(config)
        return AssertionSuite(
            name="ecg-builtin",
            version=1,
            domain="ecg",
            entries=(
                SuiteEntry(
                    spec=ConsistencySpecDecl(
                        name="ecg",
                        id_fn="ecg.class_id",
                        temporal_threshold=cfg.temporal_threshold,
                        temporal=(TemporalDecl(mode="both", name="ECG"),),
                    ),
                    tags=("builtin", "ecg", "consistency"),
                ),
            ),
        )

    def build_world(self, seed: int = 0) -> _ECGWorld:
        from repro.domains.ecg.task import bootstrap_ecg_classifier, make_ecg_task_data

        cfg = self.config
        data = make_ecg_task_data(
            derive_seed(seed, "ecg", "bootstrap"),
            n_train=cfg.n_train,
            n_pool=1,
            n_test=1,
            world_config=cfg.world,
        )
        model = bootstrap_ecg_classifier(data, seed=derive_seed(seed, "ecg", "model"))
        world = ECGWorld(cfg.world, seed=derive_seed(seed, "ecg", "world"))
        return _ECGWorld(world, model)

    def iter_stream(self, world: _ECGWorld):
        while True:
            record = world.world.generate_record()
            classes, _probs = world.model.predict_windows(record)
            yield {"record": record, "classes": classes}

    def build_sensor(self, seed: int = 0) -> ECGWorld:
        return ECGWorld(self.config.world, seed=derive_seed(seed, "ecg", "sensor"))

    def iter_samples(self, sensor: ECGWorld):
        while True:
            yield sensor.generate_record()

    def retrainable(
        self, seed: int = 0, *, bootstrap: bool = True
    ) -> EcgRetrainableModel:
        return EcgRetrainableModel(self.config, seed, bootstrap=bootstrap)

    def new_state(self, config: "EcgDomainConfig | None" = None) -> dict:
        return {"offset": 0.0}

    def item_from_raw(self, raw, state=None) -> list:
        if state is None:
            # The running offset keeps record timestamps monotonic; without
            # it the oscillation assertion fires spuriously across records.
            raise ValueError(
                "the ecg domain is stateful: thread the object returned by "
                "new_state() through every item_from_raw call (MonitorService "
                "does this per session)"
            )
        record, classes = raw["record"], raw["classes"]
        offset = state["offset"]
        items = [
            RawItem([{"class": int(c)}], offset + float(t))
            for c, t in zip(classes, record.window_times)
        ]
        if items:
            # Next record starts a full threshold after this one ends, so
            # inter-record gaps can never register as oscillations.
            state["offset"] = items[-1].timestamp + self.config.temporal_threshold
        return items

    def state_snapshot(self, state) -> dict:
        return {"offset": state["offset"]}

    def state_restore(self, payload, config=None) -> dict:
        return {"offset": float(payload["offset"])}
