"""Table 2: lines of code per assertion.

The paper reports that every deployed assertion's main body fits in ≤ 25
LOC and ≤ 60 LOC including (double-counted) shared helpers. We count our
implementations with the same methodology (:mod:`repro.experiments.loc`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.loc import loc_with_helpers
from repro.experiments.reporting import format_table, register_result_type
from repro.experiments.runner import get_experiment, register_experiment


@register_result_type
@dataclass(frozen=True)
class Table2Row:
    assertion: str
    loc_body: int
    loc_with_helpers: int
    kind: str  # "consistency" or "custom"


@register_result_type
@dataclass
class Table2Result:
    rows: list = field(default_factory=list)

    def row(self, name: str) -> Table2Row:
        for row in self.rows:
            if row.assertion == name:
                return row
        raise KeyError(name)

    @property
    def max_body_loc(self) -> int:
        return max(r.loc_body for r in self.rows)

    @property
    def max_total_loc(self) -> int:
        return max(r.loc_with_helpers for r in self.rows)

    def format_table(self) -> str:
        return format_table(
            ["Assertion", "LOC (no helpers)", "LOC (inc. helpers)"],
            [(r.assertion, r.loc_body, r.loc_with_helpers) for r in self.rows],
            title="Table 2: lines of code per assertion (consistency on top)",
        )


@dataclass(frozen=True)
class Table2Config:
    """Table 2 counts source as written; it has no knobs."""


@register_experiment(
    "table2",
    config=Table2Config,
    artifact="Table 2",
    description="Lines of code per deployed assertion",
    cacheable=False,  # result derives from the source tree, not the config
)
def _run_table2(config: Table2Config) -> Table2Result:
    """Count LOC of the six deployed assertions (Table 2 rows)."""
    from repro.domains.av.assertions import sensor_agreement
    from repro.domains.ecg.assertions import ecg_consistency_spec, make_ecg_assertion
    from repro.domains.tvnews.pipeline import news_consistency_spec
    from repro.domains.video.assertions import (
        interpolate_box,
        make_appear_assertion,
        make_flicker_assertion,
        multibox_severity,
        video_consistency_spec,
    )
    from repro.geometry.camera import project_box3d_to_2d
    from repro.geometry.iou import iou_rows, match_boxes

    # Bodies are the domain-level definitions a developer writes; helpers
    # are the shared utilities they call (box matching and IoU,
    # interpolation, projection), double-counted per assertion as in the paper.
    entries = [
        ("news", "consistency", [news_consistency_spec], [match_boxes]),
        ("ECG", "consistency", [ecg_consistency_spec, make_ecg_assertion], []),
        (
            "flicker",
            "consistency",
            [video_consistency_spec, make_flicker_assertion],
            [interpolate_box, match_boxes],
        ),
        (
            "appear",
            "consistency",
            [video_consistency_spec, make_appear_assertion],
            [match_boxes],
        ),
        ("multibox", "custom", [multibox_severity], [iou_rows]),
        ("agree", "custom", [sensor_agreement], [iou_rows, project_box3d_to_2d]),
    ]
    rows = []
    for name, kind, bodies, helpers in entries:
        body, total = loc_with_helpers(bodies, helpers)
        rows.append(Table2Row(assertion=name, loc_body=body, loc_with_helpers=total, kind=kind))
    return Table2Result(rows=rows)


def run_table2() -> Table2Result:
    """Count LOC of the six deployed assertions (Table 2 rows)."""
    return get_experiment("table2").run(Table2Config())
