"""Declarative suites vs. the hand-built monitors, per domain.

The acceptance bar for the spec layer: for all four domains, a monitor
compiled from ``domain.assertion_suite()`` produces a severity matrix
bit-identical to the pre-spec hand-built monitor (wired imperatively
below, the way the domains did before suites existed) on seeded worlds.
Plus the Table 5 taxonomy audit: no built-in assertion ships on the
``"custom"`` default.
"""

import itertools

import numpy as np
import pytest

from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG
from repro.core.spec import compile_suite, lint_suite
from repro.core.taxonomy import ASSERTION_CLASSES
from repro.core.types import StreamItem
from repro.domains.ecg.assertions import make_ecg_assertion
from repro.domains.registry import domain_names, get_domain

#: Raw units consumed per world; small where the world needs a model.
UNITS = {"av": 5, "ecg": 3, "tvnews": 5, "video": 25}
SEEDS = (0, 1, 2)


def normalized_items(domain, seed: int, n_units: int) -> list:
    """Raw units → stream items, through the domain's own adapter."""
    world = domain.build_world(seed=seed)
    state = domain.new_state()
    items: list = []
    for raw in itertools.islice(domain.iter_stream(world), n_units):
        for outputs, timestamp in domain.item_from_raw(raw, state):
            items.append(
                StreamItem(
                    index=len(items),
                    timestamp=(
                        timestamp if timestamp is not None else float(len(items))
                    ),
                    outputs=tuple(outputs),
                )
            )
    return items


def hand_built_monitor(domain) -> OMG:
    """The pre-spec monitor: the offline pipeline's runtime (av, tvnews,
    video) or the ECG consistency assertion registered by hand."""
    if domain.name == "ecg":
        database = AssertionDatabase()
        database.add(
            make_ecg_assertion(domain.config.temporal_threshold), domain="ecg"
        )
        return OMG(database)
    return domain.build_pipeline().omg


class TestSuiteEquivalence:
    @pytest.mark.parametrize("name", sorted(UNITS))
    def test_compiled_suite_matches_hand_built_monitor(self, name):
        domain = get_domain(name)
        suite = domain.assertion_suite()
        for seed in SEEDS:
            compiled = domain.build_monitor()
            reference = hand_built_monitor(domain)
            assert (
                compiled.database.names() == reference.database.names()
            ), "suite must preserve the assertion registration order"
            items = normalized_items(domain, seed, UNITS[name])
            a = compiled.monitor(items)
            b = reference.monitor(items)
            np.testing.assert_array_equal(
                a.severities,
                b.severities,
                err_msg=f"{name} seed {seed}: compiled suite diverged",
            )
        # build_monitor is the compiled path: same database as an
        # explicit compile of the same suite.
        assert (
            domain.build_monitor().database.names()
            == compile_suite(suite).names()
        )

    def test_build_monitor_embeds_the_suite(self):
        for name in domain_names():
            domain = get_domain(name)
            monitor = domain.build_monitor()
            assert monitor.suite == domain.assertion_suite()
            assert monitor.snapshot()["suite"] is not None


class TestTaxonomyAudit:
    """Satellite: Table 5 classes on every built-in assertion."""

    def test_no_builtin_assertion_reports_the_custom_default(self):
        for name in domain_names():
            database = get_domain(name).build_monitor().database
            for assertion_name in database.all_names():
                taxonomy = database.get(assertion_name).taxonomy_class
                assert taxonomy != "custom", (
                    f"{name}:{assertion_name} ships the 'custom' default"
                )
                assert taxonomy in ASSERTION_CLASSES, (
                    f"{name}:{assertion_name} reports unknown class {taxonomy!r}"
                )

    def test_pipeline_built_assertions_match_the_audit_too(self):
        # The hand-built monitors must agree with the audit —
        # the suites re-declare, not re-classify.
        for name in domain_names():
            database = hand_built_monitor(get_domain(name)).database
            for assertion_name in database.all_names():
                assert database.get(assertion_name).taxonomy_class in ASSERTION_CLASSES

    def test_builtin_suites_lint_clean(self):
        for name in domain_names():
            assert lint_suite(get_domain(name).assertion_suite()) == []
