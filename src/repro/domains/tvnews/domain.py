"""``tvnews`` domain adapter: scene-consistency monitoring via the registry.

Raw unit: one :class:`~repro.worlds.tvnews.Scene` of precomputed face
predictions. Scene clustering is scene-local, so the domain is stateless
per stream: each scene expands independently into one stream item per
sample time (exactly :meth:`TVNewsPipeline.to_stream` on that scene).
The world side needs no model at all — the paper's collaborators shipped
precomputed outputs — which makes this the cheapest domain to serve and
the one the CI smoke test streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.seeding import derive_seed
from repro.core.spec import AssertionSuite, ConsistencySpecDecl, SuiteEntry
from repro.domains.registry import Domain, RawItem, register_domain
from repro.domains.tvnews.pipeline import (
    NEWS_ATTRIBUTES,
    TVNewsPipeline,
    TVNewsPipelineConfig,
)
from repro.worlds.tvnews import TVNewsWorld, TVNewsWorldConfig


@dataclass(frozen=True)
class TVNewsDomainConfig:
    """Serving config: pipeline knobs plus the footage generator."""

    pipeline: TVNewsPipelineConfig = TVNewsPipelineConfig()
    world: TVNewsWorldConfig = field(default_factory=TVNewsWorldConfig)
    #: Footage is generated one video segment at a time.
    video_seconds: float = 600.0


@register_domain("tvnews")
class TVNewsDomain(Domain):
    """TV news: identity/gender/hair consistency within scene clusters."""

    @classmethod
    def default_config(cls) -> TVNewsDomainConfig:
        return TVNewsDomainConfig()

    def build_pipeline(self, config: "TVNewsDomainConfig | None" = None) -> TVNewsPipeline:
        """The offline pipeline (the registry entry point experiments use)."""
        return TVNewsPipeline(self._config(config).pipeline)

    def assertion_suite(self, config: "TVNewsDomainConfig | None" = None) -> AssertionSuite:
        """The three ``news`` attribute-consistency assertions, as a spec."""
        return AssertionSuite(
            name="tvnews-builtin",
            version=1,
            domain="tvnews",
            entries=(
                SuiteEntry(
                    spec=ConsistencySpecDecl(
                        name="news",
                        id_fn="tvnews.face_id",
                        attrs_fn="tvnews.face_attrs",
                        attr_keys=tuple(NEWS_ATTRIBUTES),
                    ),
                    tags=("builtin", "tvnews", "consistency"),
                ),
            ),
        )

    def build_world(self, seed: int = 0) -> TVNewsWorld:
        return TVNewsWorld(self.config.world, seed=derive_seed(seed, "tvnews", "world"))

    def iter_stream(self, world: TVNewsWorld):
        video_id = 0
        while True:
            for scene in world.generate_video(video_id, self.config.video_seconds):
                yield scene
            video_id += 1

    def item_from_raw(self, raw, state=None) -> list:
        items = self._clusterer.to_stream([raw])
        return [RawItem(list(item.outputs), item.timestamp) for item in items]

    @property
    def _clusterer(self) -> TVNewsPipeline:
        # to_stream's clustering is scene-local and stateless across
        # calls, so one shared pipeline serves every stream.
        clusterer = getattr(self, "_clusterer_cache", None)
        if clusterer is None:
            clusterer = self._clusterer_cache = self.build_pipeline()
        return clusterer
