"""Shared utilities: seeding, validation, and small numeric helpers."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.utils.rng": ("as_generator", "spawn_generators"),
        "repro.utils.validation": (
            "check_finite",
            "check_fraction",
            "check_positive",
            "check_shape",
        ),
    },
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "check_finite",
    "check_fraction",
    "check_positive",
    "check_shape",
]
