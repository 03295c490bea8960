"""Package namespaces whose public names load on first access (PEP 562).

A package ``__init__`` that imports its whole API eagerly makes every
entry point below it pay for all of it: ``python -m repro fleet`` would
load numpy and the monitor core just to route lines. A lazy package
lists, per defining module, the names it re-exports::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.serve.net": ("MonitorServer", "ServiceClient"),
    })

``from repro.serve import ServiceClient`` then imports
``repro.serve.net`` and nothing else; the resolved object is cached in
the package namespace, so later lookups do not come back here.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, modules: dict) -> tuple:
    """The ``(__getattr__, __dir__)`` pair for ``package``.

    ``modules`` maps each defining module to the names it provides. An
    unknown name raises ``AttributeError``, as for any module.
    """
    owner = {name: module for module, names in modules.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__
