"""The lazy package namespaces (``repro``, ``repro.utils``, ``repro.serve``,
``repro.fleet``) resolve their public names on first access. Their
tables must stay in step with ``__all__`` and with the defining modules."""

import importlib
import sys

import pytest

LAZY_PACKAGES = ["repro", "repro.utils", "repro.serve", "repro.fleet"]


def _defining_module(package: str, name: str, value):
    """The module that holds ``value`` under ``name``: its ``__module__``
    when it has one, else the one submodule of ``package`` holding it."""
    module = getattr(value, "__module__", None)
    if isinstance(module, str) and module in sys.modules:
        return sys.modules[module]
    holders = [
        mod
        for key, mod in list(sys.modules.items())
        if key.startswith(package + ".") and vars(mod).get(name) is value
    ]
    assert holders, f"no submodule of {package} holds {name}"
    return holders[0]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        if name == "__version__":
            continue
        assert getattr(_defining_module(package, name, value), name) is value, name
        assert name in dir(module)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_names_raise_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_all_of_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    assert set(namespace) - {"__builtins__"} == set(module.__all__)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)

