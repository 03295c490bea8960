"""Package metadata for ``pip install -e .`` (or ``pip install .``).

The version is read from ``src/repro/__init__.py`` without importing the
package, so building needs neither numpy nor scipy.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="Model assertions (OMG) for monitoring and improving ML models",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
