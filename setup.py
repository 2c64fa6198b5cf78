"""Packaging for ``repro``: the ``src/repro`` package and its one dependency, numpy.

``pip install -e .`` installs it in editable mode; the version is read from
``src/repro/__init__.py`` as text, so packaging never imports the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
