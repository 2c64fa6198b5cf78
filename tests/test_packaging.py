"""``setup.py`` describes the real package: its name and ``repro.__version__``.

The package also has one execution path: the kernel-backend registry, the
worker pool and the batch executor are gone, not merely unused.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_setup_metadata_matches_the_package():
    pytest.importorskip("setuptools")
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.split()[-2:] == ["repro", repro.__version__]


@pytest.mark.parametrize(
    "module", ["repro.parallel", "repro.histograms.backends", "repro.service.batch"]
)
def test_retired_execution_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)
