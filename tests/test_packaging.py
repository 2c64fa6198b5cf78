"""``setup.py`` describes the real package: its name and ``repro.__version__``."""

from __future__ import annotations

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
