"""Packaging entry point: a dependency-free pure-Python package under ``src/``."""

import re
from pathlib import Path

from setuptools import find_packages, setup

REPO_ROOT = Path(__file__).resolve().parent


def _version() -> str:
    text = (REPO_ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    return re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE).group(1)


setup(
    name="repro-primo",
    version=_version(),
    package_dir={"": "src"},
    packages=find_packages("src"),
)
