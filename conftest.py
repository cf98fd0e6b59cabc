"""Test set-up shared by ``tests`` and ``perfbench``.

``perfbench/run.py`` imports the package afresh: it drops every
``lambek`` module from ``sys.modules`` and imports them again.  A test
that runs after that would pickle, or monkeypatch by name, modules
other than the ones its file imported, so after each test the
session's own ``lambek`` modules are put back.
"""

import sys

import pytest


def _lambek_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name == "lambek" or name.startswith("lambek.")}


@pytest.fixture(autouse=True)
def _keep_lambek_modules():
    saved = _lambek_modules()
    yield
    for name in _lambek_modules():
        del sys.modules[name]
    sys.modules.update(saved)
