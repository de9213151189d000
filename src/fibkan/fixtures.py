"""Bundled example models, shipped as JSON files in ``fixtures/``.

Each fixture is a complete model dictionary in the CLI file format: a base
category with causal/Cauchy annotations, a structured category, a projection
functor, and an algebra assignment.
"""

from __future__ import annotations

import json
from importlib import resources


def _directory():
    return resources.files(__package__).joinpath("fixtures")


def fixture_names() -> list:
    return sorted(entry.name.removesuffix(".json") for entry in _directory().iterdir()
                  if entry.name.endswith(".json"))


def load_bundled(name: str) -> dict:
    """A fresh parse of the shipped JSON file of a bundled fixture."""
    names = fixture_names()
    if name not in names:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(names)}")
    return json.loads(_directory().joinpath(f"{name}.json").read_text())
