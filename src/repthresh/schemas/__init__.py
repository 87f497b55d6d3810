"""Versioned JSON schemas for every artifact the CLI writes.

Schema names: detection_report, search_certificate, bracket, sampler_report,
bound_report, witness, run_manifest (all currently at version 1).  The test
suite validates every emitted artifact against these.
"""

from __future__ import annotations

import json
from importlib import resources

SCHEMA_NAMES = (
    "detection_report",
    "search_certificate",
    "bracket",
    "sampler_report",
    "bound_report",
    "witness",
    "run_manifest",
)


def load_schema(name: str, version: int = 1) -> dict:
    if name not in SCHEMA_NAMES:
        raise ValueError(f"unknown schema {name!r}; known: {', '.join(SCHEMA_NAMES)}")
    path = resources.files(__package__).joinpath(f"{name}.v{version}.json")
    return json.loads(path.read_text())
