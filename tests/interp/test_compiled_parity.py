"""Interpreter parity over every program the application-run benchmark runs.

``compiled_parity.json`` pins, for each extractable RuBiS / RuBBoS /
AcadPortal servlet, Matoso ``findMaxScore`` and JobPortal ``report(7)``,
original and rewritten, on small seeded databases:
``(return value, last_out, output, step count)``.  A change to how the
interpreter evaluates a program must leave every entry unchanged,
including the step count ``max_steps`` is checked against.

Regenerate the fixture only for a change meant to move one of these
values::

    PYTHONPATH=src python tests/interp/test_compiled_parity.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.workloads as corpus
from repro import ExtractOptions
from repro.core import optimize_program
from repro.db import Connection
from repro.interp import Entity, Interpreter, ResultCursor, StringBuilder

FIXTURE = Path(__file__).with_name("compiled_parity.json")

#: Application → (catalog, small seeded database, (function, source, args)...).
APPS = {
    "rubis": (
        corpus.rubis_catalog,
        lambda c: corpus.rubis_database(scale=30, seed=3, catalog=c),
        [(s.function, s.source, ()) for s in corpus.RUBIS_SERVLETS
         if s.expected_extractable],
    ),
    "rubbos": (
        corpus.rubbos_catalog,
        lambda c: corpus.rubbos_database(scale=30, seed=5, catalog=c),
        [(s.function, s.source, ()) for s in corpus.RUBBOS_SERVLETS
         if s.expected_extractable],
    ),
    "acadportal": (
        corpus.acadportal_catalog,
        lambda c: corpus.acadportal_database(scale=30, seed=7, catalog=c),
        [(s.function, s.source, ()) for s in corpus.ACADPORTAL_SERVLETS
         if s.expected_extractable],
    ),
    "matoso": (
        corpus.matoso_catalog,
        lambda c: corpus.matoso_database(rows=40, seed=11, catalog=c),
        [("findMaxScore", corpus.FIND_MAX_SCORE, ())],
    ),
    "jobportal": (
        corpus.jobportal_catalog,
        lambda c: corpus.jobportal_database(applicants=30, seed=13, catalog=c),
        [("report", corpus.JOB_REPORT, (7,))],
    ),
}


def encode(value):
    """A JSON-stable rendering that keeps int/float/bool and container kinds apart."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"float": repr(value)}
    if isinstance(value, Entity):
        return {"entity": {k: encode(v) for k, v in sorted(value.row.items())}}
    if isinstance(value, list):
        return {"list": [encode(v) for v in value]}
    if isinstance(value, tuple):
        return {"tuple": [encode(v) for v in value]}
    if isinstance(value, set):
        return {"set": sorted((encode(v) for v in value), key=json.dumps)}
    if isinstance(value, dict):
        items = [[encode(k), encode(v)] for k, v in value.items()]
        return {"map": sorted(items, key=json.dumps)}
    if isinstance(value, StringBuilder):
        return {"StringBuilder": value.to_string()}
    if isinstance(value, ResultCursor):
        return {"cursor": [encode(v) for v in value]}
    raise TypeError(f"cannot encode {type(value).__name__}")


def observe() -> dict[str, dict]:
    """Run every program, both versions; label → pinned observations."""
    observed = {}
    for app, (make_catalog, make_database, programs) in APPS.items():
        catalog = make_catalog()
        database = make_database(catalog)
        for function, source, args in programs:
            report = optimize_program(
                source, function, catalog, options=ExtractOptions(profile="local")
            )
            for version in ("original", "rewritten"):
                interp = Interpreter(getattr(report, version), Connection(database))
                value = interp.run(function, *args)
                observed[f"{app}/{function}/{version}"] = {
                    "value": encode(value),
                    "last_out": encode(interp.last_out),
                    "output": interp.output,
                    "steps": interp.steps,
                }
    return observed


LABELS = [
    f"{app}/{function}/{version}"
    for app, (_, _, programs) in APPS.items()
    for function, _, _ in programs
    for version in ("original", "rewritten")
]


@pytest.fixture(scope="module")
def observed():
    return observe()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_app_program(pinned):
    assert sorted(pinned) == sorted(LABELS)


@pytest.mark.parametrize("label", LABELS)
def test_matches_pinned(observed, pinned, label):
    assert observed[label] == pinned[label]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(observe(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")
