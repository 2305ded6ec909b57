"""Extraction-pipeline parity over every bundled function.

``pipeline_parity.json`` pins, for each function the repository bundles
(the Wilos samples, the RuBiS / RuBBoS / AcadPortal servlets, Matoso,
JobPortal, the precision samples and both ``examples/`` frontends), a
sha256 over what ``optimize_program(profile="local")`` reports:

* ``report.to_dict()`` without ``extraction_time_ms``;
* the ``repr`` of ``report.original`` and ``report.rewritten``, statement
  ids included;
* each rewrite-plan choice, with the ``repr`` of every alternative's
  program.

A change to how the pipeline builds or copies its trees must leave every
digest unchanged.  Regenerate the fixture only for a change meant to move
one of these values::

    PYTHONPATH=src python tests/core/test_pipeline_parity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.workloads as corpus
from repro import Catalog, ExtractOptions
from repro.core import optimize_program
from repro.frontends import get_frontend

FIXTURE = Path(__file__).with_name("pipeline_parity.json")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def bundled_units():
    """Every bundled function: (label, source, function, catalog, options)."""
    local = ExtractOptions(profile="local")
    catalog = corpus.wilos_catalog()
    for sample in corpus.WILOS_SAMPLES:
        yield f"wilos/{sample.number}", sample.source, sample.function, catalog, local
    for suite, servlets, catalog in (
        ("rubis", corpus.RUBIS_SERVLETS, corpus.rubis_catalog()),
        ("rubbos", corpus.RUBBOS_SERVLETS, corpus.rubbos_catalog()),
        ("acadportal", corpus.ACADPORTAL_SERVLETS, corpus.acadportal_catalog()),
    ):
        for servlet in servlets:
            yield (f"{suite}/{servlet.name}", servlet.source, servlet.function,
                   catalog, local)
    catalog = corpus.matoso_catalog()
    for function, source in (
        ("findMaxScore", corpus.FIND_MAX_SCORE),
        ("findMaxScoreWithPlayer", corpus.FIND_MAX_SCORE_WITH_PLAYER),
    ):
        yield f"matoso/{function}", source, function, catalog, local
    yield ("jobportal/report", corpus.JOB_REPORT, "report",
           corpus.jobportal_catalog(), local)
    catalog = corpus.precision_catalog()
    for sample in corpus.PRECISION_SAMPLES:
        yield (f"precision/{sample.name}", sample.source, sample.function,
               catalog, local)
    for frontend, pattern in (("minijava", "*.mj"), ("python", "*.py")):
        directory = EXAMPLES / frontend
        catalog = Catalog.from_json_file(directory / "schema.json")
        options = ExtractOptions(profile="local", frontend=frontend)
        for path in sorted(directory.glob(pattern)):
            source = path.read_text(encoding="utf-8")
            for func in get_frontend(frontend).parse(source).functions:
                yield (f"examples/{path.name}/{func.name}", source, func.name,
                       catalog, options)


def digest(report) -> str:
    """sha256 over the report's stable fields, trees and plan choices."""
    view = report.to_dict()
    del view["extraction_time_ms"]
    choices = []
    if report.rewrite_plan is not None:
        for choice in report.rewrite_plan.choices:
            choices.append({
                "choice": choice.to_dict(),
                "programs": [repr(c.alternative.program) for c in choice.costed],
            })
    payload = json.dumps(
        {
            "report": view,
            "original": repr(report.original),
            "rewritten": repr(report.rewritten),
            "choices": choices,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def observe() -> dict[str, str]:
    return {
        label: digest(optimize_program(source, function, catalog, options=options))
        for label, source, function, catalog, options in bundled_units()
    }


@pytest.fixture(scope="module")
def observed():
    return observe()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_bundled_unit(pinned):
    assert sorted(pinned) == sorted(label for label, *_ in bundled_units())


def test_every_unit_matches_pinned(observed, pinned):
    moved = sorted(label for label in pinned if observed.get(label) != pinned[label])
    assert moved == []


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(observe(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")
