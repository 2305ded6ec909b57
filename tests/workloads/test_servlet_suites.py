"""Experiment 3 servlet-suite tests (RuBiS / RuBBoS / AcadPortal)."""

import re

import pytest

from repro.core import optimize_program
from repro.db import Connection
from repro.interp import Interpreter
from repro.workloads import (
    ACADPORTAL_SERVLETS,
    RUBBOS_SERVLETS,
    RUBIS_SERVLETS,
    acadportal_catalog,
    acadportal_database,
    rubbos_catalog,
    rubbos_database,
    rubis_catalog,
    rubis_database,
    servlet_extracted,
)


class TestSuiteSizes:
    def test_rubis_has_17_servlets(self):
        assert len(RUBIS_SERVLETS) == 17

    def test_rubbos_has_16_servlets(self):
        assert len(RUBBOS_SERVLETS) == 16

    def test_acadportal_has_79_servlets(self):
        assert len(ACADPORTAL_SERVLETS) == 79

    def test_acadportal_expected_split(self):
        extractable = sum(1 for s in ACADPORTAL_SERVLETS if s.expected_extractable)
        assert extractable == 58

    def test_names_unique(self):
        for suite in (RUBIS_SERVLETS, RUBBOS_SERVLETS, ACADPORTAL_SERVLETS):
            names = [s.name for s in suite]
            assert len(names) == len(set(names))


class TestExtractionFractions:
    def _count(self, servlets, catalog):
        return sum(
            servlet_extracted(
                optimize_program(s.source, s.function, catalog)
            )
            for s in servlets
        )

    def test_rubis_full_extraction(self):
        assert self._count(RUBIS_SERVLETS, rubis_catalog()) == 17

    def test_rubbos_full_extraction(self):
        assert self._count(RUBBOS_SERVLETS, rubbos_catalog()) == 16

    def test_acadportal_58_of_79(self):
        assert self._count(ACADPORTAL_SERVLETS, acadportal_catalog()) == 58

    def test_per_servlet_expectation(self):
        catalog = acadportal_catalog()
        for servlet in ACADPORTAL_SERVLETS:
            report = optimize_program(servlet.source, servlet.function, catalog)
            assert servlet_extracted(report) == servlet.expected_extractable, servlet.name


class TestServletEquivalence:
    """Rewritten servlets print exactly what the originals print."""

    @pytest.mark.parametrize("servlet", RUBIS_SERVLETS[:8], ids=lambda s: s.name)
    def test_rubis_output_preserved(self, servlet):
        catalog = rubis_catalog()
        db = rubis_database(scale=30, catalog=catalog)
        report = optimize_program(servlet.source, servlet.function, catalog)
        assert report.rewritten is not None
        c1, c2 = Connection(db), Connection(db)
        i1 = Interpreter(report.original, c1)
        i1.run(servlet.function)
        i2 = Interpreter(report.rewritten, c2)
        i2.run(servlet.function)
        assert i1.last_out == i2.last_out

    @pytest.mark.parametrize("servlet", RUBBOS_SERVLETS[:6], ids=lambda s: s.name)
    def test_rubbos_output_preserved(self, servlet):
        catalog = rubbos_catalog()
        db = rubbos_database(scale=30, catalog=catalog)
        report = optimize_program(servlet.source, servlet.function, catalog)
        c1, c2 = Connection(db), Connection(db)
        i1 = Interpreter(report.original, c1)
        i1.run(servlet.function)
        i2 = Interpreter(report.rewritten, c2)
        i2.run(servlet.function)
        assert i1.last_out == i2.last_out

    def test_acadportal_join_servlet(self):
        catalog = acadportal_catalog()
        db = acadportal_database(scale=20, catalog=catalog)
        servlet = next(s for s in ACADPORTAL_SERVLETS if s.name == "StudentGrades")
        report = optimize_program(servlet.source, servlet.function, catalog)
        c1, c2 = Connection(db), Connection(db)
        i1 = Interpreter(report.original, c1)
        i1.run(servlet.function)
        i2 = Interpreter(report.rewritten, c2)
        i2.run(servlet.function)
        assert i1.last_out == i2.last_out
        assert c2.stats.queries_executed < c1.stats.queries_executed


#: A literal right after ``=`` or ``!=`` in a logged query: the part of the
#: text a query template lifts out of the shape.
_EQUALITY_LITERAL = re.compile(r"(=|!=) ('[^']*'|\d+(?:\.\d+)?)\)")


class TestQueryTemplates:
    """The as-written N+1 servlets, at the verification-replica scale, plan
    once per distinct query shape rather than once per query, and still
    print what their rewritten counterparts print."""

    @pytest.mark.parametrize(
        "suite, catalog_of, database_of",
        [
            (RUBIS_SERVLETS, rubis_catalog, rubis_database),
            (ACADPORTAL_SERVLETS, acadportal_catalog, acadportal_database),
        ],
        ids=["rubis", "acadportal"],
    )
    def test_one_plan_per_query_shape(self, suite, catalog_of, database_of):
        catalog = catalog_of()
        original_db = database_of(catalog=catalog)
        rewritten_db = database_of(catalog=catalog)
        shapes: set[str] = set()
        queries = 0
        for servlet in suite:
            report = optimize_program(servlet.source, servlet.function, catalog)
            if report.rewritten is None:
                continue
            conn = Connection(original_db, log_queries=True)
            original = Interpreter(report.original, conn)
            original.run(servlet.function)
            rewritten = Interpreter(report.rewritten, Connection(rewritten_db))
            rewritten.run(servlet.function)
            assert original.last_out == rewritten.last_out, servlet.name
            queries += conn.stats.queries_executed
            shapes.update(
                _EQUALITY_LITERAL.sub(r"\1 ?)", text) for text in conn.stats.query_log
            )
        assert original_db.plan_cache_misses == len(shapes)
        assert queries > 10 * len(shapes)
