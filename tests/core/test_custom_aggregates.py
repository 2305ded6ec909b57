"""User-defined aggregate tests (paper Section 5.2's UDF fallback)."""

import math

import pytest

from repro import Catalog, Connection, Database
from repro.core import extract_sql
from repro.interp import Interpreter
from repro.rewrite import eliminate_dead_code, insert_extractions
from repro.sqlparse import bind_lifted, parse_query, parse_template

PRODUCT_SOURCE = """
prod() {
    q = executeQuery("from Factors as f");
    p = 1;
    for (t : q) { p = p * t.getX(); }
    return p;
}
"""


@pytest.fixture
def factors_catalog():
    catalog = Catalog()
    catalog.define("factors", ["id", "x"], key=("id",))
    return catalog


@pytest.fixture
def factors_db(factors_catalog):
    db = Database(factors_catalog)
    db.register_aggregate(
        "product", lambda values: math.prod(values) if values else None
    )
    db.insert_many("factors", [{"id": 1, "x": 2}, {"id": 2, "x": 3}, {"id": 3, "x": 7}])
    return db


class TestCustomAggregates:
    def test_product_fold_fails_without_registration(self, factors_catalog):
        report = extract_sql(PRODUCT_SOURCE, "prod", factors_catalog)
        assert report.status == "failed"

    def test_product_fold_extracts_with_registration(self, factors_catalog):
        report = extract_sql(
            PRODUCT_SOURCE,
            "prod",
            factors_catalog,
            custom_aggregates={"*": ("product", 1)},
        )
        assert report.status == "success"
        assert "PRODUCT(x)" in report.variables["p"].sql
        assert "T5.1-custom" in report.variables["p"].rule_trace

    def test_runtime_equivalence(self, factors_catalog, factors_db):
        report = extract_sql(
            PRODUCT_SOURCE,
            "prod",
            factors_catalog,
            custom_aggregates={"*": ("product", 1)},
        )
        extraction = report.variables["p"]
        rewritten = insert_extractions(
            report.original, "prod", {extraction.loop_sid: [("p", extraction.node)]}
        )
        rewritten = eliminate_dead_code(rewritten, "prod")
        c1, c2 = Connection(factors_db), Connection(factors_db)
        r1 = Interpreter(report.original, c1).run("prod")
        r2 = Interpreter(rewritten, c2).run("prod")
        assert r1 == r2 == 42

    def test_empty_input_falls_back_to_initial_value(self, factors_catalog):
        db = Database(factors_catalog)
        db.register_aggregate(
            "product", lambda values: math.prod(values) if values else None
        )
        report = extract_sql(
            PRODUCT_SOURCE,
            "prod",
            factors_catalog,
            custom_aggregates={"*": ("product", 1)},
        )
        extraction = report.variables["p"]
        rewritten = insert_extractions(
            report.original, "prod", {extraction.loop_sid: [("p", extraction.node)]}
        )
        rewritten = eliminate_dead_code(rewritten, "prod")
        conn = Connection(db)
        assert Interpreter(rewritten, conn).run("prod") == 1

    def test_engine_evaluates_registered_aggregate(self, factors_db):
        rows = factors_db.execute(parse_query("select product(x) as p from factors"))
        assert rows == [{"p": 42}]

    def test_registered_aggregate_in_group_by(self, factors_db):
        factors_db.insert("factors", {"id": 4, "x": 5})
        rows = factors_db.execute(
            parse_query("select product(x) as p from factors group by id")
        )
        assert len(rows) == 4

    def test_unregistered_aggregate_raises(self, factors_catalog):
        from repro.db import EngineError
        from repro.sqlparse import register_aggregate_name

        register_aggregate_name("mystery")
        db = Database(factors_catalog)
        db.insert("factors", {"id": 1, "x": 2})
        with pytest.raises(EngineError):
            db.execute(parse_query("select mystery(x) as m from factors"))

    def test_registration_retires_cached_templates(self, factors_catalog):
        """``name(...)`` parses as an aggregate call once registered, so a
        template cached before the registration must not be reused."""
        db = Database(factors_catalog)
        text = "select spread(x) as s from factors where id = 1"
        before, lits, _ = parse_template(text, db.template_cache)
        db.register_aggregate("spread", lambda values: max(values) - min(values))
        after, _, _ = parse_template(text, db.template_cache)
        assert bind_lifted(after, lits) == parse_query(text)
        assert after != before
