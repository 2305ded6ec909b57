"""Plans and outputs of the rewritten servlets under a stream of writes.

``Database.insert`` extends the column arrays, hash indexes and exact
statistics of a table in place.  The maintained statistics must equal a
full rebuild, so after every write each rewritten servlet must choose the
same physical plans, and print the same output, as on a database loaded
with the same rows in one go; and every table's statistics must equal
that database's.
"""

from __future__ import annotations

import random

import pytest

from repro.core import optimize_program
from repro.db import Connection, Database
from repro.interp import Interpreter
from repro.workloads import (
    ACADPORTAL_SERVLETS,
    RUBIS_SERVLETS,
    acadportal_catalog,
    acadportal_database,
    rubis_catalog,
    rubis_database,
)

#: Writes per fact table; each copies a random row under a fresh key.
WRITES = 20

#: Keys of written rows start above every generated key.
FIRST_WRITTEN_KEY = 10_000_000


def _programs(suite, catalog) -> list[tuple[str, object]]:
    programs = []
    for servlet in suite:
        report = optimize_program(servlet.source, servlet.function, catalog)
        if report.rewritten is not None:
            programs.append((servlet.function, report.rewritten))
    return programs


def _run_all(programs, db: Database) -> tuple[list, list[dict]]:
    """Every program's printed output, and the explain tree of every query
    the programs ran, in order."""
    trees: list[dict] = []
    execute_explained = db.execute_explained

    def recording(query, params=None, engine=None):
        rows, explain = execute_explained(query, params, engine)
        trees.append(explain)
        return rows, explain

    db.execute_explained = recording
    try:
        outputs = []
        for function, program in programs:
            interpreter = Interpreter(program, Connection(db))
            interpreter.run(function)
            outputs.append(interpreter.last_out)
    finally:
        del db.execute_explained
    return outputs, trees


def _loaded_in_one_go(db: Database) -> Database:
    fresh = Database(db.catalog, default_engine="both")
    for table in db.table_names():
        fresh.insert_many(table, db.rows(table))
    return fresh


@pytest.mark.parametrize(
    "suite, catalog_of, database_of, fact_tables",
    [
        (RUBIS_SERVLETS, rubis_catalog, rubis_database, ("items", "bids", "comments")),
        (
            ACADPORTAL_SERVLETS,
            acadportal_catalog,
            acadportal_database,
            ("students", "enrollment"),
        ),
    ],
    ids=["rubis", "acadportal"],
)
def test_write_stream_keeps_plans_and_outputs(
    suite, catalog_of, database_of, fact_tables
):
    catalog = catalog_of()
    db = database_of(scale=40, catalog=catalog)
    db.default_engine = "both"
    programs = _programs(suite, catalog)
    _run_all(programs, db)  # builds statistics, arrays and indexes
    rng = random.Random(5)
    for key in range(FIRST_WRITTEN_KEY, FIRST_WRITTEN_KEY + WRITES):
        for table in fact_tables:
            row = dict(rng.choice(db.rows(table)))
            row[catalog.get(table).key[0]] = key
            db.insert(table, row)
        outputs, trees = _run_all(programs, db)
        fresh = _loaded_in_one_go(db)
        expected_outputs, expected_trees = _run_all(programs, fresh)
        assert outputs == expected_outputs
        assert trees == expected_trees
        for table in db.table_names():
            assert db.stats(table) == fresh.stats(table)
