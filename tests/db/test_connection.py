"""Simulated connection accounting tests."""

from repro.algebra import AggCall, AggItem, Aggregate, Col, Table
from repro.db import Connection, CostParameters, describe_plan
from repro.sqlparse import parse_query, parse_template


class TestAccounting:
    def test_round_trip_counted(self, database):
        conn = Connection(database)
        conn.execute_query(Table("project"))
        assert conn.stats.round_trips == 1
        assert conn.stats.queries_executed == 1

    def test_rows_and_bytes(self, database):
        conn = Connection(database)
        rows = conn.execute_query(Table("project"))
        assert conn.stats.rows_transferred == len(rows) == 4
        assert conn.stats.bytes_transferred > 0

    def test_aggregate_transfers_single_row(self, database):
        conn = Connection(database)
        rel = Aggregate(Table("board"), (), (AggItem(AggCall("max", Col("p1")), "m"),))
        conn.execute_query(rel)
        assert conn.stats.rows_transferred == 1

    def test_simulated_time_accumulates(self, database):
        conn = Connection(database)
        conn.execute_query(Table("project"))
        first = conn.stats.simulated_time_ms
        conn.execute_query(Table("project"))
        assert conn.stats.simulated_time_ms > first

    def test_per_query_round_trip_dominates_many_small_queries(self, database):
        """N scalar queries cost ~N round trips; one join costs one."""
        slow = Connection(database, CostParameters(round_trip_ms=1.0))
        for _ in range(10):
            slow.execute_query(Table("role"))
        many = slow.stats.simulated_time_ms

        one = Connection(database, CostParameters(round_trip_ms=1.0))
        one.execute_query(Table("role"))
        single = one.stats.simulated_time_ms
        assert many > 9 * single

    def test_reset(self, database):
        conn = Connection(database)
        conn.execute_query(Table("project"))
        conn.reset_stats()
        assert conn.stats.queries_executed == 0

    def test_query_log(self, database):
        conn = Connection(database, log_queries=True)
        conn.execute_query(Table("project"))
        assert conn.stats.query_log == [str(Table("project"))]

    def test_query_log_binds_lifted_literals(self, database):
        """A template executes with hidden parameters; the log shows the
        query as issued, literals in place, user parameters left named."""
        text = "from board as b where b.rnd_id = 2 and b.p1 != 'x' and b.id = :k"
        tree, params, _ = parse_template(text, database.template_cache)
        conn = Connection(database, log_queries=True)
        conn.execute_query(tree, {**params, "k": 3})
        assert conn.stats.query_log == [str(parse_query(text))]
        assert "= 2" in conn.stats.query_log[0]
        assert ":k" in conn.stats.query_log[0]

    def test_snapshot_keys(self, database):
        conn = Connection(database)
        conn.execute_query(Table("project"))
        snap = conn.stats.snapshot()
        assert {"queries_executed", "rows_transferred", "bytes_transferred"} <= set(snap)


class TestScannedEstimate:
    def test_scan_counts_base_cardinality(self, database):
        conn = Connection(database)
        conn.execute_query(Table("project"))
        assert conn.stats.rows_scanned == 4

    def test_join_counts_both_tables(self, database):
        conn = Connection(database)
        conn.execute_query(parse_query("select * from wilosuser u join role r on r.id = u.role_id"))
        assert conn.stats.rows_scanned == 3 + 2


def test_describe_plan(database):
    rel = parse_query("select name from project where finished = false order by name")
    text = describe_plan(rel)
    assert "scan" in text and "σ" in text and "π" in text and "τ" in text
