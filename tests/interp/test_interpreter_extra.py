"""Additional interpreter coverage: classic for loops, augmented ops,
nested functions, cursor API details."""

import pytest

from repro.db import Connection
from repro.interp import Interpreter, InterpreterError
from repro.lang import parse_program
from repro.sqlparse import parse_query


def run(source, database, function="main", args=()):
    conn = Connection(database)
    interp = Interpreter(parse_program(source), conn)
    return interp.run(function, *args), interp, conn


class TestClassicForLoop:
    def test_counts(self, database):
        result, _, _ = run(
            "main() { s = 0; for (i = 0; i < 5; i++) { s = s + i; } return s; }",
            database,
        )
        assert result == 10

    def test_empty_iteration(self, database):
        result, _, _ = run(
            "main() { s = 0; for (i = 9; i < 5; i++) { s = s + 1; } return s; }",
            database,
        )
        assert result == 0

    def test_augmented_assignment(self, database):
        result, _, _ = run(
            "main() { s = 1; s += 4; s *= 2; s -= 3; s /= 1; return s; }",
            database,
        )
        assert result == 7


class TestCursorDetails:
    def test_cursor_next_past_end(self, database):
        source = """
        main() {
            rs = executeQueryCursor("select id from role");
            n = 0;
            while (rs.next()) { n = n + 1; }
            more = rs.next();
            return more;
        }
        """
        result, _, _ = run(source, database)
        assert result is False

    def test_getstring_before_next_raises(self, database):
        source = """
        main() {
            rs = executeQueryCursor("select id from role");
            return rs.getInt("id");
        }
        """
        with pytest.raises(Exception):
            run(source, database)

    def test_qualified_column_access(self, database):
        source = """
        main() {
            rows = executeQuery("select u.name from wilosuser u join role r on r.id = u.role_id");
            xs = new ArrayList();
            for (t : rows) { xs.add(t.getName()); }
            return xs;
        }
        """
        result, _, _ = run(source, database)
        assert result == ["ann", "bob", "cat"]


class TestEntitySemantics:
    def test_entities_compare_by_plain_columns(self, database):
        source = """
        main() {
            a = executeQuery("select id from role where id = 1");
            b = executeQuery("select r.id from role r where r.id = 1");
            return a.get(0) == b.get(0);
        }
        """
        result, _, _ = run(source, database)
        assert result is True

    def test_entity_in_set_dedups(self, database):
        source = """
        main() {
            s = new HashSet();
            a = executeQuery("select id from role where id = 1");
            s.add(a.get(0));
            b = executeQuery("select id from role where id = 1");
            s.add(b.get(0));
            return s.size();
        }
        """
        result, _, _ = run(source, database)
        assert result == 1

    def test_missing_column_raises(self, database):
        source = """
        main() {
            rows = executeQuery("select id from role");
            for (t : rows) { return t.getNothing(); }
        }
        """
        with pytest.raises(Exception):
            run(source, database)


class TestStringsAndNulls:
    def test_string_methods_chain(self, database):
        result, _, _ = run(
            'main() { return "  HeLLo ".trim().toLowerCase().substring(0, 4); }',
            database,
        )
        assert result == "hell"

    def test_null_method_call_raises(self, database):
        with pytest.raises(InterpreterError):
            run("main() { x = null; return x.size(); }", database)

    def test_equals_ignore_case(self, database):
        result, _, _ = run(
            'main() { return "ABC".equalsIgnoreCase("abc"); }', database
        )
        assert result is True


class TestOutputVar:
    def test_last_out_tracks_final_state(self, database):
        source = """
        main() {
            __out__ = new ArrayList();
            __out__.add(1);
            __out__.add(2);
            return 0;
        }
        """
        _, interp, _ = run(source, database)
        assert interp.last_out == [1, 2]

    def test_last_out_none_without_out_var(self, database):
        _, interp, _ = run("main() { return 0; }", database)
        assert interp.last_out is None


class TestQueryTemplates:
    """Queries run as literal-lifted templates: one parse and one plan per
    shape, with the issued text still visible in the query log."""

    N_PLUS_ONE = """
    main() {
        projects = executeQuery("from project as p");
        total = 0;
        for (p : projects) {
            boards = executeQuery("select b.p1 from board b where b.rnd_id = " + p.getId());
            for (b : boards) { total = total + b.getP1(); }
        }
        return total;
    }
    """

    def test_n_plus_one_logs_its_literal_values(self, database):
        conn = Connection(database, log_queries=True)
        result = Interpreter(parse_program(self.N_PLUS_ONE), conn).run("main")
        assert result == 110
        inner = "select b.p1 from board b where b.rnd_id = {}"
        assert conn.stats.query_log == [str(parse_query("from project as p"))] + [
            str(parse_query(inner.format(n))) for n in (1, 2, 3, 4)
        ]

    def test_n_plus_one_plans_each_shape_once(self, database):
        result, _, conn = run(self.N_PLUS_ONE, database)
        assert result == 110
        assert conn.stats.queries_executed == 5
        assert database.plan_cache_misses == 2
        assert database.plan_cache_hits == 3
        assert len(database.template_cache) == 2

    def test_unbound_parameter_raises(self, database):
        source = 'main() { return executeQuery("from board as b where b.id = 1 and b.p1 = :missing"); }'
        with pytest.raises(InterpreterError, match=":missing is unbound"):
            run(source, database)
