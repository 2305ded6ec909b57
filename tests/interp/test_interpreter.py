"""MiniJava interpreter tests."""

import pytest

from repro.db import Connection
from repro.interp import Interpreter, InterpreterError, run_program
from repro.interp.interpreter import MAX_CALL_DEPTH
from repro.lang import parse_program


def run(source, database, function="main", args=()):
    conn = Connection(database)
    interp = Interpreter(parse_program(source), conn)
    result = interp.run(function, *args)
    return result, interp, conn


class TestBasics:
    def test_arithmetic(self, database):
        result, _, _ = run("main() { return 2 + 3 * 4; }", database)
        assert result == 14

    def test_integer_division_truncates(self, database):
        result, _, _ = run("main() { return 7 / 2; }", database)
        assert result == 3

    def test_float_division(self, database):
        result, _, _ = run("main() { return 7.0 / 2; }", database)
        assert result == 3.5

    def test_string_concat_coerces(self, database):
        result, _, _ = run('main() { return "x=" + 1; }', database)
        assert result == "x=1"

    def test_variables_and_reassignment(self, database):
        result, _, _ = run("main() { x = 1; x = x + 1; return x; }", database)
        assert result == 2

    def test_function_args(self, database):
        result, _, _ = run("f(a, b) { return a * b; }", database, "f", (3, 4))
        assert result == 12

    def test_unbound_variable_raises(self, database):
        with pytest.raises(InterpreterError):
            run("main() { return nope; }", database)

    def test_ternary(self, database):
        result, _, _ = run("main() { return 1 > 0 ? 10 : 20; }", database)
        assert result == 10

    def test_short_circuit_and(self, database):
        # RHS would fail (unbound) if evaluated.
        result, _, _ = run("main() { return false && nope > 1; }", database)
        assert result is False


class TestControlFlow:
    def test_if_else(self, database):
        source = "main(x) { if (x > 0) { return 1; } else { return -1; } }"
        assert run(source, database, "main", (5,))[0] == 1
        assert run(source, database, "main", (-5,))[0] == -1

    def test_while(self, database):
        result, _, _ = run(
            "main() { i = 0; s = 0; while (i < 5) { s = s + i; i = i + 1; } return s; }",
            database,
        )
        assert result == 10

    def test_break(self, database):
        result, _, _ = run(
            "main() { s = 0; for (x : items) { if (x > 1) { break; } s = s + x; } return s; }",
            database,
            "main",
        ) if False else (None, None, None)
        # break needs a collection; exercise with a literal list via new ArrayList
        source = """
        main() {
            items = new ArrayList();
            items.add(1); items.add(5); items.add(1);
            s = 0;
            for (x : items) { if (x > 1) { break; } s = s + x; }
            return s;
        }
        """
        assert run(source, database)[0] == 1

    def test_continue(self, database):
        source = """
        main() {
            items = new ArrayList();
            items.add(1); items.add(2); items.add(3);
            s = 0;
            for (x : items) { if (x == 2) { continue; } s = s + x; }
            return s;
        }
        """
        assert run(source, database)[0] == 4

    def test_step_limit_stops_infinite_loop(self, database):
        conn = Connection(database)
        interp = Interpreter(
            parse_program("main() { while (true) { x = 1; } }"), conn, max_steps=1000
        )
        with pytest.raises(InterpreterError):
            interp.run("main")

    def test_try_catch_finally(self, database):
        source = """
        main(mode) {
            try {
                print("try");
                if (mode == 1) { return nope; }
                if (mode == 2) { return 2; }
            } catch (Exception e) {
                print("catch");
            } finally {
                print("finally");
                if (mode == 3) { return 3; }
            }
            return 0;
        }
        """
        for mode, result, output in [
            (0, 0, ["try", "finally"]),
            (1, 0, ["try", "catch", "finally"]),
            (2, 2, ["try", "finally"]),
            (3, 3, ["try", "finally"]),
        ]:
            value, interp, _ = run(source, database, "main", (mode,))
            assert (value, interp.output) == (result, output)
        # Without a catch the error propagates after ``finally`` ran, unless
        # ``finally`` returns.
        source = "main(r) { try { x = nope; } finally { print(1); if (r) { return 5; } } }"
        assert run(source, database, "main", (True,))[0] == 5
        interp = Interpreter(parse_program(source), Connection(database))
        with pytest.raises(InterpreterError, match="unbound variable 'nope'"):
            interp.run("main", False)
        assert interp.output == ["1"]

    FOR_EACH = """
    main() {
        xs = new ArrayList();
        xs.add(1); xs.add(2); xs.add(3);
        for (x : xs) { print(x); }
    }
    """

    def test_step_accounting(self, database):
        # One step per statement and per expression: 2 for the assignment,
        # 4 per add, 2 for the loop head, 3 per print (statement, call, x).
        _, interp, _ = run(self.FOR_EACH, database)
        assert interp.steps == 2 + 3 * 4 + 2 + 3 * 3
        # A while counts one more step per iteration: 2 + 1 + 2 * (3 + 1 + 4) + 3.
        source = "main() { i = 0; while (i < 2) { i = i + 1; } }"
        assert run(source, database)[1].steps == 22

    def test_step_limit_fires_inside_for_each_body(self, database):
        # Step 20 is the second print statement.
        interp = Interpreter(
            parse_program(self.FOR_EACH), Connection(database), max_steps=19
        )
        with pytest.raises(InterpreterError, match="step limit"):
            interp.run("main")
        assert interp.output == ["1"]
        assert interp.steps == 20

    def test_step_limit_fires_inside_nested_expression(self, database):
        source = 'main() { print("a"); return 1 + (2 * (3 - nope)); }'
        # print: 3 steps; return, +, 1, *, 2, -, 3: 7 more; ``nope`` is 11.
        interp = Interpreter(parse_program(source), Connection(database), max_steps=10)
        with pytest.raises(InterpreterError, match="step limit"):
            interp.run("main")
        assert interp.output == ["a"]
        assert interp.steps == 11
        # One step more and the unbound name is what fails.
        interp = Interpreter(parse_program(source), Connection(database), max_steps=11)
        with pytest.raises(InterpreterError, match="unbound variable 'nope'"):
            interp.run("main")

    def test_unevaluable_code_in_a_dead_branch_does_not_fail(self, database):
        source = """
        main(flag) {
            if (flag) {
                w = new Widget();
                m = Math.abs();
                s = executeScalar();
                n = 1 + w.frobnicate(m, s);
                break;
            }
            return 7;
        }
        """
        assert run(source, database, "main", (False,))[0] == 7
        with pytest.raises(InterpreterError, match="unknown class 'Widget'"):
            run(source, database, "main", (True,))


class TestFaults:
    """Faults raise InterpreterError where they are reached, never a Python
    IndexError or RuntimeError, so a MiniJava try/catch sees them."""

    @pytest.mark.parametrize(
        "expr, message",
        [
            ("executeScalar()", "executeScalar takes 1 argument, got 0"),
            ("executeExists()", "executeExists takes 1 argument, got 0"),
            ('registerTempTable("t")', "registerTempTable takes 2 arguments, got 1"),
            ("Math.abs()", r"Math.abs takes 1 argument, got 0"),
            ("new ArrayList().get()", r"list.get takes 1 argument, got 0"),
        ],
    )
    def test_wrong_argument_count(self, database, expr, message):
        with pytest.raises(InterpreterError, match=message):
            run(f"main() {{ return {expr}; }}", database)

    def test_unpositioned_cursor_is_catchable(self, database):
        source = """
        main() {
            rs = executeQueryCursor("select id from role");
            try { x = rs.getString("id"); } catch (Exception e) { return "caught"; }
            return "missed";
        }
        """
        assert run(source, database)[0] == "caught"

    def test_unbounded_recursion_hits_the_call_depth_limit(self, database):
        source = "f(n) { return f(n + 1); }"
        with pytest.raises(InterpreterError, match="call depth limit exceeded"):
            run(source, database, "f", (0,))

    def test_call_depth_limit_is_exact(self, database):
        source = "g(n) { if (n <= 1) { return 1; } return 1 + g(n - 1); }"
        assert run(source, database, "g", (MAX_CALL_DEPTH,))[0] == MAX_CALL_DEPTH
        with pytest.raises(InterpreterError, match="call depth limit exceeded"):
            run(source, database, "g", (MAX_CALL_DEPTH + 1,))


class TestCollections:
    def test_list_methods(self, database):
        source = """
        main() {
            xs = new ArrayList();
            xs.add(3); xs.add(1);
            return xs.size() + xs.get(0);
        }
        """
        assert run(source, database)[0] == 5

    def test_set_dedups(self, database):
        source = """
        main() {
            s = new HashSet();
            s.add(1); s.add(1); s.add(2);
            return s.size();
        }
        """
        assert run(source, database)[0] == 2

    def test_map(self, database):
        source = """
        main() {
            m = new HashMap();
            m.put("a", 1);
            return m.get("a") + m.size();
        }
        """
        assert run(source, database)[0] == 2

    def test_pair(self, database):
        source = 'main() { p = new Pair(1, "x"); return p.getSecond(); }'
        assert run(source, database)[0] == "x"

    def test_string_builder(self, database):
        source = """
        main() {
            sb = new StringBuilder();
            sb.append("a"); sb.append(1);
            return sb.toString();
        }
        """
        assert run(source, database)[0] == "a1"


class TestQueries:
    def test_execute_query_returns_entities(self, database):
        source = """
        main() {
            rows = executeQuery("select name from project where finished = false");
            names = new ArrayList();
            for (r : rows) { names.add(r.getName()); }
            return names;
        }
        """
        assert run(source, database)[0] == ["alpha", "gamma"]

    def test_hql_query(self, database):
        source = """
        main() {
            rows = executeQuery("from Project as p");
            return rows.size();
        }
        """
        assert run(source, database)[0] == 4

    def test_named_parameter_binds_from_env(self, database):
        source = """
        main(r) {
            rows = executeQuery("select * from board where rnd_id = :r");
            return rows.size();
        }
        """
        assert run(source, database, "main", (1,))[0] == 2

    def test_string_concat_query(self, database):
        source = """
        main() {
            lim = 2;
            rows = executeQuery("select * from board where rnd_id = " + lim);
            return rows.size();
        }
        """
        assert run(source, database)[0] == 1

    def test_execute_scalar(self, database):
        source = 'main() { return executeScalar("select max(p1) from board"); }'
        assert run(source, database)[0] == 99

    def test_execute_scalar_empty_is_null(self, database):
        source = 'main() { return executeScalar("select p1 from board where id = 999"); }'
        assert run(source, database)[0] is None

    def test_execute_exists(self, database):
        source = 'main() { return executeExists("select * from role where id = 1"); }'
        assert run(source, database)[0] is True

    def test_cursor_while_loop(self, database):
        source = """
        main() {
            rs = executeQueryCursor("select p1 from board");
            total = 0;
            while (rs.next()) {
                total = total + rs.getInt("p1");
            }
            return total;
        }
        """
        assert run(source, database)[0] == 110

    def test_entity_getter_and_field(self, database):
        source = """
        main() {
            rows = executeQuery("from Board as b where b.id = 3");
            for (t : rows) { return t.getP1() + t.p2; }
        }
        """
        assert run(source, database)[0] == 101


class TestOutput:
    def test_print_captured(self, database):
        _, interp, _ = run('main() { print("hello"); print(42); }', database)
        assert interp.output == ["hello", "42"]

    def test_system_out_println(self, database):
        _, interp, _ = run('main() { System.out.println("x"); }', database)
        assert interp.output == ["x"]

    def test_null_prints_as_null(self, database):
        _, interp, _ = run("main() { print(null); }", database)
        assert interp.output == ["null"]


class TestUserFunctions:
    def test_call_user_function(self, database):
        source = """
        double(x) { return x * 2; }
        main() { return double(21); }
        """
        assert run(source, database)[0] == 42

    def test_recursive_function(self, database):
        source = """
        fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        main() { return fact(5); }
        """
        assert run(source, database)[0] == 120

    def test_wrong_arity_raises(self, database):
        source = "f(a) { return a; } main() { return f(1, 2); }"
        with pytest.raises(InterpreterError):
            run(source, database)


def test_run_program_helper(database):
    conn = Connection(database)
    result, output = run_program(
        'main() { print("a"); return 7; }', conn, "main"
    )
    assert result == 7
    assert output == ["a"]
