"""Tree-walking interpreter for MiniJava programs over the DB substrate.

The interpreter serves two roles in the reproduction:

* *equivalence checking* — the extracted SQL must produce the same value the
  original imperative code computes (paper Theorem 1); tests run both.
* *performance experiments* — Experiments 5–8 execute original and rewritten
  programs against the simulated connection and compare time/transfer.

``executeQuery("...")`` strings may contain named parameters (``:x``) that
are bound from the program environment at call time, mirroring how the
paper's D-IR resolves query parameters to program variables.  Query text is
parsed as a literal-lifted template (:func:`repro.sqlparse.parse_template`),
so the N+1 texts a loop concatenates share one tree and one cached plan.
"""

from __future__ import annotations

from typing import Any

from ..db import Connection
from ..lang import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    FieldAccess,
    FloatLit,
    ForEach,
    FunctionDef,
    If,
    IntLit,
    MethodCall,
    Name,
    New,
    NullLit,
    Program,
    Return,
    Stmt,
    StringLit,
    Ternary,
    TryCatch,
    Unary,
    While,
)
from ..sqlparse import parse_template
from .values import (
    Entity,
    ResultCursor,
    StringBuilder,
    getter_to_column,
    setter_to_column,
    to_display,
)


class InterpreterError(Exception):
    """Raised on runtime failures in interpreted programs."""


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


_COLLECTION_CLASSES = {"ArrayList", "LinkedList", "List", "Vector"}
_SET_CLASSES = {"HashSet", "TreeSet", "Set", "LinkedHashSet"}
_MAP_CLASSES = {"HashMap", "TreeMap", "Map", "LinkedHashMap"}


class Interpreter:
    """Executes a MiniJava :class:`Program` against a :class:`Connection`."""

    def __init__(self, program: Program, connection: Connection, max_steps: int = 10_000_000):
        self._program = program
        self._connection = connection
        self._max_steps = max_steps
        self._steps = 0
        self.output: list[str] = []
        #: Final value of the ``__out__`` collection of the last-run
        #: function (set by print-preprocessing; used by equivalence tests).
        self.last_out: Any = None

    # ------------------------------------------------------------------
    # Entry points

    def run(self, function_name: str, *args: Any) -> Any:
        """Run a named function with positional arguments; return its value."""
        func = self._program.function(function_name)
        return self._call_function(func, list(args))

    def _call_function(self, func: FunctionDef, args: list[Any]) -> Any:
        if len(args) != len(func.params):
            raise InterpreterError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        env = dict(zip(func.params, args))
        try:
            self._exec_block(func.body, env)
        except _ReturnSignal as signal:
            self.last_out = env.get("__out__", self.last_out)
            return signal.value
        self.last_out = env.get("__out__", self.last_out)
        return None

    # ------------------------------------------------------------------
    # Statements

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self._max_steps:
            raise InterpreterError("step limit exceeded (possible infinite loop)")

    def _exec_block(self, block: Block, env: dict[str, Any]) -> None:
        for stmt in block.statements:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: Stmt, env: dict[str, Any]) -> None:
        self._tick()
        if isinstance(stmt, Assign):
            env[stmt.target] = self._eval(stmt.value, env)
            return
        if isinstance(stmt, ExprStmt):
            self._eval(stmt.expr, env)
            return
        if isinstance(stmt, Block):
            self._exec_block(stmt, env)
            return
        if isinstance(stmt, If):
            if self._truthy(self._eval(stmt.cond, env)):
                self._exec_block(stmt.then_body, env)
            elif stmt.else_body is not None:
                self._exec_block(stmt.else_body, env)
            return
        if isinstance(stmt, ForEach):
            iterable = self._eval(stmt.iterable, env)
            for item in self._iterate(iterable):
                env[stmt.var] = item
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, While):
            while self._truthy(self._eval(stmt.cond, env)):
                self._tick()
                try:
                    self._exec_block(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, Return):
            value = None if stmt.value is None else self._eval(stmt.value, env)
            raise _ReturnSignal(value)
        if isinstance(stmt, Break):
            raise _BreakSignal()
        if isinstance(stmt, Continue):
            raise _ContinueSignal()
        if isinstance(stmt, TryCatch):
            try:
                self._exec_block(stmt.try_body, env)
            except InterpreterError:
                if stmt.catch_body is not None:
                    self._exec_block(stmt.catch_body, env)
                else:
                    raise
            finally:
                if stmt.finally_body is not None:
                    self._exec_block(stmt.finally_body, env)
            return
        raise InterpreterError(f"cannot execute {type(stmt).__name__}")

    @staticmethod
    def _iterate(value: Any):
        if isinstance(value, ResultCursor):
            return iter(value)
        if isinstance(value, (list, tuple, set)):
            return iter(value)
        raise InterpreterError(f"value of type {type(value).__name__} is not iterable")

    @staticmethod
    def _truthy(value: Any) -> bool:
        if value is None:
            return False
        if isinstance(value, bool):
            return value
        raise InterpreterError(f"condition evaluated to non-boolean {value!r}")

    # ------------------------------------------------------------------
    # Expressions

    def _eval(self, expr: Expr, env: dict[str, Any]) -> Any:
        self._tick()
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, FloatLit):
            return expr.value
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, NullLit):
            return None
        if isinstance(expr, Name):
            if expr.ident not in env:
                raise InterpreterError(f"unbound variable {expr.ident!r}")
            return env[expr.ident]
        if isinstance(expr, Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, Unary):
            operand = self._eval(expr.operand, env)
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return not operand
            raise InterpreterError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Ternary):
            if self._truthy(self._eval(expr.cond, env)):
                return self._eval(expr.if_true, env)
            return self._eval(expr.if_false, env)
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        if isinstance(expr, MethodCall):
            return self._eval_method(expr, env)
        if isinstance(expr, FieldAccess):
            receiver = self._eval(expr.receiver, env)
            if isinstance(receiver, Entity):
                return receiver.get(expr.field)
            raise InterpreterError(
                f"cannot access field {expr.field!r} on {type(receiver).__name__}"
            )
        if isinstance(expr, New):
            return self._eval_new(expr, env)
        raise InterpreterError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binary(self, expr: Binary, env: dict[str, Any]) -> Any:
        if expr.op == "&&":
            return self._truthy(self._eval(expr.left, env)) and self._truthy(
                self._eval(expr.right, env)
            )
        if expr.op == "||":
            return self._truthy(self._eval(expr.left, env)) or self._truthy(
                self._eval(expr.right, env)
            )
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        op = expr.op
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return to_display(left) + to_display(right)
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                return left // right  # Java integer division
            return left / right
        if op == "%":
            return left % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        raise InterpreterError(f"unknown binary operator {op!r}")

    def _eval_call(self, expr: Call, env: dict[str, Any]) -> Any:
        if expr.func in ("executeQuery", "executeQueryCursor"):
            if len(expr.args) != 1:
                raise InterpreterError("executeQuery takes exactly one argument")
            text = self._eval(expr.args[0], env)
            rows = self._run_query(text, env)
            if expr.func == "executeQueryCursor":
                return ResultCursor(rows)
            return [Entity(row) for row in rows]
        if expr.func == "executeScalar":
            text = self._eval(expr.args[0], env)
            rows = self._run_query(text, env)
            if not rows:
                return None
            first = rows[0]
            plain = [v for k, v in first.items() if "." not in k]
            return plain[0] if plain else None
        if expr.func == "executeExists":
            text = self._eval(expr.args[0], env)
            return bool(self._run_query(text, env))
        if expr.func == "registerTempTable":
            name = self._eval(expr.args[0], env)
            collection = self._eval(expr.args[1], env)
            rows = []
            for element in collection:
                if isinstance(element, Entity):
                    rows.append({k: v for k, v in element.row.items() if "." not in k})
                else:
                    rows.append({"val": element})
            self._connection.ship_temp_table(name, rows)
            return None
        if expr.func in ("print", "println"):
            rendered = "".join(to_display(self._eval(a, env)) for a in expr.args)
            self.output.append(rendered)
            return None
        # User-defined function.
        try:
            func = self._program.function(expr.func)
        except KeyError:
            raise InterpreterError(f"unknown function {expr.func!r}") from None
        args = [self._eval(a, env) for a in expr.args]
        return self._call_function(func, args)

    def _run_query(self, text: str, env: dict[str, Any]) -> list[dict]:
        if not isinstance(text, str):
            raise InterpreterError("executeQuery argument must be a string")
        query, params, free = parse_template(
            text, self._connection.database.template_cache
        )
        for name in free:
            if name not in env:
                raise InterpreterError(f"query parameter :{name} is unbound")
            params[name] = env[name]
        return self._connection.execute_query(query, params)

    def _eval_method(self, expr: MethodCall, env: dict[str, Any]) -> Any:
        # Static library receivers (Math.max etc.) must not be evaluated as
        # variables.
        if isinstance(expr.receiver, Name) and expr.receiver.ident not in env:
            static = self._eval_static_method(expr, env)
            if static is not _NO_STATIC:
                return static
        if (
            isinstance(expr.receiver, FieldAccess)
            and isinstance(expr.receiver.receiver, Name)
            and expr.receiver.receiver.ident == "System"
        ):
            # System.out.println(...)
            rendered = "".join(to_display(self._eval(a, env)) for a in expr.args)
            self.output.append(rendered)
            return None
        receiver = self._eval(expr.receiver, env)
        args = [self._eval(a, env) for a in expr.args]
        return self._dispatch_method(receiver, expr.method, args)

    def _eval_static_method(self, expr: MethodCall, env: dict[str, Any]) -> Any:
        assert isinstance(expr.receiver, Name)
        class_name = expr.receiver.ident
        method = expr.method
        if class_name == "Math":
            args = [self._eval(a, env) for a in expr.args]
            if method == "max":
                return max(args)
            if method == "min":
                return min(args)
            if method == "abs":
                return abs(args[0])
            raise InterpreterError(f"unknown Math method {method!r}")
        if class_name == "Integer" and method == "parseInt":
            return int(self._eval(expr.args[0], env))
        if class_name == "Double" and method == "parseDouble":
            return float(self._eval(expr.args[0], env))
        if class_name == "String" and method == "valueOf":
            return to_display(self._eval(expr.args[0], env))
        if class_name == "Collections":
            args = [self._eval(a, env) for a in expr.args]
            if method == "sort":
                args[0].sort()
                return None
            if method == "max":
                return max(args[0])
            if method == "min":
                return min(args[0])
        return _NO_STATIC

    def _dispatch_method(self, receiver: Any, method: str, args: list[Any]) -> Any:
        if isinstance(receiver, (ResultCursor,)):
            if method == "next":
                return receiver.next()
            # Delegate JDBC getters to the current row.
            return self._dispatch_method(receiver.current, method, args)
        if isinstance(receiver, Entity):
            if method in ("getString", "getInt", "getDouble", "getLong", "getBoolean", "getObject"):
                value = receiver.get(args[0])
                if method == "getInt" and value is not None:
                    return int(value)
                if method == "getDouble" and value is not None:
                    return float(value)
                return value
            column = getter_to_column(method)
            if column is not None and not args:
                return receiver.get(column)
            column = setter_to_column(method)
            if column is not None and len(args) == 1:
                receiver.row[column] = args[0]
                return None
            raise InterpreterError(f"unknown entity method {method!r}")
        if isinstance(receiver, list):
            return self._list_method(receiver, method, args)
        if isinstance(receiver, set):
            return self._set_method(receiver, method, args)
        if isinstance(receiver, dict):
            return self._map_method(receiver, method, args)
        if isinstance(receiver, str):
            return self._string_method(receiver, method, args)
        if isinstance(receiver, StringBuilder):
            if method == "append":
                return receiver.append(args[0])
            if method == "toString":
                return receiver.to_string()
            raise InterpreterError(f"unknown StringBuilder method {method!r}")
        if isinstance(receiver, tuple):
            if method in ("getFirst", "getKey", "getCol0"):
                return receiver[0]
            if method in ("getSecond", "getValue", "getCol1"):
                return receiver[1]
            if method == "get":
                return receiver[args[0]]
        if isinstance(receiver, (int, float)):
            if method in ("intValue", "doubleValue", "longValue"):
                return receiver
            if method == "compareTo":
                return (receiver > args[0]) - (receiver < args[0])
            if method == "equals":
                return receiver == args[0]
        if receiver is None:
            raise InterpreterError(f"null pointer: cannot call {method!r} on null")
        raise InterpreterError(
            f"cannot call {method!r} on {type(receiver).__name__}"
        )

    @staticmethod
    def _list_method(receiver: list, method: str, args: list[Any]) -> Any:
        if method in ("add", "append"):
            receiver.append(args[0])
            return True
        if method == "addAll":
            receiver.extend(args[0])
            return True
        if method == "get":
            return receiver[args[0]]
        if method == "size":
            return len(receiver)
        if method == "isEmpty":
            return not receiver
        if method == "contains":
            return args[0] in receiver
        if method == "remove":
            receiver.remove(args[0])
            return True
        if method == "clear":
            receiver.clear()
            return None
        if method == "iterator":
            return list(receiver)
        raise InterpreterError(f"unknown list method {method!r}")

    @staticmethod
    def _set_method(receiver: set, method: str, args: list[Any]) -> Any:
        if method in ("add", "insert"):
            added = args[0] not in receiver
            receiver.add(args[0])
            return added
        if method == "addAll":
            receiver.update(args[0])
            return True
        if method == "size":
            return len(receiver)
        if method == "isEmpty":
            return not receiver
        if method == "contains":
            return args[0] in receiver
        if method == "remove":
            receiver.discard(args[0])
            return True
        raise InterpreterError(f"unknown set method {method!r}")

    @staticmethod
    def _map_method(receiver: dict, method: str, args: list[Any]) -> Any:
        if method == "put":
            receiver[args[0]] = args[1]
            return None
        if method == "get":
            return receiver.get(args[0])
        if method == "containsKey":
            return args[0] in receiver
        if method == "size":
            return len(receiver)
        if method == "isEmpty":
            return not receiver
        if method == "keySet":
            return set(receiver.keys())
        if method == "values":
            return list(receiver.values())
        raise InterpreterError(f"unknown map method {method!r}")

    @staticmethod
    def _string_method(receiver: str, method: str, args: list[Any]) -> Any:
        if method == "length":
            return len(receiver)
        if method == "toUpperCase":
            return receiver.upper()
        if method == "toLowerCase":
            return receiver.lower()
        if method == "trim":
            return receiver.strip()
        if method == "equals":
            return receiver == args[0]
        if method == "equalsIgnoreCase":
            return receiver.lower() == str(args[0]).lower()
        if method == "contains":
            return args[0] in receiver
        if method == "startsWith":
            return receiver.startswith(args[0])
        if method == "endsWith":
            return receiver.endswith(args[0])
        if method == "substring":
            if len(args) == 2:
                return receiver[args[0] : args[1]]
            return receiver[args[0] :]
        if method == "indexOf":
            return receiver.find(args[0])
        if method == "concat":
            return receiver + args[0]
        if method == "isEmpty":
            return not receiver
        raise InterpreterError(f"unknown string method {method!r}")

    def _eval_new(self, expr: New, env: dict[str, Any]) -> Any:
        args = [self._eval(a, env) for a in expr.args]
        if expr.class_name in _COLLECTION_CLASSES:
            return list(args[0]) if args else []
        if expr.class_name in _SET_CLASSES:
            return set(args[0]) if args else set()
        if expr.class_name in _MAP_CLASSES:
            return {}
        if expr.class_name == "StringBuilder":
            return StringBuilder(args[0] if args else "")
        if expr.class_name in ("Pair", "Tuple"):
            return tuple(args)
        raise InterpreterError(f"unknown class {expr.class_name!r}")


_NO_STATIC = object()


def run_program(
    source_or_program: str | Program,
    connection: Connection,
    function: str = "main",
    args: tuple = (),
) -> tuple[Any, list[str]]:
    """Parse (if needed) and run a program; return (result, printed output)."""
    from ..lang import parse_program

    if isinstance(source_or_program, str):
        program = parse_program(source_or_program)
    else:
        program = source_or_program
    interp = Interpreter(program, connection)
    result = interp.run(function, *args)
    return result, interp.output
