"""Compile-once interpreter for MiniJava programs over the DB substrate.

The interpreter serves two roles in the reproduction:

* *equivalence checking* — the extracted SQL must produce the same value the
  original imperative code computes (paper Theorem 1); tests run both.
* *performance experiments* — Experiments 5–8 execute original and rewritten
  programs against the simulated connection and compare time/transfer.

The first call of a :class:`FunctionDef` compiles it into nested Python
closures of shape ``env -> value``.  Whatever the AST fixes is decided
then, once: node kind, operator, builtin and method name, argument count,
bean-getter/setter column, ``new`` class, and whether a receiver name may
be a static class (``Math``, ``Integer``, …).  At run time a closure does
only what depends on values: the ``env`` lookup, the receiver-type
dispatch (:mod:`repro.interp.methods`) and the static-receiver ``not in
env`` test.  The compiled functions are cached on the interpreter, never
globally, because AST nodes are mutable and the rewriter edits trees in
place.

Every executed statement and every evaluated expression counts one step,
and a ``while`` one more per iteration; the step past ``max_steps`` raises
:class:`InterpreterError`.  A construct that cannot be evaluated — an
unknown class, method or operator, a wrong argument count — raises its
:class:`InterpreterError` when it is reached, never at compile time.  Calls
nest at most :data:`MAX_CALL_DEPTH` deep.

``executeQuery("...")`` strings may contain named parameters (``:x``) that
are bound from the program environment at call time, mirroring how the
paper's D-IR resolves query parameters to program variables.  Query text is
parsed as a literal-lifted template (:func:`repro.sqlparse.parse_template`),
so the N+1 texts a loop concatenates share one tree and one cached plan.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

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
from .methods import Handler, arity_fault, fault, method_handler
from .values import Entity, InterpreterError, ResultCursor, StringBuilder, to_display

#: Deepest nesting of MiniJava calls; one more raises InterpreterError.
MAX_CALL_DEPTH = 100

Env = dict[str, Any]
#: A compiled expression (returns its value) or statement (returns ``None``
#: to fall through, else a control signal: ``_BREAK``, ``_CONTINUE`` or a
#: ``_Return``).
Closure = Callable[[Env], Any]

_STEP_LIMIT = "step limit exceeded (possible infinite loop)"


class _Return:
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value


_BREAK = object()
_CONTINUE = object()
_RETURN_NONE = _Return(None)


def _skip(env: Env) -> None:
    return None


def _non_boolean(value: Any) -> InterpreterError:
    return InterpreterError(f"condition evaluated to non-boolean {value!r}")


def _truthy(value: Any) -> bool:
    if value is True or value is False:
        return value
    if value is None:
        return False
    raise _non_boolean(value)


def _plus(left: Any, right: Any) -> Any:
    if isinstance(left, str) or isinstance(right, str):
        return to_display(left) + to_display(right)
    return left + right


def _divide(left: Any, right: Any) -> Any:
    if isinstance(left, int) and isinstance(right, int):
        return left // right  # Java integer division
    return left / right


_BINARY = {
    "+": _plus,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}
_UNARY = {"-": operator.neg, "!": operator.not_}


def _scalar(rows: list[dict]) -> Any:
    if not rows:
        return None
    plain = [v for k, v in rows[0].items() if "." not in k]
    return plain[0] if plain else None


#: One-argument query builtins → what they make of the result rows.
_QUERIES: dict[str, Callable[[list[dict]], Any]] = {
    "executeQuery": lambda rows: [Entity(row) for row in rows],
    "executeQueryCursor": ResultCursor,
    "executeScalar": _scalar,
    "executeExists": bool,
}


def _sort(values: Any) -> None:
    values.sort()


#: Library calls on a class name that is not a variable: (class, method) →
#: (accepted argument counts, implementation).
_STATIC: dict[tuple[str, str], tuple[tuple[int, ...], Handler]] = {
    ("Math", "max"): ((2,), max),
    ("Math", "min"): ((2,), min),
    ("Math", "abs"): ((1,), abs),
    ("Integer", "parseInt"): ((1,), int),
    ("Double", "parseDouble"): ((1,), float),
    ("String", "valueOf"): ((1,), to_display),
    ("Collections", "sort"): ((1,), _sort),
    ("Collections", "max"): ((1,), max),
    ("Collections", "min"): ((1,), min),
}
#: Classes whose every method is static (an unknown one is an error).
_STATIC_CLASSES = {"Math", "Collections"}


def _iterable(value: Any) -> Any:
    if isinstance(value, (ResultCursor, list, tuple, set)):
        return value
    raise InterpreterError(f"value of type {type(value).__name__} is not iterable")


def _new_list(*args: Any) -> list:
    return list(args[0]) if args else []


def _new_set(*args: Any) -> set:
    return set(args[0]) if args else set()


def _new_map(*args: Any) -> dict:
    return {}


def _new_builder(*args: Any) -> StringBuilder:
    return StringBuilder(args[0] if args else "")


def _new_tuple(*args: Any) -> tuple:
    return args


_NEW = {
    **dict.fromkeys(("ArrayList", "LinkedList", "List", "Vector"), _new_list),
    **dict.fromkeys(("HashSet", "TreeSet", "Set", "LinkedHashSet"), _new_set),
    **dict.fromkeys(("HashMap", "TreeMap", "Map", "LinkedHashMap"), _new_map),
    "StringBuilder": _new_builder,
    "Pair": _new_tuple,
    "Tuple": _new_tuple,
}


class Interpreter:
    """Executes a MiniJava :class:`Program` against a :class:`Connection`."""

    def __init__(self, program: Program, connection: Connection, max_steps: int = 10_000_000):
        self._program = program
        self._connection = connection
        self._max_steps = max_steps
        #: Steps taken so far, in a cell every compiled closure shares.
        self._steps = [0]
        self._depth = 0
        #: Function name → (definition, compiled body).
        self._functions: dict[str, tuple[FunctionDef, Closure]] = {}
        self.output: list[str] = []
        #: Final value of the ``__out__`` collection of the last-run
        #: function (set by print-preprocessing; used by equivalence tests).
        self.last_out: Any = None

    @property
    def steps(self) -> int:
        """Statements and expressions executed so far (see module docstring)."""
        return self._steps[0]

    # ------------------------------------------------------------------
    # Entry points

    def run(self, function_name: str, *args: Any) -> Any:
        """Run a named function with positional arguments; return its value."""
        return self._call_function(self._function(function_name), list(args))

    def _function(self, name: str) -> tuple[FunctionDef, Closure]:
        """The compiled function ``name``; ``KeyError`` if there is none."""
        compiled = self._functions.get(name)
        if compiled is None:
            func = self._program.function(name)
            compiled = self._functions[name] = (func, self._block(func.body))
        return compiled

    def _call_function(self, compiled: tuple[FunctionDef, Closure], args: list[Any]) -> Any:
        func, body = compiled
        if len(args) != len(func.params):
            raise InterpreterError(
                f"{func.name} expects {len(func.params)} args, got {len(args)}"
            )
        if self._depth >= MAX_CALL_DEPTH:
            raise InterpreterError("call depth limit exceeded")
        env = dict(zip(func.params, args))
        self._depth += 1
        try:
            signal = body(env)
        finally:
            self._depth -= 1
        if signal is _BREAK or signal is _CONTINUE:
            raise InterpreterError("break or continue outside a loop")
        self.last_out = env.get("__out__", self.last_out)
        return None if signal is None else signal.value

    def _run_query(self, text: Any, env: Env) -> list[dict]:
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

    def _print(self, *values: Any) -> None:
        self.output.append("".join([to_display(v) for v in values]))

    def _register_temp_table(self, name: Any, collection: Any) -> None:
        rows = []
        for element in collection:
            if isinstance(element, Entity):
                rows.append({k: v for k, v in element.row.items() if "." not in k})
            else:
                rows.append({"val": element})
        self._connection.ship_temp_table(name, rows)

    # ------------------------------------------------------------------
    # Compilation.  Every closure below counts its own step first.

    def _apply(self, fn: Handler, args: list[Closure]) -> Closure:
        """A node that evaluates ``args`` left to right into ``fn(*values)``."""
        steps, limit = self._steps, self._max_steps
        if len(args) == 1:
            [only] = args

            def apply1(env: Env) -> Any:
                steps[0] += 1
                if steps[0] > limit:
                    raise InterpreterError(_STEP_LIMIT)
                return fn(only(env))

            return apply1
        if len(args) == 2:
            first, second = args

            def apply2(env: Env) -> Any:
                steps[0] += 1
                if steps[0] > limit:
                    raise InterpreterError(_STEP_LIMIT)
                return fn(first(env), second(env))

            return apply2

        def apply(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            return fn(*[arg(env) for arg in args])

        return apply

    def _block(self, block: Block) -> Closure:
        """A statement list (no step of its own: the caller counts it)."""
        stmts = tuple(self._stmt(stmt) for stmt in block.statements)
        if not stmts:
            return _skip
        if len(stmts) == 1:
            return stmts[0]

        def run_block(env: Env) -> Any:
            for stmt in stmts:
                signal = stmt(env)
                if signal is not None:
                    return signal
            return None

        return run_block

    def _stmt(self, stmt: Stmt) -> Closure:
        compile_stmt = _STMT_COMPILERS.get(type(stmt))
        if compile_stmt is None:
            return self._apply(fault(f"cannot execute {type(stmt).__name__}"), [])
        return compile_stmt(self, stmt)

    def _expr(self, expr: Expr) -> Closure:
        compile_expr = _EXPR_COMPILERS.get(type(expr))
        if compile_expr is None:
            return self._apply(fault(f"cannot evaluate {type(expr).__name__}"), [])
        return compile_expr(self, expr)

    # -- statements ----------------------------------------------------

    def _assign(self, stmt: Assign) -> Closure:
        steps, limit = self._steps, self._max_steps
        target, value = stmt.target, self._expr(stmt.value)

        def assign(env: Env) -> None:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            env[target] = value(env)

        return assign

    def _expr_stmt(self, stmt: ExprStmt) -> Closure:
        steps, limit = self._steps, self._max_steps
        expr = self._expr(stmt.expr)

        def expr_stmt(env: Env) -> None:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            expr(env)

        return expr_stmt

    def _nested_block(self, stmt: Block) -> Closure:
        steps, limit = self._steps, self._max_steps
        body = self._block(stmt)

        def nested_block(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            return body(env)

        return nested_block

    def _if(self, stmt: If) -> Closure:
        steps, limit = self._steps, self._max_steps
        cond, then_body = self._expr(stmt.cond), self._block(stmt.then_body)
        else_body = _skip if stmt.else_body is None else self._block(stmt.else_body)

        def if_(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            value = cond(env)
            if value is True:
                return then_body(env)
            if value is False or value is None:
                return else_body(env)
            raise _non_boolean(value)

        return if_

    def _for_each(self, stmt: ForEach) -> Closure:
        steps, limit = self._steps, self._max_steps
        var, iterable, body = stmt.var, self._expr(stmt.iterable), self._block(stmt.body)

        def for_each(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            for item in _iterable(iterable(env)):
                env[var] = item
                signal = body(env)
                if signal is not None:
                    if signal is _BREAK:
                        break
                    if signal is not _CONTINUE:
                        return signal
            return None

        return for_each

    def _while(self, stmt: While) -> Closure:
        steps, limit = self._steps, self._max_steps
        cond, body = self._expr(stmt.cond), self._block(stmt.body)

        def while_(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            while _truthy(cond(env)):
                steps[0] += 1
                if steps[0] > limit:
                    raise InterpreterError(_STEP_LIMIT)
                signal = body(env)
                if signal is not None:
                    if signal is _BREAK:
                        break
                    if signal is not _CONTINUE:
                        return signal
            return None

        return while_

    def _return(self, stmt: Return) -> Closure:
        if stmt.value is None:
            return self._apply(lambda: _RETURN_NONE, [])
        return self._apply(_Return, [self._expr(stmt.value)])

    def _break(self, stmt: Break) -> Closure:
        return self._apply(lambda: _BREAK, [])

    def _continue(self, stmt: Continue) -> Closure:
        return self._apply(lambda: _CONTINUE, [])

    def _try_catch(self, stmt: TryCatch) -> Closure:
        steps, limit = self._steps, self._max_steps
        try_body = self._block(stmt.try_body)
        catch_body = None if stmt.catch_body is None else self._block(stmt.catch_body)
        finally_body = _skip if stmt.finally_body is None else self._block(stmt.finally_body)

        def try_catch(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            try:
                try:
                    signal = try_body(env)
                except InterpreterError:
                    if catch_body is None:
                        raise
                    signal = catch_body(env)
            except Exception:
                # A break/continue/return in ``finally`` replaces the
                # exception, as it replaces any pending signal below.
                override = finally_body(env)
                if override is not None:
                    return override
                raise
            override = finally_body(env)
            return signal if override is None else override

        return try_catch

    # -- expressions ---------------------------------------------------

    def _literal(self, expr: IntLit | FloatLit | StringLit | BoolLit | NullLit) -> Closure:
        steps, limit = self._steps, self._max_steps
        value = getattr(expr, "value", None)

        def literal(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            return value

        return literal

    def _name(self, expr: Name) -> Closure:
        steps, limit = self._steps, self._max_steps
        ident = expr.ident

        def name(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            try:
                return env[ident]
            except KeyError:
                raise InterpreterError(f"unbound variable {ident!r}") from None

        return name

    def _binary(self, expr: Binary) -> Closure:
        left, right = self._expr(expr.left), self._expr(expr.right)
        if expr.op not in ("&&", "||"):
            fn = _BINARY.get(expr.op) or fault(f"unknown binary operator {expr.op!r}")
            return self._apply(fn, [left, right])
        steps, limit = self._steps, self._max_steps
        short_circuit = expr.op == "||"

        def logical(env: Env) -> bool:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            if _truthy(left(env)) is short_circuit:
                return short_circuit
            return _truthy(right(env))

        return logical

    def _unary(self, expr: Unary) -> Closure:
        fn = _UNARY.get(expr.op) or fault(f"unknown unary operator {expr.op!r}")
        return self._apply(fn, [self._expr(expr.operand)])

    def _ternary(self, expr: Ternary) -> Closure:
        steps, limit = self._steps, self._max_steps
        cond = self._expr(expr.cond)
        if_true, if_false = self._expr(expr.if_true), self._expr(expr.if_false)

        def ternary(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            return if_true(env) if _truthy(cond(env)) else if_false(env)

        return ternary

    def _call(self, expr: Call) -> Closure:
        args = [self._expr(arg) for arg in expr.args]
        name = expr.func
        if name in _QUERIES:
            if len(args) != 1:
                return self._apply(arity_fault(name, (1,), len(args)), [])
            return self._query(_QUERIES[name], args[0])
        if name == "registerTempTable":
            if len(args) != 2:
                return self._apply(arity_fault(name, (2,), len(args)), [])
            return self._apply(self._register_temp_table, args)
        if name in ("print", "println"):
            return self._apply(self._print, args)
        return self._user_call(name, args)

    def _query(self, finish: Callable[[list[dict]], Any], text: Closure) -> Closure:
        steps, limit = self._steps, self._max_steps
        run_query = self._run_query

        def query(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            return finish(run_query(text(env), env))

        return query

    def _user_call(self, name: str, args: list[Closure]) -> Closure:
        steps, limit = self._steps, self._max_steps
        resolve, call_function = self._function, self._call_function

        def user_call(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            try:
                compiled = resolve(name)
            except KeyError:
                raise InterpreterError(f"unknown function {name!r}") from None
            return call_function(compiled, [arg(env) for arg in args])

        return user_call

    def _method_call(self, expr: MethodCall) -> Closure:
        receiver, method = expr.receiver, expr.method
        args = [self._expr(arg) for arg in expr.args]
        if (
            isinstance(receiver, FieldAccess)
            and isinstance(receiver.receiver, Name)
            and receiver.receiver.ident == "System"
        ):
            return self._apply(self._print, args)  # System.out.println(...)
        dynamic = self._dispatch(self._expr(receiver), method, args)
        if not isinstance(receiver, Name):
            return dynamic
        cls = receiver.ident
        entry = _STATIC.get((cls, method))
        if entry is not None:
            counts, fn = entry
            if len(args) not in counts:
                fn = arity_fault(f"{cls}.{method}", counts, len(args))
        elif cls in _STATIC_CLASSES:
            fn = fault(f"unknown {cls} method {method!r}")
        else:
            return dynamic
        static = self._apply(fn, args)

        def static_unless_shadowed(env: Env) -> Any:
            return dynamic(env) if cls in env else static(env)

        return static_unless_shadowed

    def _dispatch(self, receiver: Closure, method: str, args: list[Closure]) -> Closure:
        """``receiver.method(args)``, dispatched on the receiver's type."""
        steps, limit = self._steps, self._max_steps
        n = len(args)
        #: Receiver type → handler, filled as this call site meets types.
        handlers: dict[type, Handler] = {}

        def handler_for(value: Any) -> Handler:
            cls = type(value)
            handler = handlers[cls] = method_handler(cls, method, n)
            return handler

        if n == 0:

            def call0(env: Env) -> Any:
                steps[0] += 1
                if steps[0] > limit:
                    raise InterpreterError(_STEP_LIMIT)
                value = receiver(env)
                try:
                    handler = handlers[type(value)]
                except KeyError:
                    handler = handler_for(value)
                return handler(value)

            return call0
        if n == 1:
            [only] = args

            def call1(env: Env) -> Any:
                steps[0] += 1
                if steps[0] > limit:
                    raise InterpreterError(_STEP_LIMIT)
                value = receiver(env)
                arg = only(env)
                try:
                    handler = handlers[type(value)]
                except KeyError:
                    handler = handler_for(value)
                return handler(value, arg)

            return call1

        def call(env: Env) -> Any:
            steps[0] += 1
            if steps[0] > limit:
                raise InterpreterError(_STEP_LIMIT)
            value = receiver(env)
            values = [arg(env) for arg in args]
            try:
                handler = handlers[type(value)]
            except KeyError:
                handler = handler_for(value)
            return handler(value, *values)

        return call

    def _field_access(self, expr: FieldAccess) -> Closure:
        field = expr.field

        def read_field(receiver: Any) -> Any:
            if isinstance(receiver, Entity):
                return receiver.get(field)
            raise InterpreterError(
                f"cannot access field {field!r} on {type(receiver).__name__}"
            )

        return self._apply(read_field, [self._expr(expr.receiver)])

    def _new(self, expr: New) -> Closure:
        make = _NEW.get(expr.class_name) or fault(f"unknown class {expr.class_name!r}")
        return self._apply(make, [self._expr(arg) for arg in expr.args])


_STMT_COMPILERS: dict[type, Callable[[Interpreter, Any], Closure]] = {
    Assign: Interpreter._assign,
    ExprStmt: Interpreter._expr_stmt,
    Block: Interpreter._nested_block,
    If: Interpreter._if,
    ForEach: Interpreter._for_each,
    While: Interpreter._while,
    Return: Interpreter._return,
    Break: Interpreter._break,
    Continue: Interpreter._continue,
    TryCatch: Interpreter._try_catch,
}
_EXPR_COMPILERS: dict[type, Callable[[Interpreter, Any], Closure]] = {
    **dict.fromkeys((IntLit, FloatLit, StringLit, BoolLit, NullLit), Interpreter._literal),
    Name: Interpreter._name,
    Binary: Interpreter._binary,
    Unary: Interpreter._unary,
    Ternary: Interpreter._ternary,
    Call: Interpreter._call,
    MethodCall: Interpreter._method_call,
    FieldAccess: Interpreter._field_access,
    New: Interpreter._new,
}


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
