"""Receiver-method handlers for the MiniJava interpreter.

A method call's name and argument count are fixed by the AST, so the
interpreter resolves them once per call site; only the receiver's type is
left to run time.  :func:`method_handler` maps ``(receiver type, method,
argument count)`` to a function ``handler(receiver, *args)``.  A method the
receiver does not have, or a call with the wrong number of arguments,
resolves to a handler that raises :class:`InterpreterError` when called —
that is, when the call is reached, after its arguments were evaluated.

The map from a triple to its handler does not depend on any program, so it
is memoized for the whole process; handlers hold no state.
"""

from __future__ import annotations

from functools import lru_cache
from operator import methodcaller
from typing import Any, Callable

from .values import (
    Entity,
    InterpreterError,
    ResultCursor,
    StringBuilder,
    getter_to_column,
    setter_to_column,
)

Handler = Callable[..., Any]


def fault(message: str) -> Handler:
    """A handler that raises ``InterpreterError(message)`` when called."""

    def raise_fault(*_: Any) -> Any:
        raise InterpreterError(message)

    return raise_fault


def _append(receiver: list, value: Any) -> bool:
    receiver.append(value)
    return True


def _extend(receiver: list, values: Any) -> bool:
    receiver.extend(values)
    return True


def _remove(receiver: list, value: Any) -> bool:
    receiver.remove(value)
    return True


def _set_add(receiver: set, value: Any) -> bool:
    added = value not in receiver
    receiver.add(value)
    return added


def _set_update(receiver: set, values: Any) -> bool:
    receiver.update(values)
    return True


def _set_discard(receiver: set, value: Any) -> bool:
    receiver.discard(value)
    return True


def _put(receiver: dict, key: Any, value: Any) -> None:
    receiver[key] = value


def _contains(receiver: Any, value: Any) -> bool:
    return value in receiver


def _is_empty(receiver: Any) -> bool:
    return not receiver


def _first(receiver: tuple) -> Any:
    return receiver[0]


def _second(receiver: tuple) -> Any:
    return receiver[1]


def _identity(receiver: Any) -> Any:
    return receiver


def _substring(receiver: str, start: int, end: int | None = None) -> str:
    return receiver[start:] if end is None else receiver[start:end]


#: Per receiver kind: method → (accepted argument counts, handler).
_TABLES: dict[type, dict[str, tuple[tuple[int, ...], Handler]]] = {
    list: {
        "add": ((1,), _append),
        "append": ((1,), _append),
        "addAll": ((1,), _extend),
        "get": ((1,), list.__getitem__),
        "size": ((0,), len),
        "isEmpty": ((0,), _is_empty),
        "contains": ((1,), _contains),
        "remove": ((1,), _remove),
        "clear": ((0,), list.clear),
        "iterator": ((0,), list),
    },
    set: {
        "add": ((1,), _set_add),
        "insert": ((1,), _set_add),
        "addAll": ((1,), _set_update),
        "size": ((0,), len),
        "isEmpty": ((0,), _is_empty),
        "contains": ((1,), _contains),
        "remove": ((1,), _set_discard),
    },
    dict: {
        "put": ((2,), _put),
        "get": ((1,), dict.get),
        "containsKey": ((1,), _contains),
        "size": ((0,), len),
        "isEmpty": ((0,), _is_empty),
        "keySet": ((0,), lambda m: set(m.keys())),
        "values": ((0,), lambda m: list(m.values())),
    },
    str: {
        "length": ((0,), len),
        "toUpperCase": ((0,), str.upper),
        "toLowerCase": ((0,), str.lower),
        "trim": ((0,), str.strip),
        "equals": ((1,), lambda s, other: s == other),
        "equalsIgnoreCase": ((1,), lambda s, other: s.lower() == str(other).lower()),
        "contains": ((1,), _contains),
        "startsWith": ((1,), str.startswith),
        "endsWith": ((1,), str.endswith),
        "substring": ((1, 2), _substring),
        "indexOf": ((1,), str.find),
        "concat": ((1,), lambda s, other: s + other),
        "isEmpty": ((0,), _is_empty),
    },
    StringBuilder: {
        "append": ((1,), StringBuilder.append),
        "toString": ((0,), StringBuilder.to_string),
    },
    tuple: {
        "getFirst": ((0,), _first),
        "getKey": ((0,), _first),
        "getCol0": ((0,), _first),
        "getSecond": ((0,), _second),
        "getValue": ((0,), _second),
        "getCol1": ((0,), _second),
        "get": ((1,), tuple.__getitem__),
    },
    int: {
        "intValue": ((0,), _identity),
        "doubleValue": ((0,), _identity),
        "longValue": ((0,), _identity),
        "compareTo": ((1,), lambda a, b: (a > b) - (a < b)),
        "equals": ((1,), lambda a, b: a == b),
    },
}
_TABLES[float] = _TABLES[int]

#: The error for a method a kind does not have; ``None`` → "cannot call".
_UNKNOWN = {
    list: "unknown list method {method!r}",
    set: "unknown set method {method!r}",
    dict: "unknown map method {method!r}",
    str: "unknown string method {method!r}",
    StringBuilder: "unknown StringBuilder method {method!r}",
}

#: Receiver kinds in the order an ``isinstance`` test picks them (``bool``
#: is an ``int``).
_KINDS = (ResultCursor, Entity, list, set, dict, str, StringBuilder, tuple, int, float)

_JDBC_GETTERS = {
    "getString": None,
    "getObject": None,
    "getLong": None,
    "getBoolean": None,
    "getInt": int,
    "getDouble": float,
}


def arity_fault(name: str, counts: tuple[int, ...], n: int) -> Handler:
    """The fault for calling ``name`` with ``n`` arguments instead of ``counts``."""
    expected = " or ".join(map(str, counts))
    plural = "" if counts == (1,) else "s"
    return fault(f"{name} takes {expected} argument{plural}, got {n}")


def _entity_handler(method: str, n: int) -> Handler:
    if method in _JDBC_GETTERS:
        if n != 1:
            return arity_fault(f"ResultSet.{method}", (1,), n)
        convert = _JDBC_GETTERS[method]
        if convert is None:
            return Entity.get

        def jdbc_get(entity: Entity, column: str) -> Any:
            value = entity.get(column)
            return value if value is None else convert(value)

        return jdbc_get
    column = getter_to_column(method)
    if column is not None and n == 0:
        return methodcaller("get", column)
    column = setter_to_column(method)
    if column is not None and n == 1:

        def bean_set(entity: Entity, value: Any) -> None:
            entity.row[column] = value

        return bean_set
    return fault(f"unknown entity method {method!r}")


def _cursor_handler(method: str, n: int) -> Handler:
    if method == "next":
        return ResultCursor.next if n == 0 else arity_fault("ResultSet.next", (0,), n)
    # Other JDBC calls read the current row.
    on_row = _entity_handler(method, n)
    return lambda cursor, *args: on_row(cursor.current, *args)


@lru_cache(maxsize=1024)
def method_handler(receiver_type: type, method: str, n: int) -> Handler:
    """The handler for ``receiver.method(<n arguments>)`` on this type."""
    if receiver_type is type(None):
        return fault(f"null pointer: cannot call {method!r} on null")
    kind = next((k for k in _KINDS if issubclass(receiver_type, k)), None)
    if kind is ResultCursor:
        return _cursor_handler(method, n)
    if kind is Entity:
        return _entity_handler(method, n)
    entry = _TABLES.get(kind, {}).get(method)
    if entry is not None:
        counts, handler = entry
        if n in counts:
            return handler
        return arity_fault(f"{kind.__name__}.{method}", counts, n)
    unknown = _UNKNOWN.get(kind)
    if unknown is not None:
        return fault(unknown.format(method=method))
    return fault(f"cannot call {method!r} on {receiver_type.__name__}")
