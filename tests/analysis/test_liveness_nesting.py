"""Liveness walks each nested body a bounded number of times.

``_live_through`` used to walk an ``if``/block/try body twice (once for the
live-in, once more for the map) and a loop body three times, so its cost
grew as 2^depth for ``if`` nests.  The walk now reuses the pass it already
made; the maps it returns are the same as the three-walk version's, which
is kept below as the reference.
"""

from __future__ import annotations

import repro.analysis.dataflow as dataflow
from repro import Catalog, ExtractOptions
from repro.analysis import expr_reads, live_after_loop, live_before
from repro.analysis.dataflow import RET_LOCATION, stmt_def_use
from repro.core import extract_sql, optimize_program
from repro.lang import (
    Assign,
    Block,
    ExprStmt,
    ForEach,
    If,
    Return,
    TryCatch,
    While,
    parse_program,
    walk_statements,
)

from ..core.test_pipeline_parity import bundled_units


def if_nest(depth: int) -> str:
    """A cursor loop whose body is ``depth`` nested ``if``s."""
    opens = "".join(f"if (o.getAmount() > {i}) {{ " for i in range(depth))
    return (
        "f() {\n"
        "    total = 0;\n"
        '    for (o : executeQuery("from Orders as o")) {\n'
        f"        {opens}total = total + o.getAmount();{' }' * depth}\n"
        "    }\n"
        "    return total;\n"
        "}\n"
    )


def _cursor_loop(source: str):
    func = parse_program(source).function("f")
    loop = next(s for s in walk_statements(func.body) if isinstance(s, ForEach))
    return func, loop


def _walks(monkeypatch, depth: int) -> int:
    calls = 0
    original = dataflow._live_through

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(dataflow, "_live_through", counted)
    func, loop = _cursor_loop(if_nest(depth))
    assert "total" in live_after_loop(func, loop)
    monkeypatch.setattr(dataflow, "_live_through", original)
    return calls


def test_walks_grow_linearly_with_if_depth(monkeypatch):
    # Small depths keep the exponential walk a quick failure, not a hang.
    assert _walks(monkeypatch, 16) <= 2.5 * _walks(monkeypatch, 8)


def test_deep_if_nest_in_cursor_loop_extracts():
    catalog = Catalog()
    catalog.define("orders", ["id", "customer", "status", "amount"], key=("id",))
    report = optimize_program(
        if_nest(150), "f", catalog, options=ExtractOptions(profile="local")
    )
    assert "total" in report.variables


# ----------------------------------------------------------------------
# Reference: the three-walk liveness the linear one must agree with.


def _reference_before(statements, live_out):
    live_after = {}
    live = set(live_out)
    for stmt in reversed(statements):
        live = _reference_through(stmt, live, live_after)
    return live, live_after


def _reference_merge(statements, live_out, live_after):
    for sid, vars_ in _reference_before(statements, live_out)[1].items():
        live_after.setdefault(sid, set()).update(vars_)


def _reference_through(stmt, live, live_after):
    live_after[stmt.sid] = set(live)
    if isinstance(stmt, (Assign, ExprStmt, Return)):
        summary = stmt_def_use(stmt)
        local = {w for w in summary.writes if not w.startswith("@")}
        result = (live - local) | set(summary.reads)
        if isinstance(stmt, ExprStmt):
            result |= local & live
        return result
    if isinstance(stmt, If):
        bodies = [stmt.then_body] + ([stmt.else_body] if stmt.else_body else [])
        result = set() if stmt.else_body else set(live)
        for body in bodies:
            result |= _reference_before(body.statements, live)[0]
            _reference_merge(body.statements, live, live_after)
        return result | expr_reads(stmt.cond)
    if isinstance(stmt, (ForEach, While)):
        body_live = set(live)
        for _ in range(2):
            body_live |= _reference_before(stmt.body.statements, body_live)[0]
        _reference_merge(stmt.body.statements, body_live, live_after)
        result = set(live) | body_live
        if isinstance(stmt, ForEach):
            return (result - {stmt.var}) | expr_reads(stmt.iterable)
        return result | expr_reads(stmt.cond)
    if isinstance(stmt, (Block, TryCatch)):
        bodies = (
            [stmt]
            if isinstance(stmt, Block)
            else [b for b in (stmt.try_body, stmt.catch_body, stmt.finally_body) if b]
        )
        result = set() if isinstance(stmt, Block) else set(live)
        for body in bodies:
            result |= _reference_before(body.statements, live)[0]
            _reference_merge(body.statements, live, live_after)
        return result
    return set(live)


MIXED_NEST = """
f(n) {
    a = 0; b = 0; c = 0;
    while (a < n) {
        for (o : executeQuery("from Orders as o")) {
            if (o.getAmount() > b) {
                while (c < a) { c = c + b; b = a; }
            } else {
                try { b = c; } catch (e) { a = b; }
            }
            a = a + 1;
        }
    }
    return c;
}
"""


def test_maps_match_reference_on_mixed_nest():
    func = parse_program(MIXED_NEST).function("f")
    expected = _reference_before(func.body.statements, {RET_LOCATION})
    assert live_before(func.body.statements, {RET_LOCATION}) == expected


def test_maps_match_reference_on_bundled_units():
    for _label, source, function, catalog, options in bundled_units():
        program = extract_sql(source, function, catalog, options=options).original
        for func in program.functions:
            expected = _reference_before(func.body.statements, {RET_LOCATION})
            assert live_before(func.body.statements, {RET_LOCATION}) == expected
