"""The layer map: which public entry point each per-layer metric times,
and how the traced counts become the per-layer metrics.

Every name here is a layer of the program under test; ``<layer>_ms`` is
that layer's self time per measured pass.  Import this module only after
``src`` is on ``sys.path`` (``run.py`` arranges that).
"""

from __future__ import annotations

from collections import defaultdict

import repro.analysis
import repro.core
import repro.db.physical
import repro.db.stats
import repro.fir
import repro.ir
import repro.lint.engine
import repro.rewrite
import repro.rewrites
import repro.sqlgen
import repro.sqlparse
from repro.db import Connection, Database
from repro.db.planner import Planner
from repro.frontends.minijava import MiniJavaFrontend
from repro.frontends.python.frontend import PythonFrontend
from repro.interp import Interpreter
from repro.rules import RuleEngine

from spans import HOOKS, Layer, Tracer


def _fold_outcome(tracer: Tracer, outcome) -> None:
    if outcome.ok:
        tracer.counters["fir.fold_ok"] += 1


def _rules_trace(tracer: Tracer, result) -> None:
    tracer.counters["rules.applied"] += len(result[1])


def _report(tracer: Tracer, report) -> None:
    tracer.counters["core.variables"] += len(report.variables)
    tracer.counters["core.extracted"] += sum(
        1 for v in report.variables.values() if v.status == "success"
    )


def _apply_scanned(node: dict) -> int:
    """Rows scanned under the outermost ``OuterApply`` nodes of a tree."""
    if node["op"] == "OuterApply":
        return repro.db.physical.total_scanned(node)
    return sum(_apply_scanned(child) for child in node["children"])


def _has_columnar(node: dict) -> bool:
    return node["op"].startswith("Columnar") or any(
        _has_columnar(child) for child in node["children"]
    )


def _executed_plan(tracer: Tracer, result) -> None:
    explain = result[1]
    if explain is None:
        return
    tracer.counters["db.plans"] += 1
    tracer.counters["db.columnar_plans"] += _has_columnar(explain)
    tracer.counters["db.apply_rows_scanned"] += _apply_scanned(explain)


LAYERS = [
    # source → extraction report
    Layer("frontends.parse", MiniJavaFrontend, "parse"),
    Layer("frontends.parse", PythonFrontend, "parse"),
    Layer("ir.preprocess", repro.ir.preprocess_program),
    Layer("ir.build", repro.ir.build_dir),
    Layer("lint.gate", repro.lint.engine.lint_preprocessed),
    Layer("analysis.liveness", repro.analysis.live_after_loop),
    Layer("fir.fold", repro.fir.loop_to_fold, hook=_fold_outcome),
    Layer("rules.transform", RuleEngine, "transform", hook=_rules_trace),
    Layer("sqlgen.render", repro.sqlgen.render_rel),
    Layer("rewrite.emit", repro.rewrite.insert_extractions),
    Layer("rewrite.dce", repro.rewrite.eliminate_dead_code),
    Layer("rewrite.consolidate", repro.rewrite.consolidate_loops),
    Layer("rewrites.plan", repro.rewrites.plan_rewrites),
    Layer("core.self", repro.core.optimize_program, hook=_report),
    # application run: per-query layers
    Layer("sqlparse.parse", repro.sqlparse.parse_query),
    Layer("db.plan", Database, "plan"),
    Layer("db.planner", Planner, "lower"),
    Layer("db.index", Database, "index_on"),
    Layer("db.explain", repro.db.physical.explain_plan),
    # application run: bulk layers
    Layer("db.execute", Database, "execute_explained", hook=_executed_plan),
    Layer("db.connection", Connection, "execute_query"),
    Layer("interp.self", Interpreter, "run"),
    # application run: write path
    Layer("db.stats_build", repro.db.stats.build_table_stats),
    Layer("db.stats_build", repro.db.stats.build_sampled_table_stats),
    Layer("db.columns", Database, "columns"),
    Layer("db.insert", Database, "insert"),
]

TIMED_LAYERS = sorted({layer.name for layer in LAYERS})

#: Per-layer metrics that are not self times: name → unit.
COUNT_METRICS = {
    "fir.fold_ok_ratio": "ratio",
    "rules.applied": "count",
    "core.extracted_ratio": "ratio",
    "sqlparse.calls": "count",
    "db.plan_cache_hit_ratio": "ratio",
    "db.stats_builds": "count",
    "db.queries_per_request": "count",
    "db.rows_scanned_per_row_returned": "ratio",
    "db.apply_rows_scanned": "count",
    "db.columnar_share": "ratio",
    "db.simulated_ms_per_request": "ms",
    "db.bytes_per_request": "B",
}

#: The bookkeeping metrics that close the self-time sum.
TRACE_METRICS = {
    "trace.hooks_ms": "ms",
    "other_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_ms": "ms",
}


def per_layer_names() -> dict[str, str]:
    names = {f"{layer}_ms": "ms" for layer in TIMED_LAYERS}
    names.update(COUNT_METRICS)
    names.update(TRACE_METRICS)
    return names


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    passes: int,
    requests: int,
    counts: dict[str, float],
    traced_wall_s: float,
    overhead_ms: float,
) -> dict[str, float]:
    """Per-pass per-layer values from one traced run.

    ``counts`` are the program's own counters over the traced passes (the
    requests' summed ``ConnectionStats`` and the plan-cache hits and
    misses; empty for extraction); ``traced_wall_s`` is the total wall
    time of the traced passes, ``overhead_ms`` the tracing cost per pass.
    """
    calls, counters = tracer.calls, tracer.counters
    conn = defaultdict(float, counts)
    values = {
        f"{layer}_ms": tracer.self_s.get(layer, 0.0) * 1000.0 / passes
        for layer in TIMED_LAYERS
    }
    layer_self_ms = sum(values.values())
    hits, misses = conn["plan_cache_hits"], conn["plan_cache_misses"]
    values.update({
        "fir.fold_ok_ratio": _ratio(counters["fir.fold_ok"], calls["fir.fold"]),
        "rules.applied": counters["rules.applied"] / passes,
        "core.extracted_ratio": _ratio(
            counters["core.extracted"], counters["core.variables"]
        ),
        "sqlparse.calls": calls["sqlparse.parse"] / passes,
        "db.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "db.stats_builds": calls["db.stats_build"] / passes,
        "db.queries_per_request": _ratio(conn["queries_executed"], requests),
        "db.rows_scanned_per_row_returned": _ratio(
            conn["rows_scanned"], conn["rows_transferred"]
        ),
        "db.apply_rows_scanned": counters["db.apply_rows_scanned"] / passes,
        "db.columnar_share": _ratio(
            counters["db.columnar_plans"], counters["db.plans"]
        ),
        "db.simulated_ms_per_request": _ratio(conn["simulated_time_ms"], requests),
        "db.bytes_per_request": _ratio(conn["bytes_transferred"], requests),
    })
    hooks_ms = tracer.self_s.get(HOOKS, 0.0) * 1000.0 / passes
    wall_ms = traced_wall_s * 1000.0 / passes
    values["trace.hooks_ms"] = hooks_ms
    values["other_ms"] = wall_ms - layer_self_ms - hooks_ms
    values["trace.wall_ms"] = wall_ms
    values["trace.overhead_ms"] = overhead_ms
    return values


def self_times_consistent(values: dict[str, float]) -> bool:
    """No self time is negative, ``other`` included; ``other`` closes the
    sum of self times to the traced wall time by construction."""
    parts = [values[f"{layer}_ms"] for layer in TIMED_LAYERS]
    parts += [values["trace.hooks_ms"], values["other_ms"]]
    return min(parts) >= 0.0
