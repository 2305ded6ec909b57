"""Per-table statistics and cardinality estimation.

The planned engine's lowering decisions (access path, join strategy,
columnar vs. row execution) were originally fixed heuristics with no
knowledge of the data.  This module grounds them in observed table shape:

* :class:`TableStats` — row count plus per-column :class:`ColumnStats`
  (non-NULL count, NULL count, number of distinct values, min/max, and an
  equi-width :class:`Histogram` for all-numeric columns).  Statistics are
  collected lazily from the cached column arrays on first use.  Exact
  ones are then kept fresh on insert by a :class:`StatsAccumulator`
  (sorted distinct values, NULL counts, histogram counts), whose snapshot
  equals a full rebuild; ``Database._invalidate`` on clear/create_table
  drops them, and sampled ones are rebuilt after every insert.
* :class:`CardinalityEstimator` — textbook selectivity arithmetic over
  those statistics: ``1/NDV`` for equality, histogram fractions for range
  predicates, independence for AND, inclusion–exclusion for OR, and
  ``|L|·|R| / max(NDV)`` for equi-joins.  Estimates feed the planner's
  Volcano search (:mod:`repro.db.planner`) and, optionally, the rewrite
  cost bridge (:class:`repro.rewrites.cost.AlternativeCostModel`).

Statistics are *estimates*: the planner only uses them to rank physical
alternatives that are all semantically identical, so a bad estimate can
cost performance but never correctness.
"""

from __future__ import annotations

import math
import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Mapping

from ..algebra import (
    Aggregate,
    Alias,
    BinOp,
    Col,
    Distinct,
    Join,
    Limit,
    Lit,
    OuterApply,
    Param,
    Project,
    RelExpr,
    ScalarExpr,
    Select,
    Sort,
    Table,
    UnOp,
    walk_relational,
)
from .types import is_truthy

#: Equi-width histogram resolution (buckets per numeric column).
HISTOGRAM_BUCKETS = 16

#: Below this many rows the row-at-a-time path wins: per-batch dispatch,
#: column gathering, and result assembly cost more than they save.  The
#: crossover was measured on the ``bench_engine`` aggregation workload
#: (row path ≈ 3 µs/row of constant work vs. ≈ 0.2 ms of fixed columnar
#: overhead); the adaptive switch routes anything smaller to the row path.
COLUMNAR_MIN_ROWS = 64

#: Above this many rows ``Database.stats`` switches from an exact full-pass
#: build to a sampled one: one full O(n) statistics pass per epoch stops
#: being cheap around a few tens of thousands of rows, while a fixed-size
#: sample keeps the build O(sample) with NDV/histogram *estimates* instead
#: of exact counts.  Statistics only rank semantically-identical plans, so
#: the estimate error can cost performance but never correctness.
STATS_EXACT_MAX = 50_000

#: Rows drawn (without replacement) by a sampled statistics build.
STATS_SAMPLE_SIZE = 10_000

#: Fallback selectivities when no statistics apply.
DEFAULT_SELECTIVITY = 0.33
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_LIKE_SELECTIVITY = 0.25

#: Sentinel for "value unknown at plan time" (parameters).
_UNKNOWN = object()


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over a numeric column."""

    lo: float
    hi: float
    counts: tuple[int, ...]
    total: int

    def fraction_le(self, value: float) -> float:
        """Approximate fraction of values ``<= value`` (linear within a
        bucket, the classic equi-width interpolation)."""
        if self.total == 0:
            return 0.0
        if value < self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        width = (self.hi - self.lo) / len(self.counts)
        if width <= 0:
            return 1.0
        index = min(int((value - self.lo) / width), len(self.counts) - 1)
        below = sum(self.counts[:index])
        within = self.counts[index] * ((value - (self.lo + index * width)) / width)
        return min(1.0, max(0.0, (below + within) / self.total))


@dataclass(frozen=True, eq=False)
class ColumnStats:
    """Shape summary of one column.

    A numeric column — every non-NULL value an ``int`` or ``float`` (not
    ``bool``) and the value range finite — carries a histogram.
    Statistics maintained on append may defer it: the snapshot then holds
    a function that builds it, run on the first read of :attr:`histogram`
    and cached.  Equality compares resolved histograms.
    """

    name: str
    row_count: int
    null_count: int
    ndv: int
    min_value: Any
    max_value: Any
    #: The histogram, a function building it, or ``None``.
    _histogram: Histogram | Callable[[], Histogram] | None = field(repr=False)

    @property
    def numeric(self) -> bool:
        """Whether the column has a histogram, without building a deferred one."""
        return self._histogram is not None

    @property
    def histogram(self) -> Histogram | None:
        if callable(self._histogram):
            object.__setattr__(self, "_histogram", self._histogram())
        return self._histogram

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnStats):
            return NotImplemented
        return self._compared() == other._compared()

    def _compared(self) -> tuple:
        return (
            self.name,
            self.row_count,
            self.null_count,
            self.ndv,
            self.min_value,
            self.max_value,
            self.histogram,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "row_count": self.row_count,
            "null_count": self.null_count,
            "ndv": self.ndv,
            "min": self.min_value,
            "max": self.max_value,
            "histogram_buckets": (
                None if self.histogram is None else list(self.histogram.counts)
            ),
        }


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics for one base table.

    ``sampled`` marks statistics built from a reservoir-style sample rather
    than a full pass; ``sample_size`` records how many rows were drawn.
    Sampled NDV, NULL counts, and histograms are scaled estimates.
    """

    table: str
    row_count: int
    columns: Mapping[str, ColumnStats]
    sampled: bool = field(default=False)
    sample_size: int | None = field(default=None)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "row_count": self.row_count,
            "sampled": self.sampled,
            "sample_size": self.sample_size,
            "columns": {name: cs.to_dict() for name, cs in self.columns.items()},
        }


def _histogram_range(lo, hi) -> tuple[float, float] | None:
    """``(lo, hi)`` as floats, or ``None`` when the range is not finite: an
    infinite range (``inf``, ``-inf``, or an overflowing span) has no
    finite bucket width, so such a column gets no histogram."""
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError:
        return None
    return (lo, hi) if math.isfinite(hi - lo) else None


def _bucket(value, lo: float, hi: float) -> int:
    """The bucket of ``value`` in an equi-width histogram over ``[lo, hi]``."""
    if hi <= lo:
        return 0
    scale = HISTOGRAM_BUCKETS / (hi - lo)
    if math.isinf(scale):  # a subnormal span: divide by it first
        index = int((value - lo) / (hi - lo) * HISTOGRAM_BUCKETS)
    else:
        index = int((value - lo) * scale)
    return min(index, HISTOGRAM_BUCKETS - 1)


def _build_histogram(values: list, lo: float, hi: float) -> Histogram:
    counts = [0] * HISTOGRAM_BUCKETS
    for value in values:
        counts[_bucket(value, lo, hi)] += 1
    return Histogram(lo=lo, hi=hi, counts=tuple(counts), total=len(values))


def _deferred_histogram(values: list, n: int, span: tuple[float, float]) -> Histogram:
    """The histogram of the non-NULL values among the first ``n`` of
    ``values``: the column as it was when a snapshot deferred it."""
    return _build_histogram([v for v in values[:n] if v is not None], *span)


class _ColumnAccumulator:
    """Exact statistics of one column, extendable value by value.

    ``distinct`` is the sorted list of distinct non-NULL values: NDV is its
    length, min and max its ends.  (A list, not a set: a set of a few
    thousand values costs about ten times the memory.)  ``counts`` holds
    the histogram while appended values stay inside its range and is
    ``None`` once one moves it.  Values that are unhashable or have no
    total order (mixed types, NaN) get fixed statistics, computed once.
    """

    __slots__ = ("name", "values", "nulls", "numeric", "distinct", "counts", "fixed")

    def __init__(self, name: str, values: list):
        self.name = name
        self.values = values
        self.distinct = self.counts = self.fixed = None
        non_null = [v for v in values if v is not None]
        self.nulls = len(values) - len(non_null)
        self.numeric = all(
            issubclass(t, (int, float)) and not issubclass(t, bool)
            for t in {type(v) for v in non_null}
        )
        try:
            distinct = set(non_null)
        except TypeError:  # unhashable values: distinct-by-repr approximation
            try:
                lo, hi = min(non_null), max(non_null)
            except TypeError:
                lo = hi = None
            ndv = len({repr(v) for v in non_null})
            self.fixed = ColumnStats(name, len(values), self.nulls, ndv, lo, hi, None)
            return
        if all(v == v for v in distinct):  # NaN has no place in an order
            try:
                self.distinct = sorted(distinct)
            except TypeError:  # mixed incomparable types
                pass
        if self.distinct is None:  # no total order: no order statistics
            self.fixed = ColumnStats(
                name, len(values), self.nulls, len(distinct), None, None, None
            )
            return
        span = self._span()
        if span is not None:
            self.counts = list(_build_histogram(non_null, *span).counts)

    def _span(self) -> tuple[float, float] | None:
        """The histogram's range, or ``None`` when the column has none."""
        if not (self.numeric and self.distinct):
            return None
        return _histogram_range(self.distinct[0], self.distinct[-1])

    def append(self, value) -> bool:
        """Account for ``value``, already appended to ``values``.  Returns
        False when the statistics cannot follow it; the accumulator is then
        stale."""
        if value is None:
            self.nulls += 1
            return True
        distinct = self.distinct
        if distinct is None or value != value:
            return False
        try:
            i = bisect_left(distinct, value)
        except TypeError:  # mixed incomparable types
            return False
        moved = False
        if i == len(distinct) or distinct[i] != value:
            moved = i == 0 or i == len(distinct)
            distinct.insert(i, value)
        self.numeric = (
            self.numeric
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        )
        if moved:
            self.counts = None  # rebuilt over the new range on first read
        elif self.counts is not None:
            span = self._span()
            if span is None:
                self.counts = None
            else:
                self.counts[_bucket(value, *span)] += 1
        return True

    def snapshot(self) -> ColumnStats:
        if self.fixed is not None:
            return self.fixed
        distinct, n = self.distinct, len(self.values)
        lo = hi = histogram = None
        if distinct:
            lo, hi = distinct[0], distinct[-1]
            span = self._span()
            if span is not None and self.counts is not None:
                histogram = Histogram(*span, tuple(self.counts), n - self.nulls)
            elif span is not None:
                histogram = partial(_deferred_histogram, self.values, n, span)
        return ColumnStats(self.name, n, self.nulls, len(distinct), lo, hi, histogram)


class StatsAccumulator:
    """Exact statistics of one table, extended row by row.

    Built in one pass over the table's column arrays, and holds on to
    them: :meth:`append` expects a row already appended to those arrays.
    :meth:`snapshot` is the :class:`TableStats` of the rows so far, equal
    field for field to a full rebuild over them.
    """

    def __init__(self, table: str, columns: Mapping[str, list]):
        self.table = table.lower()
        self.columns = {
            name: _ColumnAccumulator(name, values) for name, values in columns.items()
        }

    @property
    def maintainable(self) -> bool:
        """Whether :meth:`append` can follow further rows: every column's
        values are hashable and totally ordered."""
        return all(column.fixed is None for column in self.columns.values())

    def append(self, row: Mapping[str, Any]) -> bool:
        """Account for ``row``; False when the statistics cannot follow it."""
        return all(
            column.append(row.get(name)) for name, column in self.columns.items()
        )

    def snapshot(self) -> TableStats:
        columns = {name: column.snapshot() for name, column in self.columns.items()}
        row_count = next(iter(columns.values())).row_count if columns else 0
        return TableStats(table=self.table, row_count=row_count, columns=columns)


def build_table_stats(
    table: str, columns: Mapping[str, list]
) -> TableStats:
    """Collect exact statistics from a table's column arrays (one full pass)."""
    return StatsAccumulator(table, columns).snapshot()


def estimate_ndv(sample_distinct: int, sample_size: int, population: int) -> int:
    """Scale a sample's distinct count to a population NDV estimate.

    Assumes roughly uniform value multiplicity: a population with ``D``
    distinct values shows each of them in a without-replacement sample of
    ``k`` out of ``n`` rows with probability ``1 - (1 - k/n)**(n/D)``, so
    the expected sample-distinct count is ``f(D) = D·(1 - (1-k/n)**(n/D))``.
    ``f`` is monotone in ``D``; bisection inverts it on ``[d, n]``.  The
    endpoints are exact: an id-like column (``d == k``) solves to ``D = n``
    and a fully-covered low-cardinality column solves to ``D = d``.
    """
    d, k, n = sample_distinct, sample_size, population
    if d <= 0 or n <= 0:
        return 0
    if k >= n or d >= k:
        # Saturated sample: every draw was new — extrapolate linearly.
        return min(n, max(d, round(d * (n / max(k, 1)))))
    miss = 1.0 - k / n

    def expected(distinct: float) -> float:
        return distinct * (1.0 - miss ** (n / distinct))

    lo, hi = float(d), float(n)
    if expected(hi) <= d:
        return n
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if expected(mid) < d:
            lo = mid
        else:
            hi = mid
    return max(d, min(n, round((lo + hi) / 2.0)))


def _sampled_column_stats(
    name: str, values: list, population: int, sample_size: int
) -> ColumnStats:
    """ColumnStats scaled up from a sample of ``sample_size`` rows.

    NULL counts scale linearly, NDV goes through :func:`estimate_ndv`,
    min/max come from the sample (an under-estimate of the true range), and
    the histogram is built from the sample directly — its consumer
    (:meth:`Histogram.fraction_le`) is fraction-based, so no scaling is
    needed.
    """
    sample = _ColumnAccumulator(name, values).snapshot()
    null_count = round(sample.null_count * population / max(sample_size, 1))
    non_null = sample.row_count - sample.null_count
    ndv = estimate_ndv(sample.ndv, non_null, max(population - null_count, non_null))
    return replace(sample, row_count=population, null_count=null_count, ndv=ndv)


def build_sampled_table_stats(
    table: str,
    rows: list,
    column_names: list[str] | None,
    sample_size: int = STATS_SAMPLE_SIZE,
) -> TableStats:
    """Collect statistics from a uniform random sample of ``rows``.

    Reads the row dicts directly (no column transposition) so the build
    cost is O(sample), not O(table).  The sample is drawn with a
    deterministic seed derived from the table name and row count — not
    Python's randomized ``hash()`` — so repeated builds over unchanged data
    produce identical statistics (and identical plans) across processes.
    Drawing ``sample_size`` distinct indices upfront is equivalent to
    reservoir sampling for a known population size, without the O(n) RNG
    draws Algorithm R would pay.
    """
    n = len(rows)
    if sample_size <= 0 or n <= sample_size:
        names = column_names or sorted({c for row in rows for c in row})
        columns = {c: [row.get(c) for row in rows] for c in names}
        return build_table_stats(table, columns)
    seed = zlib.crc32(table.lower().encode("utf-8")) ^ n
    indices = sorted(random.Random(seed).sample(range(n), sample_size))
    sampled = [rows[i] for i in indices]
    names = column_names or sorted({c for row in sampled for c in row})
    stats = {
        name: _sampled_column_stats(
            name, [row.get(name) for row in sampled], n, sample_size
        )
        for name in names
    }
    return TableStats(
        table=table.lower(),
        row_count=n,
        columns=stats,
        sampled=True,
        sample_size=sample_size,
    )


class CardinalityEstimator:
    """Selectivity and cardinality estimates over a database's statistics.

    All methods degrade gracefully: unknown tables, columns without
    statistics, or expression shapes the arithmetic does not cover fall
    back to the module's default selectivities, so the estimator is total
    over every algebra tree the engine can execute.
    """

    def __init__(self, db):
        self._db = db

    # ------------------------------------------------------------------
    # Table-level lookups

    def stats(self, table: str) -> TableStats | None:
        try:
            return self._db.stats(table)
        except Exception:
            return None

    def table_rows(self, table: str) -> float:
        stats = self.stats(table)
        return 0.0 if stats is None else float(stats.row_count)

    def ndv(self, table: str, column: str) -> int | None:
        stats = self.stats(table)
        if stats is None:
            return None
        cs = stats.column(column)
        return None if cs is None else cs.ndv

    # ------------------------------------------------------------------
    # Predicate selectivity against one base table

    def selectivity(self, pred: ScalarExpr | None, table: str) -> float:
        """Estimated fraction of ``table``'s rows satisfying ``pred``."""
        if pred is None:
            return 1.0
        stats = self.stats(table)
        return self._pred_sel(pred, stats)

    def select_selectivity(self, rel: Select) -> float | None:
        """Selectivity of a σ node's predicate against the base table its
        columns resolve to, or ``None`` when no single base table can be
        identified (e.g. a selection over a join)."""
        base = self._base_table(rel.child)
        if base is None:
            return None
        return self.selectivity(rel.pred, base)

    def _pred_sel(self, expr: ScalarExpr, stats: TableStats | None) -> float:
        if isinstance(expr, BinOp):
            op = expr.op.upper()
            if op == "AND":
                return self._clamp(
                    self._pred_sel(expr.left, stats)
                    * self._pred_sel(expr.right, stats)
                )
            if op == "OR":
                a = self._pred_sel(expr.left, stats)
                b = self._pred_sel(expr.right, stats)
                return self._clamp(a + b - a * b)
            if op in ("=", "!=", "<", ">", "<=", ">="):
                return self._cmp_sel(op, expr.left, expr.right, stats)
            if op == "LIKE":
                return DEFAULT_LIKE_SELECTIVITY
            return DEFAULT_SELECTIVITY
        if isinstance(expr, UnOp) and expr.op.upper() == "NOT":
            return self._clamp(1.0 - self._pred_sel(expr.operand, stats))
        if isinstance(expr, Lit):
            return 1.0 if is_truthy(expr.value) else 0.0
        return DEFAULT_SELECTIVITY

    def _cmp_sel(self, op, left, right, stats: TableStats | None) -> float:
        column, value, flipped = self._column_vs_value(left, right, stats)
        if column is None:
            # col-to-col comparison on the same table, or no statistics.
            if (
                op == "="
                and stats is not None
                and isinstance(left, Col)
                and isinstance(right, Col)
            ):
                a, b = stats.column(left.name), stats.column(right.name)
                if a is not None and b is not None:
                    return self._clamp(1.0 / max(a.ndv, b.ndv, 1))
            return (
                DEFAULT_EQ_SELECTIVITY
                if op in ("=", "!=")
                else DEFAULT_SELECTIVITY
            )
        if op in ("<", ">", "<=", ">="):
            if flipped:
                # value OP col  ≡  col (flipped OP) value
                op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]
            return self._range_sel(op, column, value)
        eq = self._eq_sel(column, value)
        return eq if op == "=" else self._clamp(1.0 - eq)

    def _column_vs_value(self, left, right, stats):
        """Split a comparison into (ColumnStats, value-or-_UNKNOWN, flipped);
        ``flipped`` is True when the column sits on the right-hand side."""
        if stats is None:
            return None, None, False
        for col, other, flipped in ((left, right, False), (right, left, True)):
            if not isinstance(col, Col):
                continue
            cs = stats.column(col.name)
            if cs is None:
                continue
            if isinstance(other, Col):
                return None, None, False
            if isinstance(other, Lit):
                return cs, other.value, flipped
            return cs, _UNKNOWN, flipped
        return None, None, False

    def _eq_sel(self, cs: ColumnStats, value) -> float:
        if cs.row_count == 0 or cs.ndv == 0:
            return 0.0
        if value is None:
            return 0.0  # col = NULL is never true
        if value is not _UNKNOWN and cs.numeric:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if value < cs.min_value or value > cs.max_value:
                    return 0.0
            else:
                return 0.0  # non-numeric literal against a numeric column
        return self._clamp(1.0 / cs.ndv)

    def _range_sel(self, op: str, cs: ColumnStats, value) -> float:
        if cs.row_count == 0:
            return 0.0
        if value is None or value != value:
            return 0.0  # NULL and NaN satisfy no comparison
        hist = cs.histogram
        if (
            value is _UNKNOWN
            or hist is None
            or not isinstance(value, (int, float))
            or isinstance(value, bool)
        ):
            return DEFAULT_SELECTIVITY
        le = hist.fraction_le(float(value))
        point = 1.0 / max(cs.ndv, 1)
        if op == "<=":
            sel = le
        elif op == "<":
            sel = le - point
        elif op == ">":
            sel = 1.0 - le
        else:  # >=
            sel = 1.0 - le + point
        # Discount NULLs: they satisfy no comparison.
        non_null = (cs.row_count - cs.null_count) / cs.row_count
        return self._clamp(sel * non_null)

    @staticmethod
    def _clamp(value: float) -> float:
        return min(1.0, max(0.0, value))

    # ------------------------------------------------------------------
    # Cardinality of relational trees

    def estimate(self, rel: RelExpr) -> float:
        """Estimated output row count of an algebra tree."""
        if isinstance(rel, Table):
            return self.table_rows(rel.name)
        if isinstance(rel, Select):
            base = self._base_table(rel.child)
            child = self.estimate(rel.child)
            if base is None:
                return child * DEFAULT_SELECTIVITY
            return child * self.selectivity(rel.pred, base)
        if isinstance(rel, (Project, Sort, Alias)):
            return self.estimate(rel.child)
        if isinstance(rel, Distinct):
            return self.estimate(rel.child)
        if isinstance(rel, Limit):
            return min(float(max(rel.count, 0)), self.estimate(rel.child))
        if isinstance(rel, Aggregate):
            return self._estimate_aggregate(rel)
        if isinstance(rel, Join):
            return self._estimate_join(rel)
        if isinstance(rel, OuterApply):
            return self.estimate(rel.left)
        return 1.0

    def _base_table(self, rel: RelExpr) -> str | None:
        """The single base table a predicate's columns resolve against,
        looking through name-preserving wrappers."""
        while isinstance(rel, (Select, Sort, Distinct, Limit, Alias)):
            rel = rel.child
        if isinstance(rel, Table):
            return rel.name
        return None

    def _tables_below(self, rel: RelExpr) -> list[str]:
        return [n.name for n in walk_relational(rel) if isinstance(n, Table)]

    def _ndv_below(self, col: Col, rel: RelExpr) -> int | None:
        """NDV of ``col`` against whichever base table below ``rel``
        defines it (first match)."""
        for table in self._tables_below(rel):
            ndv = self.ndv(table, col.name)
            if ndv is not None:
                return ndv
        return None

    def _estimate_aggregate(self, rel: Aggregate) -> float:
        child = self.estimate(rel.child)
        if not rel.group_by:
            return 1.0
        groups = 1.0
        for expr in rel.group_by:
            if isinstance(expr, Col):
                ndv = self._ndv_below(expr, rel.child)
                groups *= float(ndv) if ndv is not None else max(child, 1.0) ** 0.5
            else:
                groups *= max(child, 1.0) ** 0.5
        return max(min(groups, child), 1.0 if child > 0 else 0.0)

    def _estimate_join(self, rel: Join) -> float:
        left = self.estimate(rel.left)
        right = self.estimate(rel.right)
        rows = left * right
        if rel.pred is not None:
            from .planner import split_conjuncts  # late: avoids import cycle

            for conjunct in split_conjuncts(rel.pred):
                if (
                    isinstance(conjunct, BinOp)
                    and conjunct.op == "="
                    and isinstance(conjunct.left, Col)
                    and isinstance(conjunct.right, Col)
                ):
                    ndvs = [
                        self._ndv_below(conjunct.left, rel),
                        self._ndv_below(conjunct.right, rel),
                    ]
                    known = [n for n in ndvs if n is not None]
                    rows /= float(max(known)) if known else 10.0
                else:
                    rows *= DEFAULT_SELECTIVITY
        if rel.kind == "left":
            rows = max(rows, left)
        return rows
