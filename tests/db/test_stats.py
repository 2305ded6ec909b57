"""Unit tests for table statistics and cardinality estimation.

Covers statistics collection (row counts, NDV, min/max, NULL accounting,
equi-width histograms, non-finite values), their maintenance on append
alongside the column arrays and hash indexes, the statistics-epoch keying
of the plan cache, the
``columnar_mode`` knob, and the rewrite-cost bridge
(``DeploymentProfile.with_observed`` and the estimator-upgraded
``AlternativeCostModel``).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.db.stats
from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    Catalog,
    Col,
    Join,
    Lit,
    Param,
    Select,
    Table,
)
from repro.db import (
    CardinalityEstimator,
    Database,
    EngineError,
    Histogram,
    TableStats,
)
from repro.db.engine import _PLAN_CACHE_LIMIT
from repro.db.stats import (
    HISTOGRAM_BUCKETS,
    build_sampled_table_stats,
    estimate_ndv,
)


def _make_db(rows: int = 200) -> Database:
    """``rows`` rows of t(id, grp, val, label): grp cycles 0..9, val = id,
    label cycles over four strings."""
    cat = Catalog()
    cat.define("t", ["id", "grp", "val", "label"], key=("id",))
    db = Database(cat)
    db.insert_many(
        "t",
        [
            {"id": i, "grp": i % 10, "val": float(i), "label": f"L{i % 4}"}
            for i in range(rows)
        ],
    )
    return db


class TestTableStats:
    def test_row_count_and_column_coverage(self):
        stats = _make_db(200).stats("t")
        assert isinstance(stats, TableStats)
        assert stats.row_count == 200
        assert set(stats.columns) == {"id", "grp", "val", "label"}

    def test_ndv_and_minmax(self):
        stats = _make_db(200).stats("t")
        grp = stats.column("grp")
        assert grp.ndv == 10
        assert grp.min_value == 0 and grp.max_value == 9
        val = stats.column("val")
        assert val.ndv == 200
        assert val.min_value == 0.0 and val.max_value == 199.0
        assert stats.column("label").ndv == 4

    def test_null_accounting(self):
        db = _make_db(10)
        db.insert("t", {"id": 100, "grp": None, "val": None, "label": None})
        grp = db.stats("t").column("grp")
        assert grp.row_count == 11
        assert grp.null_count == 1
        assert grp.ndv == 10  # NULLs are not distinct values

    def test_numeric_column_gets_histogram(self):
        hist = _make_db(200).stats("t").column("val").histogram
        assert hist is not None
        assert len(hist.counts) == HISTOGRAM_BUCKETS
        assert sum(hist.counts) == hist.total == 200

    def test_subnormal_span_histogram(self):
        # 16 / span overflows to inf when the span is subnormal.
        tiny = 2.2250738585e-313
        stats = repro.db.stats.build_table_stats("t", {"a": [0, tiny, -tiny]})
        hist = stats.column("a").histogram
        assert (hist.counts[0], hist.counts[8], hist.counts[-1]) == (1, 1, 1)

    def test_string_column_has_no_histogram(self):
        assert _make_db(50).stats("t").column("label").histogram is None

    def test_stats_cached_until_data_changes(self):
        db = _make_db(50)
        first = db.stats("t")
        assert db.stats("t") is first  # cached object, no rebuild
        db.insert("t", {"id": 999, "grp": 0, "val": 999.0, "label": "x"})
        second = db.stats("t")
        assert second is not first
        assert second.row_count == 51
        assert second.column("val").max_value == 999.0

    def test_clear_resets_stats(self):
        db = _make_db(50)
        assert db.stats("t").row_count == 50
        db.clear("t")
        stats = db.stats("t")
        assert stats.row_count == 0
        assert stats.column("val").ndv == 0
        assert stats.column("val").histogram is None

    def test_unknown_table_raises(self):
        with pytest.raises(EngineError):
            _make_db(1).stats("nope")

    def test_to_dict_shape(self):
        data = _make_db(10).stats("t").to_dict()
        assert data["table"] == "t"
        assert data["row_count"] == 10
        assert data["columns"]["grp"]["ndv"] == 10


class TestHistogram:
    def test_fraction_le_boundaries_and_monotonicity(self):
        hist = _make_db(200).stats("t").column("val").histogram
        assert hist.fraction_le(-1.0) == 0.0
        assert hist.fraction_le(199.0) == 1.0
        assert hist.fraction_le(10_000.0) == 1.0
        fractions = [hist.fraction_le(float(v)) for v in range(0, 200, 10)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_uniform_midpoint_is_about_half(self):
        hist = _make_db(200).stats("t").column("val").histogram
        assert 0.4 <= hist.fraction_le(100.0) <= 0.6

    def test_empty_histogram(self):
        assert Histogram(0.0, 0.0, (0,) * 4, 0).fraction_le(1.0) == 0.0


class TestCardinalityEstimator:
    def test_equality_uses_ndv(self):
        db = _make_db(200)
        est = CardinalityEstimator(db)
        # grp has 10 distinct values: σ[grp = 3] ≈ 200/10 rows.
        query = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))
        assert est.estimate(query) == pytest.approx(20.0, rel=0.01)
        assert est.selectivity(query.pred, "t") == pytest.approx(0.1, rel=0.01)

    def test_range_uses_histogram(self):
        est = CardinalityEstimator(_make_db(200))
        query = Select(Table("t"), BinOp("<", Col("val"), Lit(100.0)))
        # Uniform values 0..199: about half the rows fall below 100.
        assert 60 <= est.estimate(query) <= 140

    def test_out_of_range_literal_estimates_zero(self):
        est = CardinalityEstimator(_make_db(200))
        query = Select(Table("t"), BinOp("=", Col("val"), Lit(10_000.0)))
        assert est.estimate(query) == 0.0

    def test_no_predicate_is_full_table(self):
        est = CardinalityEstimator(_make_db(123))
        assert est.estimate(Table("t")) == 123.0
        assert est.selectivity(None, "t") == 1.0

    def test_grouped_aggregate_estimates_group_count(self):
        est = CardinalityEstimator(_make_db(200))
        query = Aggregate(
            Table("t"), (Col("grp"),), (AggItem(AggCall("count", None), "n"),)
        )
        assert est.estimate(query) == pytest.approx(10.0, rel=0.01)

    def test_global_aggregate_estimates_one_row(self):
        est = CardinalityEstimator(_make_db(200))
        query = Aggregate(Table("t"), (), (AggItem(AggCall("count", None), "n"),))
        assert est.estimate(query) == 1.0

    def test_equijoin_divides_by_max_ndv(self):
        est = CardinalityEstimator(_make_db(200))
        join = Join(
            Table("t", "a"),
            Table("t", "b"),
            BinOp("=", Col("grp", "a"), Col("grp", "b")),
        )
        # |L|·|R| / max(NDV) = 200·200/10; order of magnitude is the claim.
        estimate = est.estimate(join)
        assert 1_000 <= estimate <= 20_000

    def test_select_selectivity_needs_single_base_table(self):
        est = CardinalityEstimator(_make_db(50))
        over_table = Select(Table("t"), BinOp("=", Col("grp"), Lit(1)))
        assert est.select_selectivity(over_table) == pytest.approx(0.1, rel=0.01)
        over_join = Select(
            Join(Table("t", "a"), Table("t", "b"), None, "cross"),
            BinOp("=", Col("grp", "a"), Lit(1)),
        )
        assert est.select_selectivity(over_join) is None

    def test_degrades_on_unknown_tables(self):
        est = CardinalityEstimator(_make_db(10))
        assert est.table_rows("missing") == 0.0
        assert est.ndv("missing", "x") is None


class TestPlanCacheEpochs:
    QUERY = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))

    def test_plan_cached_within_epoch(self):
        db = _make_db(100)
        plan = db.plan(self.QUERY)
        hits = db.plan_cache_hits
        assert db.plan(self.QUERY) is plan
        assert db.plan_cache_hits == hits + 1

    def test_insert_forces_replan(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        misses = db.plan_cache_misses
        db.insert("t", {"id": 1000, "grp": 3, "val": 1.0, "label": "x"})
        db.plan(self.QUERY)
        assert db.plan_cache_misses == misses + 1

    def test_create_index_forces_replan(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        misses = db.plan_cache_misses
        db.create_index("t", "grp")
        db.plan(self.QUERY)
        assert db.plan_cache_misses == misses + 1

    def test_columnar_mode_change_forces_replan(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        misses = db.plan_cache_misses
        db.columnar_mode = "off"
        db.plan(self.QUERY)
        assert db.plan_cache_misses == misses + 1

    def test_columnar_mode_reassign_same_value_keeps_cache(self):
        db = _make_db(100)
        db.plan(self.QUERY)
        hits = db.plan_cache_hits
        db.columnar_mode = "auto"  # unchanged: no invalidation
        db.plan(self.QUERY)
        assert db.plan_cache_hits == hits + 1

    def test_columnar_mode_validates(self):
        db = _make_db(1)
        with pytest.raises(EngineError):
            db.columnar_mode = "vectorized"
        assert db.columnar_mode == "auto"

    def test_overflow_evicts_the_least_recently_used_plan_only(self):
        db = _make_db(20)
        queries = [
            Select(Table("t"), BinOp("=", Col("grp"), Lit(i)))
            for i in range(_PLAN_CACHE_LIMIT + 1)
        ]
        for query in queries[:-1]:
            db.plan(query)
        db.plan(queries[0])  # now the most recently used
        db.plan(queries[-1])  # one past the bound: evicts queries[1]
        assert len(db._plan_cache) == _PLAN_CACHE_LIMIT
        misses, hits = db.plan_cache_misses, db.plan_cache_hits
        for query in queries[:1] + queries[2:]:
            db.plan(query)
        assert db.plan_cache_misses == misses
        assert db.plan_cache_hits == hits + _PLAN_CACHE_LIMIT
        db.plan(queries[1])
        assert db.plan_cache_misses == misses + 1


def _wide_db(rows: int) -> Database:
    """t(id, grp, val): grp has 100 distinct values, val is all-distinct,
    and every 10th val is NULL — known ground truth for estimate checks."""
    cat = Catalog()
    cat.define("t", ["id", "grp", "val"], key=("id",))
    db = Database(cat)
    db.insert_many(
        "t",
        [
            {
                "id": i,
                "grp": i % 100,
                "val": None if i % 10 == 0 else float(i),
            }
            for i in range(rows)
        ],
    )
    return db


class TestEstimateNdv:
    def test_all_distinct_sample_estimates_population(self):
        # Every sampled value unique → the population is likely all-distinct.
        assert estimate_ndv(1000, 1000, 50_000) >= 25_000

    def test_constant_sample_estimates_one(self):
        assert estimate_ndv(1, 1000, 50_000) == pytest.approx(1.0, abs=1.0)

    def test_low_cardinality_recovered(self):
        # 100 true values: a 1000-row sample sees all of them, and the
        # estimator must not inflate far beyond what it saw.
        assert 100 <= estimate_ndv(100, 1000, 50_000) <= 200

    def test_degenerate_inputs(self):
        assert estimate_ndv(0, 0, 1000) == 0.0
        assert estimate_ndv(5, 5, 5) == 5.0

    def test_never_exceeds_population(self):
        assert estimate_ndv(999, 1000, 1200) <= 1200


class TestSampledStats:
    N = 20_000
    SAMPLE = 2_000

    def test_explicit_sample_marks_metadata(self):
        stats = _wide_db(self.N).stats("t", sample=self.SAMPLE)
        assert stats.sampled is True
        assert stats.sample_size == self.SAMPLE
        assert stats.row_count == self.N  # row count stays exact

    def test_sample_zero_forces_exact(self):
        stats = _wide_db(self.N).stats("t", sample=0)
        assert stats.sampled is False
        assert stats.column("grp").ndv == 100
        assert stats.column("val").null_count == self.N // 10

    def test_sampled_ndv_within_2x(self):
        db = _wide_db(self.N)
        exact = db.stats("t", sample=0)
        sampled = db.stats("t", sample=self.SAMPLE)
        for column in ("id", "grp", "val"):
            true_ndv = exact.column(column).ndv
            est = sampled.column(column).ndv
            assert true_ndv / 2 <= est <= true_ndv * 2, (column, est, true_ndv)

    def test_sampled_null_count_scaled(self):
        stats = _wide_db(self.N).stats("t", sample=self.SAMPLE)
        true_nulls = self.N // 10
        est = stats.column("val").null_count
        assert true_nulls / 2 <= est <= true_nulls * 2

    def test_sampling_is_deterministic(self):
        db = _wide_db(self.N)
        first = db.stats("t", sample=self.SAMPLE)
        second = db.stats("t", sample=self.SAMPLE)
        assert first is not second  # explicit builds are never cached
        assert first.to_dict() == second.to_dict()

    def test_sample_covering_table_degrades_to_exact(self):
        db = _wide_db(500)
        stats = db.stats("t", sample=10_000)
        assert stats.sampled is False
        assert stats.column("grp").ndv == 100

    def test_explicit_build_leaves_cache_alone(self):
        db = _wide_db(500)
        cached = db.stats("t")
        db.stats("t", sample=100)
        assert db.stats("t") is cached

    def test_auto_policy_samples_above_threshold(self, monkeypatch):
        monkeypatch.setattr("repro.db.stats.STATS_EXACT_MAX", 1_000)
        monkeypatch.setattr("repro.db.stats.STATS_SAMPLE_SIZE", 500)
        db = _wide_db(5_000)
        stats = db.stats("t")
        assert stats.sampled is True
        assert stats.sample_size == 500
        assert stats.row_count == 5_000

    def test_auto_policy_exact_below_threshold(self):
        stats = _wide_db(500).stats("t")
        assert stats.sampled is False

    def test_sampled_histogram_usable_for_ranges(self):
        db = _wide_db(self.N)
        monkey_stats = db.stats("t", sample=self.SAMPLE)
        hist = monkey_stats.column("id").histogram
        assert hist is not None
        # Uniform ids 0..N: the sampled histogram still puts ~half the
        # mass below the midpoint.
        assert 0.3 <= hist.fraction_le(self.N / 2) <= 0.7

    def test_to_dict_carries_sampling_metadata(self):
        data = _wide_db(self.N).stats("t", sample=self.SAMPLE).to_dict()
        assert data["sampled"] is True
        assert data["sample_size"] == self.SAMPLE

    def test_build_sampled_direct(self):
        rows = [{"id": i, "v": i % 7} for i in range(3_000)]
        stats = build_sampled_table_stats("x", rows, ["id", "v"], 300)
        assert stats.row_count == 3_000
        assert stats.sampled is True
        assert 3 <= stats.column("v").ndv <= 14


class TestRewriteCostBridge:
    def test_with_observed_reads_live_row_counts(self):
        from repro.rewrites.profile import LOCAL

        db = _make_db(137)
        profile = LOCAL.with_observed(db)
        assert profile.cardinality("t") == 137.0
        assert profile.cardinality("unknown") == LOCAL.default_table_rows

    def test_estimator_upgrades_selection_selectivity(self):
        from repro.rewrites.cost import AlternativeCostModel
        from repro.rewrites.profile import LOCAL

        db = _make_db(200)
        query = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))
        flat = AlternativeCostModel(LOCAL, database=db)
        assert flat.cardinality(query).rows == pytest.approx(
            200 * LOCAL.selectivity
        )
        observed = AlternativeCostModel(
            LOCAL, database=db, estimator=CardinalityEstimator(db)
        )
        assert observed.cardinality(query).rows == pytest.approx(20.0, rel=0.01)


# ----------------------------------------------------------------------
# Maintenance on append

_COLUMNS = ["id", "a", "b"]

#: Appended values: in-range and out-of-range numbers, duplicates of the
#: initial values, bools, strings and NULLs, plus values the statistics
#: cannot follow (non-finite floats, mixed types, unhashable lists).
_APPENDED = st.one_of(
    st.none(),
    st.integers(-8, 8),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.sampled_from([0, 1, 2.5, "s0"]),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
)


def _index_of(rows: list, column: str) -> dict | None:
    index: dict = {}
    try:
        for row in rows:
            if row[column] is not None:
                index.setdefault(row[column], []).append(row)
    except TypeError:
        return None
    return index


def _check_order_statistics(stats: TableStats, rows: list) -> None:
    """NDV, min and max against their definitions, for every column whose
    values are hashable and totally ordered."""
    for column in _COLUMNS:
        values = [row[column] for row in rows if row[column] is not None]
        if any(v != v for v in values):
            continue  # NaN: no order statistics
        try:
            expected = (len(set(values)), min(values), max(values))
        except (TypeError, ValueError):  # unhashable, mixed types, or empty
            continue
        cs = stats.column(column)
        assert (cs.ndv, cs.min_value, cs.max_value) == expected


@given(
    initial=st.lists(st.one_of(st.none(), st.integers(-3, 3)), max_size=12),
    stream=st.lists(st.tuples(_APPENDED, _APPENDED), max_size=25),
    headroom=st.integers(0, 40),
)
@settings(max_examples=200, deadline=None)
def test_append_keeps_statistics_arrays_and_indexes_equal_to_a_rebuild(
    initial, stream, headroom
):
    exact_max = len(initial) + headroom
    with mock.patch.multiple(
        "repro.db.stats", STATS_EXACT_MAX=exact_max, STATS_SAMPLE_SIZE=8
    ):
        cat = Catalog()
        cat.define("t", _COLUMNS, key=("id",))
        db = Database(cat)
        db.insert_many(
            "t", [{"id": i, "a": a, "b": f"s{i % 3}"} for i, a in enumerate(initial)]
        )
        db.create_index("t", "a")
        db.stats("t")
        db.columns("t")
        db.index_on("t", "a")
        db.index_on("t", "id", auto=True)
        for offset, (a, b) in enumerate(stream):
            db.insert("t", {"id": len(initial) + offset, "a": a, "b": b})
            rows = db.rows("t")
            if len(rows) > exact_max:
                expected = build_sampled_table_stats("t", rows, _COLUMNS, 8)
            else:
                expected = db.stats("t", sample=0)
                _check_order_statistics(expected, rows)
            assert db.stats("t") == expected
            assert db.columns("t") == {
                column: [row[column] for row in rows] for column in _COLUMNS
            }
            for column in ("id", "a"):
                assert db.index_on("t", column) == _index_of(rows, column)


def test_appends_extend_instead_of_rebuilding(monkeypatch):
    """50 appends to a 6×10³-row table whose statistics, column arrays and
    key index are built, with a point lookup and a columnar aggregate after
    each: no statistics build, no transposition, and the index is the same
    object throughout (a rebuild makes a new one)."""
    db = _make_db(6_000)
    lookup = Select(Table("t"), BinOp("=", Col("id"), Param("k")))
    aggregate = Aggregate(
        Select(Table("t"), BinOp(">", Col("val"), Lit(100.0))),
        (Col("grp"),),
        (AggItem(AggCall("sum", Col("val")), "s"),),
    )

    def run(k: int) -> list[str]:
        ops = []
        for query in (lookup, aggregate):
            stack = [db.explain(query, {"k": k})]
            while stack:
                node = stack.pop()
                ops.append(node["op"])
                stack.extend(node["children"])
        return ops

    run(1)
    index = db.index_on("t", "id")
    builds: list = []
    transposes: list = []
    build_table_stats = repro.db.stats.build_table_stats
    transpose = Database._transpose
    monkeypatch.setattr(
        repro.db.stats,
        "build_table_stats",
        lambda *args: builds.append(args) or build_table_stats(*args),
    )
    monkeypatch.setattr(
        Database,
        "_transpose",
        lambda self, name: transposes.append(name) or transpose(self, name),
    )
    for i in range(6_000, 6_050):
        db.insert("t", {"id": i, "grp": i % 10, "val": float(i), "label": "x"})
        ops = run(i)
        assert "IndexLookup" in ops
        assert any(op.startswith("Columnar") for op in ops)
        assert db.index_on("t", "id") is index
    assert builds == []
    assert transposes == []
    assert db.stats("t") == db.stats("t", sample=0)


def test_new_maximum_defers_the_histogram_past_equality_estimates():
    db = _make_db(200)
    db.stats("t")
    for i in (998, 999):  # the first insert starts maintenance, the second defers
        db.insert("t", {"id": i, "grp": 0, "val": float(i), "label": "x"})
    val = db.stats("t").column("val")
    assert val.numeric
    estimator = CardinalityEstimator(db)
    assert estimator.selectivity(BinOp("=", Col("val"), Lit(5.0)), "t") > 0
    assert callable(val._histogram)  # the estimate did not build it
    assert val.histogram == db.stats("t", sample=0).column("val").histogram
    assert not callable(val._histogram)  # built once, then cached


_RANGE_QUERY = Select(Table("t"), BinOp(">", Col("val"), Lit(3.0)))


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)
class TestNonFiniteValues:
    """A non-finite float in a numeric column gives it no histogram, and
    planned queries over it agree with the reference engine."""

    def test_exact_build(self, bad):
        db = _make_db(100)
        db.insert("t", {"id": 500, "grp": 1, "val": bad, "label": "x"})
        assert db.stats("t").column("val").histogram is None
        assert len(db.execute(_RANGE_QUERY, engine="both")) == 96 + (bad > 3.0)

    def test_sampled_build(self, bad, monkeypatch):
        monkeypatch.setattr("repro.db.stats.STATS_EXACT_MAX", 50)
        monkeypatch.setattr("repro.db.stats.STATS_SAMPLE_SIZE", 60)
        db = _make_db(0)
        db.insert_many(
            "t",
            [
                {"id": i, "grp": i % 10, "val": bad if i % 4 == 0 else float(i)}
                for i in range(100)
            ],
        )
        stats = db.stats("t")
        assert stats.sampled
        assert stats.column("val").histogram is None
        db.execute(_RANGE_QUERY, engine="both")

    def test_after_append(self, bad):
        db = _make_db(100)
        db.execute(_RANGE_QUERY, engine="both")
        db.insert("t", {"id": 500, "grp": 1, "val": bad, "label": "x"})
        assert len(db.execute(_RANGE_QUERY, engine="both")) == 96 + (bad > 3.0)
        assert db.stats("t") == db.stats("t", sample=0)

    def test_min_max_independent_of_row_order(self, bad):
        values = [bad, 1.0, 5.0, 2.0]
        ends = []
        for ordered in (values, values[::-1]):
            db = _make_db(0)
            db.insert_many("t", [{"id": i, "val": v} for i, v in enumerate(ordered)])
            cs = db.stats("t").column("val")
            ends.append((cs.min_value, cs.max_value))
        assert ends[0] == ends[1]


def test_nan_literal_in_a_range_predicate():
    db = _make_db(100)
    query = Select(Table("t"), BinOp(">", Col("val"), Lit(float("nan"))))
    assert db.execute(query, engine="both") == []
