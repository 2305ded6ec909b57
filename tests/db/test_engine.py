"""In-memory engine tests: operator semantics over real data."""

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    Alias,
    BinOp,
    CaseWhen,
    Col,
    Distinct,
    ExistsExpr,
    Func,
    Join,
    Limit,
    Lit,
    OuterApply,
    Param,
    Project,
    ProjectItem,
    ScalarSubquery,
    Select,
    Sort,
    SortKey,
    Table,
    UnOp,
)
from repro.db import Database, EngineError
from repro.sqlparse import parse_query


def col_values(rows, name):
    return [row[name] for row in rows]


class TestScan:
    def test_scan_returns_all_rows(self, database):
        rows = database.execute(Table("project"))
        assert len(rows) == 4

    def test_scan_adds_alias_qualified_keys(self, database):
        rows = database.execute(Table("project", "p"))
        assert rows[0]["p.name"] == rows[0]["name"]

    def test_unknown_table_raises(self, database):
        with pytest.raises(EngineError):
            database.execute(Table("missing"))


class TestSelect:
    def test_filter(self, database):
        rel = Select(Table("project"), BinOp("=", Col("finished"), Lit(False)))
        assert col_values(database.execute(rel), "name") == ["alpha", "gamma"]

    def test_filter_preserves_order(self, database):
        rel = Select(Table("board"), BinOp("=", Col("rnd_id"), Lit(1)))
        assert col_values(database.execute(rel), "id") == [1, 2]

    def test_unknown_where_is_filtered(self, database):
        database.insert("project", {"id": 9, "name": None, "finished": None})
        rel = Select(Table("project"), BinOp("=", Col("finished"), Lit(False)))
        names = col_values(database.execute(rel), "name")
        assert None not in names  # NULL = FALSE is unknown, row dropped

    def test_parameter_binding(self, database):
        rel = Select(Table("board"), BinOp("=", Col("rnd_id"), Param("r")))
        assert len(database.execute(rel, {"r": 2})) == 1

    def test_unbound_parameter_raises(self, database):
        rel = Select(Table("board"), BinOp("=", Col("rnd_id"), Param("r")))
        with pytest.raises(EngineError):
            database.execute(rel)


class TestProject:
    def test_projection_renames(self, database):
        rel = Project(Table("project"), (ProjectItem(Col("name"), "label"),))
        rows = database.execute(rel)
        plain = {k for k in rows[0] if "." not in k}
        assert plain == {"label"}

    def test_projection_passes_qualified_columns_for_order_by(self, database):
        """Like SQL, ORDER BY above a SELECT list may reference FROM columns
        that are not projected."""
        from repro.sqlparse import parse_query

        rel = parse_query("select name from project p order by p.budget desc")
        rows = database.execute(rel)
        assert [r["name"] for r in rows] == ["gamma", "beta", "alpha", "delta"]

    def test_projection_computes(self, database):
        rel = Project(
            Table("board"),
            (ProjectItem(Func("GREATEST", (Col("p1"), Col("p2"))), "hi"),),
        )
        assert col_values(database.execute(rel), "hi") == [30, 2, 99]

    def test_projection_preserves_row_count_and_order(self, database):
        rel = Project(Table("project"), (ProjectItem(Col("id")),))
        assert col_values(database.execute(rel), "id") == [1, 2, 3, 4]

    def test_star_projection(self, database):
        rel = Project(Table("project"), (ProjectItem(Col("*")),))
        assert len(database.execute(rel)) == 4


class TestJoin:
    def test_inner_join(self, database):
        rel = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("id", "r"), Col("role_id", "u")),
        )
        rows = database.execute(rel)
        assert len(rows) == 3
        assert {r["r.role_name"] for r in rows} == {"admin", "dev"}

    def test_left_join_pads_nulls(self, database):
        database.insert("wilosuser", {"id": 9, "name": "zed", "role_id": 99})
        rel = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("id", "r"), Col("role_id", "u")),
            "left",
        )
        rows = database.execute(rel)
        zed = [r for r in rows if r["u.name"] == "zed"][0]
        assert zed["r.role_name"] is None

    def test_cross_join(self, database):
        rel = Join(Table("role"), Table("customers"), None, "cross")
        assert len(database.execute(rel)) == 4


class TestAggregate:
    def test_global_max(self, database):
        rel = Aggregate(Table("board"), (), (AggItem(AggCall("max", Col("p1")), "m"),))
        assert database.execute(rel) == [{"m": 99}]

    def test_count_star(self, database):
        rel = Aggregate(Table("project"), (), (AggItem(AggCall("count", None), "n"),))
        assert database.execute(rel) == [{"n": 4}]

    def test_sum_on_empty_is_null(self, database):
        rel = Aggregate(
            Select(Table("orders"), Lit(False)),
            (),
            (AggItem(AggCall("sum", Col("amount")), "s"),),
        )
        assert database.execute(rel) == [{"s": None}]

    def test_count_on_empty_is_zero(self, database):
        rel = Aggregate(
            Select(Table("orders"), Lit(False)),
            (),
            (AggItem(AggCall("count", None), "n"),),
        )
        assert database.execute(rel) == [{"n": 0}]

    def test_group_by(self, database):
        rel = Aggregate(
            Table("orders"),
            (Col("cust"),),
            (AggItem(AggCall("sum", Col("amount")), "total"),),
        )
        rows = database.execute(rel)
        assert rows == [{"cust": "a", "total": 30}, {"cust": "b", "total": 5}]

    def test_aggregate_skips_nulls(self, database):
        database.insert("orders", {"id": 9, "cust": "a", "amount": None})
        rel = Aggregate(
            Table("orders"), (), (AggItem(AggCall("sum", Col("amount")), "s"),)
        )
        assert database.execute(rel) == [{"s": 35}]

    def test_avg(self, database):
        rel = Aggregate(
            Table("orders"), (), (AggItem(AggCall("avg", Col("amount")), "a"),)
        )
        assert database.execute(rel)[0]["a"] == pytest.approx(35 / 3)

    def test_count_distinct(self, database):
        rel = Aggregate(
            Table("orders"),
            (),
            (AggItem(AggCall("count", Col("cust"), distinct=True), "n"),),
        )
        assert database.execute(rel) == [{"n": 2}]


class TestSortDistinctLimit:
    def test_sort_ascending(self, database):
        rel = Sort(Table("project"), (SortKey(Col("budget")),))
        assert col_values(database.execute(rel), "budget") == [5, 10, 20, 30]

    def test_sort_descending(self, database):
        rel = Sort(Table("project"), (SortKey(Col("budget"), ascending=False),))
        assert col_values(database.execute(rel), "budget") == [30, 20, 10, 5]

    def test_sort_is_stable(self, database):
        rel = Sort(Table("board"), (SortKey(Col("rnd_id")),))
        assert col_values(database.execute(rel), "id") == [1, 2, 3]

    def test_sort_nulls_last(self, database):
        database.insert("project", {"id": 9, "name": "x", "budget": None})
        rel = Sort(Table("project"), (SortKey(Col("budget")),))
        assert database.execute(rel)[-1]["budget"] is None

    def test_limit(self, database):
        rel = Limit(Sort(Table("project"), (SortKey(Col("budget"), False),)), 2)
        assert col_values(database.execute(rel), "budget") == [30, 20]

    def test_distinct(self, database):
        rel = Distinct(Project(Table("orders"), (ProjectItem(Col("cust")),)))
        assert col_values(database.execute(rel), "cust") == ["a", "b"]


class TestOuterApply:
    def test_apply_correlated_aggregate(self, database):
        inner = Aggregate(
            Select(Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c"))),
            (),
            (AggItem(AggCall("sum", Col("amount")), "total"),),
        )
        rel = OuterApply(Table("customers", "c"), inner)
        rows = database.execute(rel)
        assert [(r["cust"], r["total"]) for r in rows] == [("a", 30), ("b", 5)]

    def test_apply_pads_nulls_on_empty(self, database):
        database.insert("customers", {"cust": "z", "region": "ap"})
        inner = Project(
            Select(Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c"))),
            (ProjectItem(Col("amount"), "amt"),),
        )
        rel = OuterApply(Table("customers", "c"), inner)
        rows = database.execute(rel)
        z = [r for r in rows if r["cust"] == "z"][0]
        assert z["amt"] is None

    # Lowering of the right side: a correlated equality on an indexed
    # column probes the index with the left row's value, unless the inner
    # row could divert the probe column's lookup.

    def test_key_correlation_probes_index(self, database):
        right = Select(
            Table("customers", "c"), BinOp("=", Col("cust", "c"), Col("cust", "o"))
        )
        rel = OuterApply(Table("orders", "o"), right)
        assert _right_sides(database.explain(rel)) == [["IndexLookup"]]
        rows = database.execute(rel, engine="both")
        assert [(r["id"], r["c.region"]) for r in rows] == [
            (1, "eu"), (2, "eu"), (3, "us"),
        ]

    def test_apply_chain_probes_every_right_side(self, database):
        """The JobPortal shape: each APPLY's left input is an APPLY chain,
        whose rows all carry the first table's names."""
        # One-row tables scan cheaper than they probe; give them two.
        database.insert("feedback1", {"applicantId": 2, "score1": 4})
        database.insert("feedback2", {"applicantId": 2, "score2": 5})
        rel = Table("applicants", "a")
        for table, alias, column in (
            ("personal", "p", "name"),
            ("feedback1", "f1", "score1"),
            ("feedback2", "f2", "score2"),
        ):
            probe = BinOp("=", Col("applicantId", alias), Col("applicantId", "a"))
            rel = OuterApply(
                rel,
                Project(
                    Select(Table(table, alias), probe),
                    (ProjectItem(Col(column, alias), column),),
                ),
            )
        sides = _right_sides(database.explain(rel))
        assert sides == [["Project", "IndexLookup"]] * 3
        rows = database.execute(rel, engine="both")
        assert [(r["name"], r["score1"], r["score2"]) for r in rows] == [
            ("ann", 9, 6), ("bob", 4, 5), ("cat", None, None),
        ]

    def test_null_correlation_pads(self, database):
        database.insert("orders", {"id": 4, "cust": None, "amount": 1})
        right = Select(
            Table("customers", "c"), BinOp("=", Col("cust", "c"), Col("cust", "o"))
        )
        rel = OuterApply(Table("orders", "o"), right)
        assert _right_sides(database.explain(rel)) == [["IndexLookup"]]
        rows = database.execute(rel, engine="both")
        assert rows[-1]["id"] == 4
        assert rows[-1]["c.region"] is None

    def test_apply_in_scalar_subquery_with_ambient_row(self, database):
        apply = OuterApply(
            Select(
                Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "k"))
            ),
            Select(
                Table("customers", "c"),
                BinOp("=", Col("cust", "c"), Col("cust", "o")),
            ),
        )
        count = Aggregate(
            apply, (), (AggItem(AggCall("count", Col("c.region")), "n"),)
        )
        rel = Project(
            Table("customers", "k"),
            (
                ProjectItem(Col("cust", "k"), "cust"),
                ProjectItem(ScalarSubquery(count), "n"),
            ),
        )
        rows = database.execute(rel, engine="both")
        assert [(r["cust"], r["n"]) for r in rows] == [("a", 2), ("b", 1)]
        assert _right_sides(database.explain(apply)) == [["IndexLookup"]]

    def test_inner_qualified_name_keeps_filter(self, database):
        """Both sides carry ``t.id``; the inner row's value wins."""
        database.create_index("wilosuser", "role_id")
        right = Select(
            Table("wilosuser", "t"), BinOp("=", Col("role_id", "t"), Col("id", "t"))
        )
        rel = OuterApply(Table("project", "t"), right)
        assert _right_sides(database.explain(rel)) == [["Filter", "SeqScan"]]
        rows = database.execute(rel, engine="both")
        names = ("alpha", "beta", "gamma", "delta")
        assert [r["name"] for r in rows] == [n for n in names for _ in range(2)]

    def test_unqualified_inner_column_keeps_filter(self, database):
        """Unqualified ``cust`` resolves to the customer row, not the order."""
        right = Select(
            Table("customers", "c"), BinOp("=", Col("cust", "c"), Col("cust"))
        )
        rel = OuterApply(Table("orders", "o"), right)
        assert _right_sides(database.explain(rel)) == [["Filter", "SeqScan"]]
        rows = database.execute(rel, engine="both")
        assert len(rows) == 6

    def test_left_join_padding_is_not_carried(self, database):
        """A left join's padded rows lack ``o.id`` (an empty projected
        right side pads only ``amt``), so ``o.id`` falls back to the inner
        row's bare ``id`` and must not be probed from the outer row."""
        empty = Project(
            Select(Table("orders", "o"), Lit(False)),
            (ProjectItem(Col("amount", "o"), "amt"),),
        )
        on = BinOp("=", Col("cust", "c"), Col("amt"))
        left = Join(Table("customers", "c"), empty, on, "left")
        right = Select(
            Table("orders", "x"), BinOp("=", Col("id", "x"), Col("id", "o"))
        )
        rel = OuterApply(left, right)
        assert _right_sides(database.explain(rel)) == [["Filter", "SeqScan"]]
        assert len(database.execute(rel, engine="both")) == 6

    def test_unindexed_column_keeps_filter(self, database):
        right = Select(
            Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c"))
        )
        rel = OuterApply(Table("customers", "c"), right)
        assert _right_sides(database.explain(rel)) == [["Filter", "SeqScan"]]
        assert len(database.execute(rel, engine="both")) == 3


def _op_labels(explain):
    """Pre-order op labels of an explain tree."""
    labels = [explain["op"]]
    for child in explain["children"]:
        labels.extend(_op_labels(child))
    return labels


def _right_sides(explain):
    """The op labels under every OuterApply's right child, outermost first."""
    found = []
    if explain["op"] == "OuterApply":
        found.append(_op_labels(explain["children"][1]))
    for child in explain["children"]:
        found.extend(_right_sides(child))
    return found


class TestScalarExpressions:
    def test_case_when(self, database):
        rel = Project(
            Table("project"),
            (ProjectItem(CaseWhen(Col("finished"), Lit(1), Lit(0)), "f"),),
        )
        assert col_values(database.execute(rel), "f") == [0, 1, 0, 1]

    def test_exists_subquery(self, database):
        pred = ExistsExpr(
            Select(Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c")))
        )
        rel = Select(Table("customers", "c"), pred)
        assert len(database.execute(rel)) == 2

    def test_scalar_subquery(self, database):
        sub = ScalarSubquery(
            Aggregate(Table("board"), (), (AggItem(AggCall("max", Col("p1")), "m"),))
        )
        rel = Select(Table("board"), BinOp("=", Col("p1"), sub))
        assert col_values(database.execute(rel), "id") == [3]

    def test_coalesce(self, database):
        rel = Project(
            Table("project"),
            (ProjectItem(Func("COALESCE", (Lit(None), Col("budget"))), "b"),),
        )
        assert col_values(database.execute(rel), "b") == [10, 20, 30, 5]

    def test_string_functions(self, database):
        rel = Project(
            Table("customers"),
            (ProjectItem(Func("UPPER", (Col("region"),)), "r"),),
        )
        assert col_values(database.execute(rel), "r") == ["EU", "US"]

    def test_like(self, database):
        rel = Select(Table("project"), BinOp("LIKE", Col("name"), Lit("%a")))
        names = col_values(database.execute(rel), "name")
        assert names == ["alpha", "beta", "gamma", "delta"]

    def test_arithmetic_with_null_is_null(self, database):
        rel = Project(
            Table("project"), (ProjectItem(BinOp("+", Col("budget"), Lit(None)), "x"),)
        )
        assert col_values(database.execute(rel), "x") == [None] * 4


class TestParsedQueries:
    def test_parse_and_execute(self, database):
        rel = parse_query(
            "select cust, sum(amount) as total from orders group by cust"
        )
        rows = database.execute(rel)
        assert rows == [{"cust": "a", "total": 30}, {"cust": "b", "total": 5}]

    def test_parse_and_execute_apply(self, database):
        rel = parse_query(
            "select * from customers c outer apply "
            "(select sum(o.amount) as total from orders o where o.cust = c.cust) s"
        )
        rows = database.execute(rel)
        assert [(r["cust"], r["total"]) for r in rows] == [("a", 30), ("b", 5)]
