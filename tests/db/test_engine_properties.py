"""Property-based tests of the engine's algebraic laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    Catalog,
    Col,
    Distinct,
    Join,
    Limit,
    Lit,
    OuterApply,
    Project,
    ProjectItem,
    Select,
    Sort,
    SortKey,
    Table,
    conjoin,
)
from repro.db import Database

_catalog = Catalog()
_catalog.define("t", ["id", "a", "b"], key=("id",))
_catalog.define("u", ["id", "k", "v"], key=("id",))


def make_db(t_rows, u_rows=()):
    db = Database(_catalog)
    for i, (a, b) in enumerate(t_rows):
        db.insert("t", {"id": i + 1, "a": a, "b": b})
    for i, (k, v) in enumerate(u_rows):
        db.insert("u", {"id": i + 1, "k": k, "v": v})
    return db


rows_t = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=15)
rows_u = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10)
threshold = st.integers(0, 5)


def plain(rows):
    return [tuple(sorted((k, v) for k, v in r.items() if "." not in k)) for r in rows]


@given(rows_t, threshold, threshold)
@settings(max_examples=100, deadline=None)
def test_selection_composition(data, x, y):
    """σ_p(σ_q(T)) == σ_{p∧q}(T)."""
    db = make_db(data)
    p = BinOp(">", Col("a"), Lit(x))
    q = BinOp("<", Col("b"), Lit(y))
    stacked = db.execute(Select(Select(Table("t"), q), p))
    combined = db.execute(Select(Table("t"), conjoin(p, q)))
    assert plain(stacked) == plain(combined)


@given(rows_t, threshold)
@settings(max_examples=100, deadline=None)
def test_selection_commutes(data, x):
    db = make_db(data)
    p = BinOp(">", Col("a"), Lit(x))
    q = BinOp(">", Col("b"), Lit(x))
    pq = db.execute(Select(Select(Table("t"), q), p))
    qp = db.execute(Select(Select(Table("t"), p), q))
    assert plain(pq) == plain(qp)


@given(rows_t)
@settings(max_examples=100, deadline=None)
def test_projection_preserves_cardinality_and_order(data):
    db = make_db(data)
    projected = db.execute(Project(Table("t"), (ProjectItem(Col("a")),)))
    assert [r["a"] for r in projected] == [a for a, _ in data]


@given(rows_t)
@settings(max_examples=100, deadline=None)
def test_distinct_idempotent(data):
    db = make_db(data)
    rel = Project(Table("t"), (ProjectItem(Col("a")),))
    once = db.execute(Distinct(rel))
    twice = db.execute(Distinct(Distinct(rel)))
    assert plain(once) == plain(twice)


@given(rows_t)
@settings(max_examples=100, deadline=None)
def test_distinct_matches_python_set(data):
    db = make_db(data)
    rel = Distinct(Project(Table("t"), (ProjectItem(Col("a")),)))
    values = [r["a"] for r in db.execute(rel)]
    assert sorted(values) == sorted(set(a for a, _ in data))
    # first-occurrence order preserved
    assert values == list(dict.fromkeys(a for a, _ in data))


@given(rows_t, rows_u)
@settings(max_examples=100, deadline=None)
def test_join_matches_nested_loop_reference(t_rows, u_rows):
    db = make_db(t_rows, u_rows)
    rel = Join(
        Table("t", "x"),
        Table("u", "y"),
        BinOp("=", Col("a", "x"), Col("k", "y")),
    )
    result = db.execute(rel)
    expected = [
        (a, b, k, v)
        for a, b in t_rows
        for k, v in u_rows
        if a == k
    ]
    got = [(r["x.a"], r["x.b"], r["y.k"], r["y.v"]) for r in result]
    assert got == expected


@given(rows_t, st.integers(0, 20))
@settings(max_examples=100, deadline=None)
def test_limit_bounds(data, n):
    db = make_db(data)
    result = db.execute(Limit(Table("t"), n))
    assert len(result) == min(n, len(data))


@given(rows_t)
@settings(max_examples=100, deadline=None)
def test_sort_is_permutation_and_ordered(data):
    db = make_db(data)
    result = db.execute(Sort(Table("t"), (SortKey(Col("a")),)))
    values = [r["a"] for r in result]
    assert values == sorted(a for a, _ in data)
    assert sorted(plain(result)) == sorted(plain(db.execute(Table("t"))))


@given(rows_t, threshold)
@settings(max_examples=100, deadline=None)
def test_selection_then_count_matches_python(data, x):
    from repro.algebra import AggCall, AggItem, Aggregate

    db = make_db(data)
    rel = Aggregate(
        Select(Table("t"), BinOp(">", Col("a"), Lit(x))),
        (),
        (AggItem(AggCall("count", None), "n"),),
    )
    assert db.execute(rel)[0]["n"] == sum(1 for a, _ in data if a > x)


maybe_int = st.one_of(st.none(), st.integers(0, 3))


@given(
    st.lists(st.tuples(maybe_int, maybe_int, maybe_int), min_size=1, max_size=8),
    # Two or more rows, so probing the index can beat scanning them.
    st.lists(st.tuples(maybe_int, maybe_int, maybe_int), min_size=2, max_size=8),
    st.sampled_from(["id", "k", "v"]),
    st.booleans(),
    st.sampled_from(
        [("id", "t"), ("a", "t"), ("b", "t"), ("a", None), ("id", None), ("k", "w")]
    ),
    st.sampled_from([None, "local", "correlated"]),
    st.sampled_from([None, "project", "aggregate"]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_outer_apply_probe_matches_reference(
    t_rows, u_rows, inner_col, index_k, outer_col, residual, head, swap, chained
):
    """OuterApply(t, σ[u.x = t.y](u)) plans an index probe per outer row
    when ``u.x`` is indexed; planned ≡ reference either way.

    ``u.id`` is the declared key (auto-indexed), ``u.k`` carries a
    registered index when ``index_k``, ``u.v`` is never indexed.  Keys may
    repeat and any value may be NULL.  ``chained`` puts another APPLY under
    the left input: its rows all carry ``t``'s names, but ``w.k`` only when
    they matched.  Bare ``id`` resolves to ``u``'s own column, and an
    unresolved ``w.k`` falls back to ``u``'s bare ``k``.
    """
    db = Database(_catalog)
    for i, a, b in t_rows:
        db.insert("t", {"id": i, "a": a, "b": b})
    for i, k, v in u_rows:
        db.insert("u", {"id": i, "k": k, "v": v})
    if index_k:
        db.create_index("u", "k")

    sides = (Col(inner_col, "u"), Col(*outer_col))
    pred = BinOp("=", *(reversed(sides) if swap else sides))
    if residual == "local":
        pred = conjoin(pred, BinOp(">", Col("v", "u"), Lit(1)))
    elif residual == "correlated":
        pred = conjoin(pred, BinOp("<=", Col("v", "u"), Col("b", "t")))
    right = Select(Table("u"), pred)
    if head == "project":
        right = Project(right, (ProjectItem(Col("v", "u"), "w"),))
    elif head == "aggregate":
        right = Aggregate(
            right,
            (),
            (
                AggItem(AggCall("count", None), "n"),
                AggItem(AggCall("sum", Col("v", "u")), "s"),
            ),
        )
    left = Table("t")
    if chained:
        matched = Select(Table("u", "w"), BinOp("=", Col("id", "w"), Col("a", "t")))
        left = OuterApply(left, Project(matched, (ProjectItem(Col("k", "w"), "wk"),)))
    # engine="both" raises EngineDivergenceError on any mismatch.
    db.execute(OuterApply(left, right), engine="both")
