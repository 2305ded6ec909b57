"""Literal-lifted query templates (``parse_template``).

A template replaces each numeric or quoted-string literal directly after
``=``, ``<>`` or ``!=`` with a hidden parameter, so the texts an N+1 loop
concatenates share one tree.  Binding the lifted values back in must give
exactly the tree ``parse_query`` builds, and executing the template with
its lifted parameters must give exactly the rows of that tree.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import Catalog, Lit, query_params, walk_scalar
from repro.algebra.operators import walk_relational
from repro.algebra.rewrite import scalar_exprs_of
from repro.db import Database
from repro.sqlparse import SqlParseError, bind_lifted, parse_query, parse_template

from .test_roundtrip_property import _COLUMNS, _TABLES, random_query


def _literals(tree) -> list:
    return [
        node.value
        for rel in walk_relational(tree)
        for scalar in scalar_exprs_of(rel)
        for node in walk_scalar(scalar)
        if isinstance(node, Lit)
    ]


class TestSharing:
    def test_lifted_equality_literals_share_one_tree(self):
        cache: dict = {}
        texts = [
            f"select b.id from board b where b.rnd_id = {n} and b.p1 != {n + 3}"
            for n in range(5)
        ] + ["select b.id from board b where b.rnd_id = 17 and b.p1 != 2.5"]
        trees = {id(parse_template(text, cache)[0]) for text in texts}
        assert len(trees) == 1
        assert len(cache) == 1

    def test_string_literals_share_one_tree(self):
        cache: dict = {}
        first, lits1, _ = parse_template("from customers as c where c.cust = 'a'", cache)
        second, lits2, _ = parse_template("from customers as c where c.cust = 'bb'", cache)
        assert first is second
        assert (lits1, lits2) == ({"0": "a"}, {"0": "bb"})

    @pytest.mark.parametrize(
        "left, right",
        [
            # range bound
            ("from board as b where b.p1 > 3", "from board as b where b.p1 > 4"),
            # projection literal
            ("select b.p1 + 1 from board b where b.id = 1",
             "select b.p1 + 2 from board b where b.id = 1"),
            # LIMIT
            ("from board as b where b.id = 1 limit 1",
             "from board as b where b.id = 1 limit 2"),
            # = NULL is not a lifted literal
            ("from board as b where b.p1 = null", "from board as b where b.p1 = 1"),
            # unary minus stays in the shape
            ("from board as b where b.p1 = -1", "from board as b where b.p1 = -2"),
            # CASE branches stay in the shape
            ("from board as b where case when b.p1 > 2 then 1 else 0 end > 0",
             "from board as b where case when b.p1 > 2 then 2 else 0 end > 0"),
        ],
    )
    def test_other_literals_stay_in_the_shape(self, left, right):
        cache: dict = {}
        first = parse_template(left, cache)[0]
        second = parse_template(right, cache)[0]
        assert first is not second
        assert first != second
        assert len(cache) == 2

    def test_literal_naming_an_output_column_is_not_lifted(self):
        """``str`` of an unaliased projection names its column, so a literal
        there keeps the text's parse: the same tree and the same name."""
        cache: dict = {}
        text = "select b.p1 = 10 from board b where b.id = 1"
        tree, lits, free = parse_template(text, cache)
        assert tree == parse_query(text)
        assert (lits, free) == ({}, ())

    def test_literal_inside_aggregate_is_not_lifted(self):
        text = (
            "select count(case when b.p1 = 10 then 1 else null end) "
            "from board b where b.rnd_id = 1"
        )
        tree, lits, _ = parse_template(text, {})
        assert tree == parse_query(text)
        assert lits == {}


class TestBinding:
    @pytest.mark.parametrize(
        "text, values",
        [
            ("from customers as c where c.cust = 'it''s'", ["it's"]),
            ("from customers as c where c.cust = ''''", ["'"]),
            ("from board as b where b.id = 42", [42]),
            ("from board as b where b.p1 != 2.5", [2.5]),
            ("from board as b where b.id = 7 and b.p2 <> 'x'", [7, "x"]),
        ],
    )
    def test_lifted_values_match_parse_query_literals(self, text, values):
        tree, lits, _ = parse_template(text, {})
        assert list(lits.values()) == values
        assert [type(v) for v in lits.values()] == [type(v) for v in values]
        assert _literals(parse_query(text)) == values
        assert bind_lifted(tree, lits) == parse_query(text)
        assert _literals(tree) == []

    def test_positional_placeholders_keep_their_names(self):
        text = "select * from board b where b.id = ? and b.p1 = 3 and b.p2 = ?"
        tree, lits, free = parse_template(text, {})
        # ``?`` is named by its token position, as ``parse_query`` names it.
        assert free == ("p11", "p23")
        assert lits == {"0": 3}
        assert bind_lifted(tree, lits) == parse_query(text)

    def test_user_params_are_precomputed(self):
        text = "from board as b where b.rnd_id = :round and b.p1 = 4 and b.p2 > :low"
        tree, lits, free = parse_template(text, {})
        assert free == ("low", "round")
        assert lits == {"0": 4}

    def test_hidden_names_cannot_collide_with_user_params(self):
        """A hidden name starts with a digit; the lexer rejects such a
        ``:param``, so a user text can never bind or shadow one."""
        with pytest.raises(SqlParseError):
            parse_query("from board as b where b.id = :0")
        tree, lits, free = parse_template(
            "from board as b where b.id = :p0 and b.p1 = 0", {}
        )
        assert set(lits).isdisjoint(free)
        assert query_params(tree) == {"p0", "0"}


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "select from where b.id = 1",
            "from board as b where b.id = 1 1",
            "from board as b where b.id = 1 #",
            "",
        ],
    )
    def test_parse_errors_raise_and_are_never_cached(self, text):
        cache: dict = {}
        with pytest.raises(SqlParseError):
            parse_template(text, cache)
        assert cache == {}


# ----------------------------------------------------------------------
# Equivalence property over the round-trip generator's texts


def _toy_database() -> Database:
    rng = random.Random(7)
    catalog = Catalog()
    for table, _ in _TABLES:
        catalog.define(table, list(_COLUMNS), key=("id",))
    db = Database(catalog, default_engine="both")
    for table, _ in _TABLES:
        db.insert_many(
            table,
            [
                {
                    "id": i,
                    **{
                        column: (None if rng.random() < 0.1 else rng.randint(-20, 100))
                        for column in _COLUMNS[1:]
                    },
                }
                for i in range(1, 25)
            ],
        )
    return db


class TestTemplateEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_template_rows_equal_parse_query_rows(self, seed):
        rng = random.Random(seed)
        db = _toy_database()
        lifted = 0
        for case in range(100):
            text = random_query(rng)
            tree, lits, free = parse_template(text, db.template_cache)
            assert free == ()
            if lits:
                lifted += 1
                assert bind_lifted(tree, lits) == parse_query(text), text
            assert db.execute(tree, lits) == db.execute(parse_query(text)), (
                f"seed={seed} case={case}\n  query: {text}"
            )
        assert lifted > 0
