"""Pipeline stages never edit their input, and share its expressions.

Expressions are immutable values shared between stages; statements are
copied per stage (see :mod:`repro.lang.ast_nodes`).  Each stage is wrapped
at every ``repro`` module that binds it, so the checks see the calls the
pipeline really makes.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro.ir.preprocess
import repro.rewrite.consolidate
import repro.rewrite.rewriter
import repro.rewrites.alternatives
import repro.workloads as corpus
from repro import ExtractOptions
from repro.core import optimize_program
from repro.ir.preprocess import preprocess_program
from repro.lang import (
    parse_program,
    statement_expressions,
    unparse_program,
    walk_expressions,
    walk_statements,
)

from .test_pipeline_parity import bundled_units

STAGES = (
    repro.ir.preprocess.preprocess_program,
    repro.rewrite.rewriter.insert_extractions,
    repro.rewrite.rewriter.eliminate_dead_code,
    repro.rewrite.consolidate.consolidate_loops,
    repro.rewrites.alternatives.generate_alternatives,
)


def _input_trees(stage, args):
    """The program trees a stage call receives."""
    if stage is repro.rewrites.alternatives.generate_alternatives:
        report = args[0]
        return [report.original, report.rewritten]
    return [args[0]]


@pytest.fixture
def stage_calls(monkeypatch):
    """Wrap every stage; each call asserts its input trees are unchanged."""
    calls: Counter = Counter()

    def wrap(stage):
        def checked(*args, **kwargs):
            trees = _input_trees(stage, args)
            before = [repr(tree) for tree in trees]
            result = stage(*args, **kwargs)
            after = [repr(tree) for tree in trees]
            assert after == before, f"{stage.__name__} edited its input"
            calls[stage.__name__] += 1
            return result

        return checked

    for stage in STAGES:
        wrapper = wrap(stage)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, stage.__name__, None) is stage:
                monkeypatch.setattr(module, stage.__name__, wrapper)
    return calls


def test_no_stage_edits_its_input(stage_calls):
    for _label, source, function, catalog, options in bundled_units():
        optimize_program(source, function, catalog, options=options)
    assert set(stage_calls) == {stage.__name__ for stage in STAGES}


#: Each rewrites expressions in preprocessing: copy propagation (also into a
#: call argument), constant folding with dead-branch pruning, the cursor
#: ``while`` and ``print`` normalisations.
PREPROCESSED = [
    "f(x) { y = x; z = y + 1; return z; }",
    "f(x) { y = x; t = new ArrayList(); t.add(y); return t; }",
    "f(q) { k = 3; y = q; s = 0; for (r : y) { if (k > 2) { s = s + r.getA() + k; } } "
    "return s; }",
    'f() { rs = executeQuery("from T as t"); while (rs.next()) { print(rs.getA()); } }',
]


@pytest.mark.parametrize("source", PREPROCESSED)
def test_preprocess_rewrites_a_copy(source):
    program = parse_program(source)
    before = repr(program)
    result = preprocess_program(program)
    assert repr(program) == before
    assert unparse_program(result) != unparse_program(program)


def _expressions(program):
    return {
        id(node): node
        for stmt in walk_statements(program)
        for expr in statement_expressions(stmt)
        for node in walk_expressions(expr)
    }


def test_rewritten_shares_expressions_not_statements():
    report = optimize_program(
        corpus.FIND_MAX_SCORE, "findMaxScore", corpus.matoso_catalog(),
        options=ExtractOptions(profile="local"),
    )
    assert report.rewritten_loops
    original = _expressions(report.original)
    rewritten = _expressions(report.rewritten)
    shared = [node for key, node in rewritten.items() if original.get(key) is node]
    assert shared
    original_stmts = {id(s) for s in walk_statements(report.original)}
    assert not any(id(s) in original_stmts for s in walk_statements(report.rewritten))
