"""Source guards for the tree-ownership rule of :mod:`repro.lang.ast_nodes`.

Pipeline stages copy only the statement skeleton (``copy_skeleton``) and
share expressions, which is sound only while no code assigns into an
expression.  These checks read the package source with :mod:`ast`:

* ``copy.deepcopy`` is used nowhere but the difftest shrinker, whose
  candidate programs are throwaway whole-tree edits;
* ``ir/preprocess.py``, the one module that rewrites expressions, builds
  new nodes instead of assigning to an expression field or calling
  ``setattr``.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import repro.lang.ast_nodes as nodes

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DEEPCOPY_ALLOWED = {SRC / "difftest" / "shrinker.py"}


def _fields(base: type) -> set[str]:
    return {
        f.name
        for cls in vars(nodes).values()
        if isinstance(cls, type) and issubclass(cls, base) and dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
    }


#: Fields only expressions have; ``value``/``cond``/spans are statement
#: fields too, which preprocessing may assign on its own statement copies.
EXPR_ONLY_FIELDS = _fields(nodes.Expr) - _fields(nodes.Stmt)


def _deepcopy_uses(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "deepcopy":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "copy":
            if any(alias.name == "deepcopy" for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_no_deepcopy_outside_the_shrinker():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path in DEEPCOPY_ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}:{line}" for line in _deepcopy_uses(tree)]
    assert found == []


def test_guard_sees_both_deepcopy_spellings():
    tree = ast.parse("import copy\nfrom copy import deepcopy\ncopy.deepcopy(x)\n")
    assert sorted(_deepcopy_uses(tree)) == [2, 3]


def _expr_field_assignments(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and part.attr in EXPR_ONLY_FIELDS:
                    lines.append(node.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
        ):
            lines.append(node.lineno)
    return lines


def test_preprocess_never_assigns_into_an_expression():
    path = SRC / "ir" / "preprocess.py"
    assert _expr_field_assignments(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_guard_sees_expression_edits():
    assert {"ident", "receiver", "args", "left"} <= EXPR_ONLY_FIELDS
    source = "expr.ident = s\nexpr.args += [a]\nsetattr(expr, 'left', b)\nstmt.value = v\n"
    assert sorted(_expr_field_assignments(ast.parse(source))) == [1, 2, 3]
