"""Dead-code guards: every module-level function and class in src/memfuse
has a user in the package itself, and so does every dataclass field.

A definition counts as used when another module of the package imports it
and refers to it, or when its own module refers to it outside its own
body.  A re-export in __init__.py is not a use.  The allowlist names the
public entry points that only callers outside the package use.

A dataclass field counts as used when the package reads an attribute of
that name, `x.name` or `getattr(x, "name")`, anywhere; the match is by
name alone, so it catches a field whose name nothing reads at all.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "memfuse"

KEPT = {
    # wrapped as the COARSE span `synthdata.stack` by bench/spans.py and
    # called by bench/run.py's Bench.__init__
    "synthdata.stack",
    # acceptance criterion 1 (tests/test_acceptance.py) checks the formula
    "fusion.param_count_formula",
    # the README's tensor count; tests/test_fusion.py::TestParamCounts
    "fusion.param_count_actual",
    # the classifier gradient check of tests/test_gradcheck.py
    "gradcheck.check_classifier",
}


def _name_counts(node):
    """How often each bare name is read in `node`'s subtree."""
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
    counts = {module: _name_counts(tree) for module, tree in trees.items()}
    # (module, name) pairs that another module takes by `from .module import
    # name` (possibly under an alias) and refers to
    imported = {(node.module, alias.name)
                for user, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if counts[user][alias.asname or alias.name]}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = counts[module][node.name] - _name_counts(node)[node.name]
            if not outside and (module, node.name) not in imported:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_has_a_user():
    unused = [name for name in unused_definitions() if name not in KEPT]
    assert unused == [], f"defined but used nowhere in src/memfuse: {unused}"


def test_every_kept_entry_point_still_exists_and_is_unused():
    """An allowlisted name that gets a user in the package, or goes away,
    leaves the allowlist too."""
    assert sorted(set(unused_definitions()) & KEPT) == sorted(KEPT)


# fields the package writes but never reads
KEPT_FIELDS = {
    # criterion 3 (tests/test_oracle.py) compares them to the straight-line oracle
    "ForwardTrace.query",
    "ForwardTrace.recalled",
    "ForwardTrace.transformed",
}


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def unread_fields():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            read.add(node.args[1].value)
    return [f"{cls.name}.{field.target.id}"
            for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
            for field in cls.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in read]


def test_every_dataclass_field_is_read():
    unread = [name for name in unread_fields() if name not in KEPT_FIELDS]
    assert unread == [], f"dataclass fields that src/memfuse never reads: {unread}"


def test_every_kept_field_still_exists_and_is_unread():
    assert sorted(set(unread_fields()) & KEPT_FIELDS) == sorted(KEPT_FIELDS)
