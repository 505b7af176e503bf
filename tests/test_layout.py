"""Dead-code guards: every module-level function and class in src/memfuse
has a user in the package itself, and so does every dataclass field and
every method or property of a package class.

A definition counts as used when another module of the package imports it
and refers to it, or when its own module refers to it outside its own
body.  A re-export in __init__.py is not a use.  The allowlist names the
public entry points that only callers outside the package use.

A dataclass field counts as used when the package reads it, `x.name` or
`getattr(x, "name")` (or all fields at once, `vars(x)`; `asdict(x)` and
`astuple(x)` also read the fields of the dataclasses it holds), through
an object whose class the code states.  A read through an object of no stated class
matches by name alone, and only the fields listed in NAME_MATCHED may rest
on such reads.

A method or property counts as used when the package reads its name
through an object of its class.  A read through an object of no stated
class matches by name alone, and only the methods listed in
NAME_MATCHED_METHODS may rest on such reads.  Dunder methods are left
out: Python calls them itself.  KEPT_METHODS names the ones only callers
outside the package use.
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

# fields whose every read is through an object whose class the code does not
# state (an element of a list or dict, a loop or comprehension variable), so
# they count as read by name alone; each with where it is read
NAME_MATCHED = {
    # cli.cmd_gradcheck's worst-case key, and GradReport.max_rel over self.blocks.values()
    "BlockReport.max_rel",
    # cli.cmd_gradcheck: rep.blocks[block].worst_index, rep a generator's variable
    "BlockReport.worst_index",
    # cli.cmd_gradcheck: all(r.passed for r in reports)
    "GradReport.passed",
}

# calls that read every field of their first argument; the recursive ones
# also read every field of each package dataclass a field's annotation states
WHOLE_READS = {"vars", "asdict", "astuple"}
RECURSIVE_READS = {"asdict", "astuple"}


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _named_classes(ann, classes):
    """The package classes an annotation states, in order: `C`, `"C"`,
    `Optional[C]`, or one per element of `Tuple[A, B]`; None where it
    states no package class."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if isinstance(ann, ast.Name):
        return [ann.id if ann.id in classes else None]
    if isinstance(ann, ast.Subscript) and getattr(ann.value, "id", None) in ("Optional", "Tuple", "tuple"):
        elts = ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]
        if ann.value.id == "Optional":
            return _named_classes(elts[0], classes)
        return [_named_classes(e, classes)[0] for e in elts]
    return [None]


def field_reads():
    """(owned, by_name, fields): the (class, field) pairs read through an
    object whose class the code states, the attribute names read through any
    other object, and every dataclass's field annotations by class name.

    An object's class is stated by an annotation (a parameter, a variable, a
    function's return, a dataclass field for `x.field.attr`), by the
    constructor call or `replace(obj, ...)` it was assigned from, or by being
    `self` in a method of the class.
    """
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    classes = {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    fields = {cls.name: {f.target.id: f.annotation for f in cls.body
                         if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
              for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)}
    returns = {fn.name: _named_classes(fn.returns, classes) for tree in trees for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.returns is not None}
    owned, by_name = set(), set()

    def classes_of(expr, env):
        if isinstance(expr, ast.Name):
            return [env.get(expr.id)]
        if isinstance(expr, ast.Attribute):
            owner = classes_of(expr.value, env)[0]
            if expr.attr in fields.get(owner, {}):
                return _named_classes(fields[owner][expr.attr], classes)
        if isinstance(expr, ast.Call):
            name = getattr(expr.func, "id", None)  # the package calls its own functions by bare name
            if name in classes:
                return [name]
            if name in returns:
                return returns[name]
            if "replace" in (name, getattr(expr.func, "attr", None)) and expr.args:
                return classes_of(expr.args[0], env)
        return [None]

    def read(owner, attr):
        if owner is None:
            by_name.add(attr)
        else:
            owned.add((owner, attr))

    def read_whole(owner, deep, seen=frozenset()):
        seen = seen | {owner}
        for field, ann in fields.get(owner, {}).items():
            read(owner, field)
            for inner in _named_classes(ann, classes) if deep else ():
                if inner in fields and inner not in seen:
                    read_whole(inner, deep, seen)

    def bind(stmt, env):
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            env[stmt.target.id] = _named_classes(stmt.annotation, classes)[0]
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, found = stmt.targets[0], classes_of(stmt.value, env)
            if isinstance(target, ast.Name):
                env[target.id] = found[0] if len(found) == 1 else None
            elif isinstance(target, ast.Tuple):
                found = found if len(found) == len(target.elts) else [None] * len(target.elts)
                for elt, cls in zip(target.elts, found):
                    if isinstance(elt, ast.Name):
                        env[elt.id] = cls

    def scan_function(fn, env, cls):
        env = dict(env)
        for i, arg in enumerate(fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs):
            if i == 0 and cls is not None and arg.arg == "self":
                env["self"] = cls
            elif arg.annotation is not None:
                env[arg.arg] = _named_classes(arg.annotation, classes)[0]
        for stmt in fn.body:
            scan(stmt, env)

    def scan(node, env, cls=None):
        """Record the reads under `node` in order, binding names as
        assignments go; a nested function sees the bindings made before it."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return scan_function(node, env, cls)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                scan(item, {}, node.name)
            return
        if isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            # its variables are its own, and of no stated class
            env = {**env, **{n.id: None for n in ast.walk(node) if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Store)}}
            env.update((arg.arg, None) for arg in ast.walk(node) if isinstance(arg, ast.arg))
        # a value or iterable is read before its target is bound
        first = node.value if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) else getattr(node, "iter", None)
        for child in sorted(ast.iter_child_nodes(node), key=lambda child: child is not first):
            scan(child, env)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            env[node.id] = None  # a loop, `with` or augmented target; bind() below restates it
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read(classes_of(node.value, env)[0], node.attr)
        elif isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            owner = classes_of(node.args[0], env)[0]
            if name == "getattr" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                read(owner, node.args[1].value)
            elif name in WHOLE_READS:
                read_whole(owner, name in RECURSIVE_READS)
        bind(node, env)

    for tree in trees:
        scan(tree, {})
    return owned, by_name, fields


def unread_fields():
    """Dataclass fields with no read through an object of their class,
    split into those whose name nothing reads and those it reads only
    through objects of no stated class."""
    owned, by_name, fields = field_reads()
    unread, name_only = [], []
    for cls, names in fields.items():
        for name in names:
            if (cls, name) not in owned:
                (name_only if name in by_name else unread).append(f"{cls}.{name}")
    return unread, name_only


def test_every_dataclass_field_is_read():
    unread, name_only = unread_fields()
    unread += [name for name in name_only if name not in NAME_MATCHED]
    unread = [name for name in unread if name not in KEPT_FIELDS]
    assert unread == [], f"dataclass fields that src/memfuse never reads through their class: {unread}"


def test_every_kept_field_still_exists_and_is_unread():
    assert sorted(set(unread_fields()[0]) & KEPT_FIELDS) == sorted(KEPT_FIELDS)


def test_every_name_matched_field_is_still_read_only_by_name():
    """An entry leaves NAME_MATCHED once a read states its class, or once
    nothing reads its name."""
    assert sorted(unread_fields()[1]) == sorted(NAME_MATCHED)


# methods and properties only callers outside the package read; the
# benchmark's output checks call them, so deleting one breaks every round
KEPT_METHODS = {
    # bench/checks.py's adam_pairs: Adam's moments by block against textbook Adam
    "TrainState.adam_m",
    "TrainState.adam_v",
}


# methods whose every read is through an object whose class the code does
# not state, so they count as read by name alone; each with where it is read
NAME_MATCHED_METHODS = {
    # model.evaluate: [m.frozen() for m in memories]
    "MemoryState.frozen",
    # cli.cmd_gradcheck: max(r.max_rel for r in reports), rep a generator's variable
    "GradReport.max_rel",
    # cli.cmd_gradcheck: rep.worst_block()
    "GradReport.worst_block",
    # cli.metrics_doc: report.to_dict(), report an unannotated parameter
    "MetricsReport.to_dict",
    # gradcheck.standard_variants: cfg.layer_variants() over a comprehension's configs
    "ClassifierConfig.layer_variants",
    # gradcheck.check_classifier: grads.named, grads from a call that states no class
    "ModelParams.named",
}


def unread_methods():
    """Methods and properties of package classes with no read through an
    object of their class, split into those whose name nothing reads and
    those it reads only through objects of no stated class."""
    owned, by_name, _ = field_reads()
    unread, name_only = [], []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("__"):
                    continue
                if (cls.name, fn.name) not in owned:
                    (name_only if fn.name in by_name else unread).append(f"{cls.name}.{fn.name}")
    return unread, name_only


def test_every_method_is_read():
    unread, name_only = unread_methods()
    unread += [name for name in name_only if name not in NAME_MATCHED_METHODS]
    unread = [name for name in unread if name not in KEPT_METHODS]
    assert unread == [], f"methods or properties that src/memfuse never reads through their class: {unread}"


def test_every_kept_method_still_exists_and_is_unread():
    assert sorted(set(unread_methods()[0]) & KEPT_METHODS) == sorted(KEPT_METHODS)


def test_every_name_matched_method_is_still_read_only_by_name():
    """An entry leaves NAME_MATCHED_METHODS once a read states its class,
    or once nothing reads its name."""
    assert sorted(unread_methods()[1]) == sorted(NAME_MATCHED_METHODS)
