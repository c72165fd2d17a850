"""Every module of posetar imports only from the layers below its own."""

import ast
from collections import Counter
from pathlib import Path

import posetar

RANKS = {
    "errors": 0,
    "poset": 1,
    "clamped": 2, "corpus": 2, "ictree": 2, "linalg": 2,
    "rep": 3,
    "homalg": 4, "split": 4, "modexpr": 4,
    "slices": 5,
    "knit": 6,
    "witness": 7,
    "cli": 8,
}


def _relative_imports(path):
    """The modules of the package that path imports from, as `from .X import`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module
            else:  # from . import X
                yield from (alias.name for alias in node.names)


def test_every_module_has_a_rank():
    pkg = Path(posetar.__file__).parent
    assert {p.stem for p in pkg.glob("*.py")} - {"__init__"} == set(RANKS)


def test_each_module_imports_only_lower_layers():
    pkg = Path(posetar.__file__).parent
    upward = []
    for path in sorted(pkg.glob("*.py")):
        if path.stem == "__init__":
            continue
        for target in _relative_imports(path):
            if RANKS[target] >= RANKS[path.stem]:
                upward.append(f"{path.stem} (rank {RANKS[path.stem]}) imports {target} (rank {RANKS[target]})")
    assert upward == []


def _memo_uses(path):
    """The lines where path names functools.lru_cache or functools.cache."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in ("lru_cache", "cache") for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno


def test_only_linalg_memoizes():
    # the linalg docstring's rule: the exact kernels are memoized there and nowhere else
    pkg = Path(posetar.__file__).parent
    uses = {path.stem: list(_memo_uses(path)) for path in sorted(pkg.glob("*.py"))}
    assert uses["linalg"]
    assert {stem: lines for stem, lines in uses.items() if lines and stem != "linalg"} == {}


def _functions(tree, prefix=""):
    """(qualified name, node) for every function and method in tree, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node, name + ".")
        else:
            yield from _functions(node, prefix)


def _sources():
    pkg = Path(posetar.__file__).parent
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(pkg.glob("*.py"))]


def _checked_calls(node):
    """The names of the Mat(...) and Representation(...) calls under node, sorted."""
    return sorted(n.func.id for n in ast.walk(node) if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Name) and n.func.id in ("Mat", "Representation"))


def test_checked_constructors_only_take_outside_input():
    # Mat(...) and Representation(...) check what they are given; a module or
    # matrix the package builds goes through rep._rep or linalg._mat instead
    trees = dict(_sources())
    from_json = dict(_functions(trees["rep"]))["Representation.from_json"]
    calls = {stem: _checked_calls(tree) for stem, tree in trees.items()}
    assert {stem: names for stem, names in calls.items() if names} == {"rep": _checked_calls(from_json)}
    assert _checked_calls(from_json) == ["Mat", "Representation"]


# parameters kept for callers outside the package (ROADMAP item 13)
UNREAD_PARAMETERS = {("knit.ar_sequence_end", "rng"), ("witness.not_fcy_witness", "rng")}


def test_every_parameter_is_read():
    unread = set()
    for stem, tree in _sources():
        for name, fn in _functions(tree):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            params = [p for p in params if p not in ("self", "cls")]  # a method's receiver
            loads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {(f"{stem}.{name}", p) for p in params if p not in loads}
    assert unread == UNREAD_PARAMETERS


def _private_definitions(tree):
    """(name, node) for each module-level function, class or assignment of
    tree whose name starts with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _names_read(tree):
    """Each name read under tree, once per read: loads, attributes and imported names."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_helper_is_used():
    # a private name read only inside its own definition is a helper a
    # refactor left behind
    sources = _sources()
    reads = Counter(name for _, tree in sources for name in _names_read(tree))
    unused = [
        f"{stem}.{name}"
        for stem, tree in sources
        for name, node in _private_definitions(tree)
        if reads[name] == Counter(_names_read(node))[name]
    ]
    assert unused == []


def _calls_itself(fn):
    """Whether fn calls its own name, or, as a method, calls itself on self
    or on a child drawn from self.children."""
    receivers = {"self"} if fn.args.args and fn.args.args[0].arg == "self" else set()
    if receivers:
        receivers |= {
            loop.target.id for loop in ast.walk(fn)
            if isinstance(loop, (ast.For, ast.comprehension)) and isinstance(loop.target, ast.Name)
            and ast.unparse(loop.iter) == "self.children"
        }
    for call in ast.walk(fn):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if not receivers and isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id in receivers):
            return True
    return False


# a recursion runs one frame per level, so it fails on a deep enough input;
# each of these recurses along a decomposition witness, a derived tree or a
# module expression
RECURSIVE = {
    "ictree.ICNode.uses_adjoin", "ictree.ICNode.render", "ictree.ic_plus_decompose.go",
    "ictree.build_tree.go", "ictree.tree_to_poset.go", "ictree.realize_shape.go",
    "modexpr.parse_module.expr",
}


def test_recursive_functions_are_pinned():
    found = {f"{stem}.{name}" for stem, tree in _sources() for name, fn in _functions(tree) if _calls_itself(fn)}
    assert found == RECURSIVE
