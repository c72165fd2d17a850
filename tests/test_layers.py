"""Every module of posetar imports only from the layers below its own."""

import ast
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
