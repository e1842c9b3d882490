"""Source layout checks that the repository keeps without a linter."""

import ast
import collections
import importlib
from pathlib import Path

from toricstab.exactgeom import extreme_rays

SRC = Path(__file__).parents[1] / "src"
PERFBENCH = Path(__file__).parents[1] / "perfbench"
MAX_LINE = 100


def test_no_source_line_over_the_limit():
    long = [
        f"{path.relative_to(SRC)}:{i}: {len(line)} characters"
        for path in sorted(SRC.rglob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, "\n".join(long)


def test_no_private_imports_from_stability_or_optimizer():
    private = [
        f"{path.relative_to(SRC)}:{node.lineno}: {alias.name} from {node.module}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] in ("stability", "optimizer")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, "\n".join(private)


def resolves(module, name) -> bool:
    """Whether `from module import name` succeeds."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_imports_resolve():
    # a name the benchmark imports, dropped from the library, would otherwise
    # show only as a failed benchmark run
    missing = [
        f"{path.name}:{node.lineno}: {alias.name} from {node.module}"
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "toricstab"
        for alias in node.names
        if not resolves(node.module, alias.name)
    ]
    assert not missing, "\n".join(missing)
    # the benchmark clears the hull cache before every operation and reads its counters
    assert callable(extreme_rays.cache_clear) and callable(extreme_rays.cache_info)


def names_read(node, own=None):
    """Names, attribute names and imported names anywhere under node, except `own`."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            name = n.id
        elif isinstance(n, ast.Attribute):
            name = n.attr
        elif isinstance(n, ast.alias):
            name = n.name.rpartition(".")[2]
        else:
            continue
        if name != own:
            yield name


def test_every_source_definition_is_read():
    # a top-level function or class of src/ must be read outside its own body,
    # in src/ or by the benchmark; a name only the tests read belongs to the tests.
    # The package's export table reads each name it lists, and the module
    # __getattr__ that resolves it is read by the interpreter (PEP 562).
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in [*SRC.rglob("*.py"), *PERFBENCH.glob("*.py")]
    }
    read = {
        name
        for tree in trees.values()
        for stmt in tree.body
        for name in names_read(stmt, getattr(stmt, "name", None))
    }
    read |= {
        n.value
        for stmt in trees[SRC / "toricstab" / "__init__.py"].body
        if isinstance(stmt, ast.Assign)
        for n in ast.walk(stmt)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
    read.add("__getattr__")
    unread = [
        f"{path.relative_to(SRC)}:{stmt.lineno}: {stmt.name}"
        for path, tree in sorted(trees.items())
        if path.is_relative_to(SRC)
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in read
    ]
    assert not unread, "\n".join(unread)


def optional_parameters(tree):
    """(def, index, name) of every positional parameter with a default, nested defs included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            params = [*node.args.posonlyargs, *node.args.args]
            first = len(params) - len(node.args.defaults)
            for i, arg in enumerate(params[first:], first):
                yield node, i, arg.arg


def test_every_optional_parameter_is_passed():
    # an option that no call in src/ or the benchmark passes has one value in
    # use, so it is a constant; a value only the tests pass belongs to the tests
    calls = collections.defaultdict(list)
    for path in [*SRC.rglob("*.py"), *PERFBENCH.glob("*.py")]:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                calls[getattr(n.func, "id", getattr(n.func, "attr", None))].append(n)

    def passes(call, i, name):
        return (
            len(call.args) > i
            or any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (name, None) for k in call.keywords)
        )

    unpassed = [
        f"{path.relative_to(SRC)}:{node.lineno}: {node.name}({name})"
        for path in sorted(SRC.glob("toricstab/*.py"))
        for node, i, name in optional_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if not any(passes(c, i, name) for c in calls[node.name])
    ]
    assert not unpassed, "\n".join(unpassed)


BOUNDS = {
    "HULL_BUDGET", "SIMPLEX_BUDGET", "MAX_DIM", "MAX_SERIES_ROWS", "MAX_SCAN_CELLS",
    "MAX_SCAN_COLUMNS",
}


def test_every_bound_is_read_by_one_limit_call():
    # a bound compared by hand refuses in words of its own, and its count past
    # str()'s digit limit fails in CPython's words; `_limit` is the one refusal
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    defined = [
        path.relative_to(SRC).as_posix()
        for path, tree in sorted(trees.items())
        for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "_limit"
    ]
    assert defined == ["toricstab/exactgeom.py"]
    stray = []
    for path, tree in sorted(trees.items()):
        passed = {
            id(n.args[1])
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_limit"
        }
        stray += [
            f"{path.relative_to(SRC)}:{n.lineno}: {name}"
            for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            for name in [getattr(n, "id", getattr(n, "attr", None))]
            if name in BOUNDS and id(n) not in passed
        ]
    assert not stray, "\n".join(stray)


def is_bareiss_update(node) -> bool:
    """Whether node is (a * b - c * d) // name, Bareiss's fraction-free update."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.right, ast.Name)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left.left, node.left.right)
        )
    )


def test_one_fraction_free_elimination():
    # rank, the hull's chart, the moments, Sylvester's test and the corral solves
    # of stage 2 all reduce rows through `exactgeom._eliminate`; an update
    # written anywhere else is a second elimination kernel
    holders = sorted(
        {
            f"{path.relative_to(SRC).as_posix()}:{stmt.name}"
            for path in SRC.rglob("*.py")
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            for n in ast.walk(stmt)
            if is_bareiss_update(n)
        }
    )
    assert holders == ["toricstab/exactgeom.py:_eliminate"], "\n".join(holders)
