"""Source layout checks that the repository keeps without a linter."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
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
