"""Source layout checks that the repository keeps without a linter."""

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
