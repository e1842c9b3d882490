"""The README's examples against the code: the destabilize document and the library snippet."""

import contextlib
import io
import json
import re
from pathlib import Path

from toricstab.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(marker, lang):
    """The first fenced block in the given language after the marker line."""
    start = README.index(marker)
    m = re.compile(rf"^```{lang}\n(.*?)^```", re.S | re.M).search(README, start)
    return m.group(1)


def test_destabilize_example_matches_cli(tmp_path, capsys):
    # the first input shape of the README is the p112 document
    doc = _block_after("A polytope input document takes one of three shapes", "json")
    path = tmp_path / "p112.json"
    path.write_text(doc.splitlines()[0], encoding="utf-8")
    command = "toricstab destabilize p112.json --digits 4"
    expected = json.loads(_block_after(f"```sh\n{command}\n```", "json"))
    code = main(["destabilize", str(path), "--digits", "4"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out) == expected


def test_library_snippet_prints_its_comments():
    snippet = _block_after("## Library use", "python")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(snippet, {})
    printed = buf.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in snippet.splitlines() if "print(" in line]
    assert len(printed) == len(comments) == 4
    for got, want in zip(printed, comments):
        # "..." in a comment stands for an elided middle
        head, elided, tail = want.partition("...")
        if elided:
            assert got.startswith(head) and got.endswith(tail), (got, want)
        else:
            assert got == want
    assert comments[:1] + comments[2:] == ["unstable", "3/4", "(0, -1)"]
    assert comments[1].startswith("StabilityValue(mu1=Fraction(-1, 4), ")
