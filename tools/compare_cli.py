"""Compare fresh `python -m toricstab` calls between two checkouts, byte for byte.

    python3 tools/compare_cli.py BEFORE_ROOT AFTER_ROOT

Each call runs once per checkout, in a fresh process whose PYTHONPATH is that
checkout's src/, in one shared temporary directory that holds the input
documents, so messages that name a path agree.  Stdout, stderr, the exit code
and the file written by --dump are compared.  The calls cover the bundled
corpus (each document through `report` with two directions, `destabilize` and
`oracle --mmax 12 --dump`, and each 2D one through `oracle --mmax 60 --digits 5
--dump`), a three-direction `report` on p112, the `--corpus` commands, the
pinned vertex, constraint and weighted-point documents, `report` and
`destabilize` on a vertex document with an interior point and a repeated
vertex (the point hull drops a point there), and refusals: a missing
file, a bad field, a ray that is not primitive, a document that is a JSON array,
a `limits` direction of the wrong length, --digits 0 and 4001, a 9D input in
each of its four forms, a coefficient written with an exponent ("1e5"), and
both digit-limit guards: a 4400-digit integer literal in the input and a
vertex document at +-10^2500, whose volume has more digits than str() prints.

Prints one line per call that differs and a count; exits 1 when any differs.
"""

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def corpus_docs(root: Path):
    """The bundled corpus as input documents, read from the checkout at root."""
    script = (
        "import json\n"
        "from toricstab.corpus import CORPUS\n"
        "print(json.dumps({n: [[list(r) for r in rays], coeffs and [str(c) for c in coeffs]]"
        " for n, (rays, coeffs) in CORPUS.items()}))\n"
    )
    text = subprocess.run(
        [sys.executable, "-c", script], env=child_env(root), capture_output=True, text=True,
        check=True,
    ).stdout
    docs = {}
    for name, (rays, coeffs) in json.loads(text).items():
        docs[name] = {"name": name, "rays": rays, **({"coeffs": coeffs} if coeffs else {})}
    return docs


def cross_polytope(d):
    return [[s * (j == i) for j in range(d)] for i in range(d) for s in (1, -1)]


# a vertex coordinate whose polytope's volume, about 4 10^5000, str() refuses to print
BIG = 10**2500

FIXED_DOCS = {
    "p1112-moment": {
        "name": "p1112-moment",
        "moment_polytope": {"vertices": [["-1", "-1", "-1"], ["-1", "-1", "3/2"],
                                         ["-1", "4", "-1"], ["4", "-1", "-1"]]},
    },
    # p1112-moment's vertices with the origin inside and one vertex given twice
    "p1112-interior": {
        "name": "p1112-interior",
        "moment_polytope": {"vertices": [["-1", "-1", "-1"], ["-1", "-1", "3/2"],
                                         ["0", "0", "0"], ["-1", "4", "-1"], ["4", "-1", "-1"],
                                         ["-1", "-1", "3/2"]]},
    },
    "corner-constraints": {
        "name": "corner-constraints",
        "moment_polytope": {"constraints": [
            {"normal": [2, 0, 0], "offset": "-1"},
            {"normal": [0, 1, 0], "offset": "-2/3"},
            {"normal": [0, 0, 1], "offset": "-1"},
            {"normal": [-1, -1, -1], "offset": "-3/2"},
            {"normal": [-1, 0, 0], "offset": "-5/4"},
        ]},
    },
    "readme-point": {"weights": [[0, 0], [1, 0], [0, 1]], "support": [0, 1, 2]},
    "limits-3d": {
        "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [2, 2, -3], [5, 5, 5]],
        "support": [0, 1, 2, 3, 4],
    },
    "limits-4d": {
        "weights": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0],
                    [1, 1, 1, -2], [3, 0, 0, 0]],
        "support": [0, 1, 2, 3, 4, 5],
    },
    # ten supported weights, one repeated, and two left out of the support
    "limits-4d-wide": {
        "weights": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1],
                    [1, 1, 0, 0], [0, 1, 1, 0], [2, -1, 0, 1], [0, 1, 0, 0], [1, -2, 1, 0],
                    [3, 3, 3, 3], [0, 0, 2, -1]],
        "support": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    },
    "bad-rays": {"name": "bad", "rays": [[1, "x"], [0, 1], [-1, -1]]},
    "bad-offset": {"name": "bad", "moment_polytope": {"constraints": [
        {"normal": [1, 0], "offset": "x"}, {"normal": [0, 1], "offset": 0}]}},
    "bad-weights": {"weights": [[0, "x"], [1, 0]]},
    "non-primitive-rays": {"name": "np", "rays": [[2, 0], [0, 1], [-1, -1]]},
    "json-array": [[0, 0], [1, 0], [0, 1]],
    "x9-vertices": {"name": "x9", "moment_polytope": {"vertices": cross_polytope(9)}},
    "x9-constraints": {"name": "x9", "moment_polytope": {"constraints": [
        {"normal": list(n), "offset": -1} for n in itertools.product((1, -1), repeat=9)]}},
    "p9-rays": {"name": "p9", "rays": [[int(j == i) for j in range(9)] for i in range(9)]
                + [[-1] * 9]},
    "x9-weights": {"weights": cross_polytope(9)},
    "exponent-coeffs": {"name": "e", "rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": ["1e5", 0, 0]},
    # raw text: json.dumps cannot write an integer past the digit limit
    "long-literal": '{"name": "x", "rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": ['
    + "1" * 4400 + ", 0, 0]}",
    "big-vertices": {"name": "big", "moment_polytope": {"vertices": [
        [0, 0], [3, 1], [1, 4], [-2, 2], *([x, y] for x in (-BIG, BIG) for y in (-BIG, BIG))]}},
}


def calls(corpus):
    """argv lists; {name} stands for the document's file, {dump} for the dump file."""
    out = []
    for name, doc in sorted(corpus.items()):
        d = len(doc["rays"][0])
        ones, other = ",".join(["1"] * d), ",".join(["1", "-2"] + ["0"] * (d - 2))
        out += [
            ["report", f"{{{name}}}", "--v", ones, "--v", other],
            ["destabilize", f"{{{name}}}"],
            ["oracle", f"{{{name}}}", "--v", ones, "--mmax", "12", "--dump", "{dump}"],
        ]
        if d == 2:
            out.append(["oracle", f"{{{name}}}", "--v", ones, "--mmax", "60", "--digits", "5",
                        "--dump", "{dump}"])
    # three directions in one call; (1, 1) is orthogonal to p112's b, so Fut = 0 there
    out += [["report", "{p112}", "--v", "1,1", "--v", "0,-1", "--v", "-2,1"]]
    out += [["report", "--corpus"], ["destabilize", "--corpus"], ["stratify", "--corpus"],
            ["stratify", "--corpus", "--threads", "2"]]
    for name in ("p1112-moment", "corner-constraints"):
        out += [
            ["report", f"{{{name}}}", "--v", "0,0,1", "--v", "1,-1,2"],
            ["destabilize", f"{{{name}}}"],
            ["oracle", f"{{{name}}}", "--v", "1,1,1", "--mmax", "12", "--dump", "{dump}"],
        ]
    out += [["report", "{p1112-interior}", "--v", "0,0,1", "--v", "1,-1,2"],
            ["destabilize", "{p1112-interior}"]]
    out += [["limits", "{readme-point}", "--v", "1,1"]]
    out += [["limits", "{limits-3d}", "--v", v] for v in ("1,1,2", "1,4,3", "1,1,1")]
    out += [["limits", "{limits-4d}", "--v", v] for v in ("1,1,1,2", "3,1,3,3", "1,1,1,1")]
    wide = ("0,-1,0,0", "0,0,-1,0", "-2,1,-1,-1")  # faces of 4, 3 and 1 members
    out += [["limits", "{limits-4d-wide}", "--v", v] for v in wide]
    out += [["limits", "{readme-point}", "--v", "1,1,1"]]
    first = f"{{{min(corpus)}}}"
    flags = {"oracle": ["--v", "1,1", "--mmax", "12"], "limits": ["--v", "1,1"]}
    for command in ("report", "destabilize", "stratify", "oracle", "limits"):
        out.append([command, "{missing}", *flags.get(command, [])])
        for digits in ("0", "4001"):
            doc = "{readme-point}" if command == "limits" else first
            out.append([command, doc, *flags.get(command, []), "--digits", digits])
    out += [["report", "{bad-rays}"], ["destabilize", "{bad-offset}"],
            ["limits", "{bad-weights}", "--v", "1,1"], ["destabilize", "{non-primitive-rays}"],
            ["report", "{json-array}"], ["limits", "{json-array}", "--v", "1,1"]]
    out += [["report", f"{{{n}}}"] for n in ("x9-vertices", "x9-constraints", "p9-rays")]
    out += [["limits", "{x9-weights}", "--v", ",".join(["1"] * 9)]]
    out += [["report", f"{{{n}}}"] for n in ("exponent-coeffs", "long-literal", "big-vertices")]
    return out


def child_env(root: Path):
    return {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def run(root: Path, argv, workdir: Path):
    """(exit code, stdout, stderr, dump bytes or None) of one fresh process."""
    dump = workdir / "dump.txt"
    dump.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "toricstab", *argv], cwd=workdir,
                          env=child_env(root), capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr, dump.read_bytes() if dump.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path, help="root of the first checkout")
    parser.add_argument("after", type=Path, help="root of the second checkout")
    args = parser.parse_args(argv)
    roots = [args.before.resolve(), args.after.resolve()]
    corpus = corpus_docs(roots[1])
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        paths = {"missing": str(workdir / "missing.json"), "dump": str(workdir / "dump.txt")}
        for name, doc in {**corpus, **FIXED_DOCS}.items():
            paths[name] = str(workdir / f"{name}.json")
            text = doc if isinstance(doc, str) else json.dumps(doc)
            Path(paths[name]).write_text(text, encoding="utf-8")
        todo = calls(corpus)
        for template in todo:
            argv = [paths[a[1:-1]] if a.startswith("{") else a for a in template]
            before, after = (run(root, argv, workdir) for root in roots)
            if before != after:
                fields = [f for f, x, y in zip(("exit", "stdout", "stderr", "dump"), before, after)
                          if x != y]
                differ.append(template)
                print(f"differs in {', '.join(fields)}: {' '.join(template)}")
                for side, result in zip(("before", "after"), (before, after)):
                    print(f"  {side}: exit {result[0]}, stderr {result[2][:200]!r}")
    print(f"{len(todo) - len(differ)} of {len(todo)} calls identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
