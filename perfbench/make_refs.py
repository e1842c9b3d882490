"""Write the exact reference results under refs/ from the checkout's toricstab.

    python3 perfbench/make_refs.py [--out DIR]

The committed references were made once from the code the benchmark was
defined on; a later change must reproduce them, so rerun this only when a
change is meant to alter results, and say so.  It also fixes the
limits-faces pool: one seeded random weighted point per (dimension, weight
count) stratum, d in {3, 4} and 7-12 distinct weights in [-4, 4]^d, each
with 40 nonzero directions in [-3, 3]^d.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import sys
import time
from pathlib import Path

from harness import OUT, REFS

import workloads
from workloads import (
    CLI_DIRECTIONS,
    LATTICE,
    LADDER,
    CliCorpus,
    LadderItem,
    LatticeItem,
    LatticeOracle,
    Ladder,
    LimitsFaces,
    cli_keys_and_argv,
    corpus_context,
    corpus_names_by_dim,
    limits_item,
    write_cli_docs,
)

POOL_SEED = 20201103
DIRECTIONS = 40


def ladder_refs():
    wl = Ladder()
    out = {}
    for name, rays, _ in LADDER:
        item = LadderItem(name, tuple(map(tuple, rays)))
        workloads.extreme_rays.cache_clear()
        out[name] = wl.summary(wl.run(item))
    return out


def lattice_refs():
    wl = LatticeOracle()
    out = {}
    for name, v, mmax, _ in LATTICE:
        item = LatticeItem(name, v, mmax, corpus_context(name).vpoly)
        out[wl.key(item)] = wl.summary(wl.run(item))
    return out


def _full_dimensional(points) -> bool:
    from toricstab.exactgeom import affine_dim

    return affine_dim(points) == len(points[0])


def limits_refs():
    rng = random.Random(POOL_SEED)
    wl = LimitsFaces()
    points = {}
    for d in (3, 4):
        for n in range(7, 13):
            while True:
                ws = set()
                while len(ws) < n:
                    ws.add(tuple(rng.randint(-4, 4) for _ in range(d)))
                ws = sorted(ws)
                if _full_dimensional(ws):
                    break
            rng.shuffle(ws)
            dirs = []
            while len(dirs) < DIRECTIONS:
                v = tuple(rng.randint(-3, 3) for _ in range(d))
                if any(v):
                    dirs.append(v)
            key = f"d{d}n{n}"
            entry = {"d": d, "n": n, "weights": ws, "directions": dirs}
            t0 = time.perf_counter()
            entry.update(wl.summary(wl.run(limits_item(key, entry, range(DIRECTIONS)))))
            points[key] = entry
            print(f"limits {key} {time.perf_counter() - t0:.3f} s", file=sys.stderr, flush=True)
    return {"pool_seed": POOL_SEED, "points": points}


def cli_refs():
    docdir = OUT / "make-refs-docs"
    write_cli_docs(docdir)
    wl = CliCorpus(None, docdir)
    items = {}
    for doc2 in corpus_names_by_dim(2):
        for v2 in CLI_DIRECTIONS[2]:
            for it in cli_keys_and_argv(doc2, v2, "p3", CLI_DIRECTIONS[3][0], docdir):
                items[it.key] = it
    for doc3 in corpus_names_by_dim(3):
        for v3 in CLI_DIRECTIONS[3]:
            for it in cli_keys_and_argv("p2", CLI_DIRECTIONS[2][0], doc3, v3, docdir):
                items[it.key] = it
    out = {}
    try:
        for key in sorted(items):
            code, stdout = wl.run(items[key])
            if code != 0:
                raise SystemExit(f"reference command failed: {key}")
            out[key] = {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest()}
    finally:
        shutil.rmtree(docdir, ignore_errors=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REFS)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for name, make in (
        ("ladder", ladder_refs),
        ("lattice", lattice_refs),
        ("cli", cli_refs),
        ("limits", limits_refs),
    ):
        with open(args.out / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(make(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out / name}.json", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
