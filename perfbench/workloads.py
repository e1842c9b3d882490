"""Inputs, operations, reference checks and traced replays of the four workloads.

Every workload turns a seed into a fixed list of items.  The seed only
chooses and orders items whose exact results are committed under refs/, so
any seed can be checked.  `run(item)` is one untraced operation and
`check(item, result)` compares it with the reference; `replay(tr, op, item)`
performs the same operation as a sequence of public calls, each inside a
span, and `probe(tr, op, item, result)` times child estimates and counts work
outside the operation.  `pass_seconds` is the time budget of one pass over
the items, in seconds at the reference speed (speed.py), a constant: a run
of S seconds makes S // pass_seconds passes, at least one.  It is at least
a pass's time on the code the benchmark was defined on (2 cores, CPython
3.11).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path

from harness import REFS, child_env, use_program

use_program()

from toricstab import (  # noqa: E402
    SEMISTABLE,
    CertificateError,
    DestabReport,
    StabilityContext,
    build_sigma1,
    context_from_rays,
    dual_polytope,
    extrapolate,
    extreme_rays,
    face_of_direction,
    facets_from_vertices,
    lattice_series,
    log_discrepancy_S,
    minimize_mu1,
    minimize_mu2_on_cone,
    moment_data,
    mu,
    normal_cone_of_face,
    normal_fan,
    optimal_destabilizer,
    primitive,
    triangulate,
    verdict,
    vpolytope,
    weight_polytope,
    weighted_point,
)
from toricstab import cli as cli_mod  # noqa: E402
from toricstab.corpus import CORPUS, corpus_context, corpus_contexts  # noqa: E402


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs(refs_dir: Path, name: str):
    with open(refs_dir / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _unit(d, i, s=1):
    return tuple(s if j == i else 0 for j in range(d))


def _cube(d):
    return [_unit(d, i, s) for i in range(d) for s in (1, -1)]


# ---------------------------------------------------------------------------
# ladder: context_from_rays + optimal_destabilizer on a fixed scaling ladder

# (name, rays, operations per pass).  The counts are fixed, never measured.
# They put the median in the middle of the 14 samples of p11112 (26 cheaper
# and 26 dearer operations around them) and the tail, the 11th sample from
# the top, in the middle of the 12 of bl-p4-1100, so that neither sits at a
# jump between entries of different cost, where noise moves it most.
LADDER = (
    [(f"p11m{m}", [(1, 0), (0, 1), (-1, -m)], 3) for m in (2, 3, 5, 8, 13, 21)]
    + [("p1^2", _cube(2), 3), ("p1^3", _cube(3), 5), ("p1^4", _cube(4), 1)]
    + [
        ("p1^3+110", _cube(3) + [(1, 1, 0)], 5),
        ("p1^3+111", _cube(3) + [(1, 1, 1)], 5),
        ("p11112", [_unit(4, i) for i in range(4)] + [(-1, -1, -1, -2)], 14),
        ("bl-p4-1100", [_unit(4, i) for i in range(4)] + [(-1, -1, -1, -1), (1, 1, 0, 0)], 12),
        (
            "p1xp3+0110",
            [_unit(4, 0), _unit(4, 0, -1), _unit(4, 1), _unit(4, 2), _unit(4, 3)]
            + [(0, -1, -1, -1), (0, 1, 1, 0)],
            1,
        ),
        (
            "p1xp11112",
            [_unit(5, 0), _unit(5, 0, -1)]
            + [_unit(5, i) for i in range(1, 5)]
            + [(0, -1, -1, -1, -2)],
            1,
        ),
        ("p1^4+1100", _cube(4) + [(1, 1, 0, 0)], 1),
    ]
)


@dataclass(frozen=True)
class LadderItem:
    name: str
    rays: tuple


class Ladder:
    name = "ladder"
    pass_seconds = 17.0

    def __init__(self, refs=None):
        self.refs = refs

    def items(self, seed: int, tiny: bool = False):
        if tiny:
            return [LadderItem(n, tuple(map(tuple, r))) for n, r, _ in LADDER[:2]]
        items = [LadderItem(n, tuple(map(tuple, r))) for n, r, k in LADDER for _ in range(k)]
        random.Random(seed).shuffle(items)
        return items

    def warmup(self, items):
        return min(items, key=lambda it: (len(it.rays[0]), len(it.rays), it.name))

    def run(self, item):
        ctx = context_from_rays(item.rays, name=item.name)
        return ctx, optimal_destabilizer(ctx)

    @staticmethod
    def summary(result):
        ctx, rep = result
        md = ctx.moments
        return {
            "verdict": rep.verdict,
            "delta": str(rep.delta),
            "m1": str(rep.m1),
            "m2_sign": rep.m2_sign,
            "m2_sq": str(rep.m2_sq),
            "v_star_primitive": list(rep.v_star_primitive) if rep.v_star_primitive else None,
            "volume": str(md.volume),
            "barycenter": [str(x) for x in md.barycenter],
        }

    def check(self, item, result) -> bool:
        return self.summary(result) == self.refs[item.name]

    def replay(self, tr, op, item):
        """optimal_destabilizer(context_from_rays(rays)) as its public calls."""
        with tr.span("stability.context_from_rays", op):
            h, v = tr.call("exactgeom.dual_polytope", op, dual_polytope, item.rays, None)
            if v.dim != v.ambient_dim:
                raise ValueError("not full-dimensional")
            md = tr.call("moments.moment_data", op, moment_data, v)
            fan = tr.call("exactgeom.normal_fan", op, normal_fan, v)
            rays = tuple(tuple(int(x) for x in r) for r in item.rays)
            ctx = StabilityContext(v, h, md, fan, rays, tuple(Q(0) for _ in rays), item.name)
        if tr.call("stability.verdict", op, verdict, ctx) == SEMISTABLE:
            return ctx, DestabReport(SEMISTABLE, Q(0), 0, Q(0), Q(1))
        stage1 = tr.call("optimizer.minimize_mu1", op, minimize_mu1, ctx)
        sigma1 = tr.call("optimizer.build_sigma1", op, build_sigma1, ctx, stage1.m1)
        with tr.span("exactgeom.cone_contains", op):
            if not all(sigma1.cone.contains(w) for w in stage1.witness_rays):
                raise CertificateError("witness ray outside sigma1")
        v_star, value = tr.call(
            "optimizer.minimize_mu2_on_cone", op, minimize_mu2_on_cone, ctx, sigma1
        )
        if value.mu2_sign != -1:
            raise CertificateError("optimal direction is not destabilizing")
        rep = DestabReport(
            "unstable",
            stage1.m1,
            value.mu2_sign,
            value.mu2_sq,
            stage1.m1 + 1,
            v_star,
            primitive(v_star),
            sigma1,
            stage1,
        )
        return ctx, rep

    def probe(self, tr, op, item, result):
        ctx, rep = result
        d = ctx.dim
        simplices = tr.call("exactgeom.triangulate", op, triangulate, ctx.vpoly)
        hpoly = tr.call("exactgeom.facets_from_vertices", op, facets_from_vertices, ctx.vpoly)
        direction = rep.v_star_primitive or _unit(d, 0)
        with tr.span("stability.invariants", op):
            mu(ctx, direction)
            log_discrepancy_S(ctx, direction)
        nv = len(ctx.vpoly.vertices)
        counts = {
            "exactgeom.vertices": nv,
            "exactgeom.facets": len(hpoly.constraints),
            "exactgeom.simplices": len(simplices),
            "exactgeom.facet_subsets": math.comb(nv, d),
        }
        if rep.verdict != SEMISTABLE:
            candidates = 0
            for _, cone in ctx.fan.cones:
                gens = extreme_rays(cone)
                candidates += len(gens.rays) + 2 * len(gens.lineality)
            n_sigma = len(rep.sigma1.cone.normals)
            counts.update(
                {
                    "optimizer.stage1_cones": len(ctx.fan.cones),
                    "optimizer.stage1_candidates": candidates,
                    "optimizer.stage1_witnesses": len(rep.stage1.witness_rays),
                    "optimizer.sigma1_normals": n_sigma,
                    "optimizer.stage2_subsets": sum(math.comb(n_sigma, k) for k in range(d)),
                    "optimizer.stage2_optima": 1,
                }
            )
        return counts


# ---------------------------------------------------------------------------
# lattice-oracle: lattice_series + extrapolate

# (corpus name, direction, mmax, operations per pass).  The cheap 2D scan runs
# ten times per pass, so over two passes the median and the tail fall inside
# its 20 samples rather than at the jump to the 3D scans.
LATTICE = (
    ("p116", (0, -1), 2000, 10),
    ("p1112", (1, 1, 1), 240, 1),
    ("p1xp1xp1", (10**6, 10**6, 1), 120, 1),
)


@dataclass(frozen=True)
class LatticeItem:
    name: str
    v: tuple
    mmax: int
    vpoly: object


class LatticeOracle:
    name = "lattice-oracle"
    pass_seconds = 10.0  # a pass takes about 5 s; two passes per 20 s

    def __init__(self, refs=None):
        self.refs = refs

    def items(self, seed: int, tiny: bool = False):
        # The order stays fixed whatever the seed: it moved peak RSS by 9%.
        entries = LATTICE[:1] if tiny else LATTICE
        items = []
        for name, v, mmax, k in entries:
            items += [LatticeItem(name, v, mmax, corpus_context(name).vpoly)] * k
        return items

    def warmup(self, items):
        it = min(items, key=lambda it: (len(it.v), it.name))
        return LatticeItem(it.name, it.v, 60, it.vpoly)

    @staticmethod
    def key(item):
        return f"{item.name} v={','.join(map(str, item.v))} mmax={item.mmax}"

    def run(self, item):
        series = lattice_series(item.vpoly, item.v, item.mmax)
        return series, extrapolate(series)

    @staticmethod
    def summary(result):
        series, ext = result
        return {
            "r": series.r,
            "rows": len(series.rows),
            "rows_sha256": digest([list(row) for row in series.rows]),
            "F0_est": str(ext.F0_est),
            "Q0_est": str(ext.Q0_est),
        }

    def check(self, item, result) -> bool:
        return self.summary(result) == self.refs[self.key(item)]

    def replay(self, tr, op, item):
        series = tr.call("moments.lattice_series", op, lattice_series, item.vpoly, item.v, item.mmax)
        return series, tr.call("moments.extrapolate", op, extrapolate, series)

    def probe(self, tr, op, item, result):
        series, _ = result
        return {
            "moments.lattice_rows": len(series.rows),
            "moments.lattice_points": sum(row.count for row in series.rows),
            "moments.prefix_cells": prefix_cells(item.vpoly, item.mmax),
        }


def prefix_cells(vpoly, mmax: int) -> int:
    """Cells of the prefix box lattice_series scans over all dilates, from the vertex box."""
    verts = vpoly.vertices
    d = len(verts[0])
    r = math.lcm(*(x.denominator for u in verts for x in u))
    ranges = [max(u[k] for u in verts) - min(u[k] for u in verts) for k in range(d)]
    scan = max(range(d), key=lambda k: ranges[k])
    total = 0
    for m in range(r, mmax + 1, r):
        cells = 1
        for k in range(d):
            if k != scan:
                lo = math.ceil(min(m * u[k] for u in verts))
                hi = math.floor(max(m * u[k] for u in verts))
                cells *= max(1, hi - lo + 1)
        total += cells
    return total


# ---------------------------------------------------------------------------
# limits-faces: weight_polytope, normal cones of all faces, 20 face_of_direction


# stratum (d, n) -> operations per pass.  The five strata whose point took
# under 0.5 s on the code the benchmark was defined on repeat so that the
# median falls inside the 16 samples of d4n7 and d3n8, two points of about the
# same cost, and the tail inside the 8 of d4n8, not at a jump between clusters.
LIMITS_REPEATS = {(3, 7): 14, (4, 7): 8, (3, 8): 8, (3, 9): 4, (4, 8): 8}
DIRECTIONS_PER_POINT = 20


@dataclass(frozen=True)
class LimitsItem:
    key: str
    weights: tuple
    directions: tuple
    direction_ids: tuple


def limits_item(key, entry, direction_ids) -> LimitsItem:
    return LimitsItem(
        key,
        tuple(map(tuple, entry["weights"])),
        tuple(tuple(entry["directions"][i]) for i in direction_ids),
        tuple(direction_ids),
    )


class LimitsFaces:
    name = "limits-faces"
    pass_seconds = 21.0

    def __init__(self, refs=None):
        self.refs = refs

    def items(self, seed: int, tiny: bool = False):
        """Every pool point, each with 20 seeded directions of its 40, in seeded order."""
        rng = random.Random(seed)
        items = []
        for key, entry in sorted(self.refs["points"].items()):
            ids = tuple(rng.sample(range(len(entry["directions"])), DIRECTIONS_PER_POINT))
            item = limits_item(key, entry, ids)
            items += [item] * LIMITS_REPEATS.get((entry["d"], entry["n"]), 1)
        if tiny:
            return [min(items, key=lambda it: (len(it.weights[0]), len(it.weights)))]
        rng.shuffle(items)
        return items

    def warmup(self, items):
        return min(items, key=lambda it: (len(it.weights[0]), len(it.weights), it.key))

    def run(self, item):
        q = weight_polytope(weighted_point(item.weights))
        cones = [normal_cone_of_face(q, f) for f in q.faces]
        return q, cones, [face_of_direction(q, v) for v in item.directions]

    @staticmethod
    def summary(result):
        q, cones, faces_of_dirs = result
        return {
            "faces_sha256": digest([sorted(f) for f in q.faces]),
            "cones_sha256": digest([[list(a) for a in c.normals] for c in cones]),
            "face_of_direction": [sorted(f) for f in faces_of_dirs],
        }

    def check(self, item, result) -> bool:
        entry = self.refs["points"][item.key]
        want = {k: entry[k] for k in ("faces_sha256", "cones_sha256")}
        want["face_of_direction"] = [entry["face_of_direction"][i] for i in item.direction_ids]
        return self.summary(result) == want

    def replay(self, tr, op, item):
        p = tr.call("limits.weighted_point", op, weighted_point, item.weights)
        q = tr.call("limits.weight_polytope", op, weight_polytope, p)
        cones = [tr.call("limits.normal_cone_of_face", op, normal_cone_of_face, q, f) for f in q.faces]
        dirs = [tr.call("limits.face_of_direction", op, face_of_direction, q, v) for v in item.directions]
        return q, cones, dirs

    def probe(self, tr, op, item, result):
        q = result[0]
        pts = [item.weights[i] for i in sorted(q.point.support)]
        poly = tr.call("exactgeom.vpolytope", op, vpolytope, pts)
        nv, d = len(poly.vertices), poly.ambient_dim
        counts = {"exactgeom.vertices": nv, "limits.faces": len(q.faces)}
        if poly.dim == d:
            hpoly = tr.call("exactgeom.facets_from_vertices", op, facets_from_vertices, poly)
            counts["exactgeom.facets"] = len(hpoly.constraints)
            counts["exactgeom.facet_subsets"] = math.comb(nv, d)
        return counts


# ---------------------------------------------------------------------------
# cli-corpus: one fresh `python -m toricstab` process per operation

# No direction starts with a minus sign: argparse would read "--v -1,2" as an option.
CLI_DIRECTIONS = {
    2: ((0, -1), (1, 1), (1, -2), (2, -1)),
    3: ((1, 1, 1), (0, 0, -1), (1, -2, 0), (1, 1, -1)),
}
README_POINT = {"weights": [[0, 0], [1, 0], [0, 1]], "support": [0, 1, 2]}


def corpus_doc(name):
    rays, coeffs = CORPUS[name]
    doc = {"name": name, "rays": [list(r) for r in rays]}
    if coeffs is not None:
        doc["coeffs"] = [f"{c.numerator}/{c.denominator}" for c in coeffs]
    return doc


def corpus_names_by_dim(dim):
    return sorted(n for n, (rays, _) in CORPUS.items() if len(rays[0]) == dim)


@dataclass(frozen=True)
class CliItem:
    key: str
    argv: tuple


def cli_keys_and_argv(doc2, v2, doc3, v3, docdir: Path):
    """(reference key, argv) of the seven commands; {name} marks an input file."""
    fmt = lambda v: ",".join(map(str, v))  # noqa: E731
    templates = [
        ["destabilize", "--corpus"],
        ["stratify", "--corpus", "--threads", "2"],
        ["report", "--corpus"],
        ["report", "{%s}" % doc2, "--v", fmt(v2)],
        ["report", "{%s}" % doc3, "--v", fmt(v3)],
        ["oracle", "{p112}", "--v", "0,-1", "--mmax", "60"],
        ["limits", "{readme-point}", "--v", "1,1"],
    ]
    out = []
    for t in templates:
        argv = tuple(
            str(docdir / f"{a[1:-1]}.json") if a.startswith("{") else a for a in t
        )
        out.append(CliItem(" ".join(t), argv))
    return out


def write_cli_docs(docdir: Path):
    docdir.mkdir(parents=True, exist_ok=True)
    for name in CORPUS:
        (docdir / f"{name}.json").write_text(json.dumps(corpus_doc(name)))
    (docdir / "readme-point.json").write_text(json.dumps(README_POINT))


# command key -> runs per pass.  The three corpus-wide commands run twice, so
# the median falls in the middle of the samples of `report --corpus`, with the
# four single-document commands below and `stratify` and `destabilize` above,
# and the tail inside the samples of those two, not at a jump.
CLI_REPEATS = {"report --corpus": 2, "stratify --corpus --threads 2": 2, "destabilize --corpus": 2}


class CliCorpus:
    name = "cli-corpus"
    pass_seconds = 5.0  # a pass takes about 2.4 s plus its probes; four per 20 s

    def __init__(self, refs=None, docdir: Path | None = None):
        self.refs = refs
        self.docdir = docdir
        self.env = child_env()

    def items(self, seed: int, tiny: bool = False):
        write_cli_docs(self.docdir)
        rng = random.Random(seed)
        doc2, doc3 = rng.choice(corpus_names_by_dim(2)), rng.choice(corpus_names_by_dim(3))
        v2, v3 = rng.choice(CLI_DIRECTIONS[2]), rng.choice(CLI_DIRECTIONS[3])
        items = cli_keys_and_argv(doc2, v2, doc3, v3, self.docdir)
        if tiny:
            return [items[6], items[3]]
        items = [it for it in items for _ in range(CLI_REPEATS.get(it.key, 1))]
        rng.shuffle(items)
        return items

    def warmup(self, items):
        return next((it for it in items if it.argv[0] == "limits"), items[0])

    def run(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "toricstab", *item.argv],
            capture_output=True,
            env=self.env,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, item, result) -> bool:
        code, out = result
        return {"exit": code, "sha256": hashlib.sha256(out).hexdigest()} == self.refs[item.key]

    def replay(self, tr, op, item):
        """The command run by main() in this process, stdout captured."""
        buf = io.StringIO()
        with tr.span("cli.main", op), contextlib.redirect_stdout(buf):
            code = cli_mod.main(list(item.argv))
        return code, buf.getvalue().encode()

    def probe(self, tr, op, item, result):
        with tr.span("cli.interpreter", op):
            # no timeout: with one, subprocess polls for the exit in sleeps of up to 50 ms
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        counts = import_times(self.env)
        counts["cli.stdout_bytes"] = len(result[1])
        if "--corpus" in item.argv:
            ctxs = tr.call("corpus.contexts", op, corpus_contexts)
            with tr.span("stability.context_from_rays", op):
                for name in sorted(CORPUS):
                    rays, coeffs = CORPUS[name]
                    context_from_rays(rays, coeffs, name=name)
            with tr.span("stability.invariants", op):
                for ctx in ctxs:
                    mu(ctx, _unit(ctx.dim, 0))
                    log_discrepancy_S(ctx, _unit(ctx.dim, 0))
        return counts


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_times(env) -> dict[str, float]:
    """Cumulative import seconds of numpy and toricstab from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import toricstab"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    out = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(4) in ("numpy", "toricstab"):
            out[f"cli.import_{m.group(4)}_s"] = int(m.group(2)) / 1e6
    return out


REF_FILES = {"cli-corpus": "cli", "ladder": "ladder", "lattice-oracle": "lattice", "limits-faces": "limits"}


def make(name: str, refs_dir: Path = REFS, workdir: Path | None = None):
    refs = load_refs(refs_dir, REF_FILES[name])
    if name == "cli-corpus":
        return CliCorpus(refs, workdir)
    return {"ladder": Ladder, "lattice-oracle": LatticeOracle, "limits-faces": LimitsFaces}[name](refs)
