"""Command surface: documents, rendering, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricstab
import stability_oracle
from conftest import fresh_rng, mat_vec, unimodular_matrix
from hull_oracle import faces_by_subsets
from optimizer_oracle import sigma1_by_vertices
from toricstab.cli import (
    dec_str,
    main,
    parse_rational,
    rat_str,
    render_m2,
    render_value,
    sqrt_dec_str,
)
from toricstab.corpus import CORPUS
from toricstab.exactgeom import qval
from toricstab.limits import face_of_direction, normal_cone_of_face, weight_polytope, weighted_point
from toricstab.optimizer import CertificateError, optimal_destabilizer
from toricstab.invariants import (
    futaki,
    l2_norm_sq,
    log_discrepancy_S,
    min_norm,
    mu,
)
from toricstab.stability import context_from_constraints, context_from_vertices

P2_DOC = {"name": "p2", "rays": [[1, 0], [0, 1], [-1, -1]]}
P112_DOC = {"name": "p112", "rays": [[1, 0], [0, 1], [-1, -2]]}
P113_DOC = {"name": "p113", "rays": [[1, 0], [0, 1], [-1, -3]]}
P2_HALFLINE_DOC = {
    "name": "p2-halfline",
    "rays": [[1, 0], [0, 1], [-1, -1]],
    "coeffs": ["0/1", "0/1", "1/2"],
}
TRIANGLE_POINT = {"weights": [[0, 0], [1, 0], [0, 1]]}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# report


def test_report_balanced_plane(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, out, _ = run(capsys, "report", path, "--v", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "p2"
    assert doc["scope"] == "torus-equivariant"
    assert doc["barycenter"] == "0/1,0/1"
    assert doc["verdict"] == "semistable"
    assert Q(doc["volume"]) == Q(9, 2)
    row = doc["directions"][0]
    assert row["futaki"] == "0/1"
    assert row["mu1"] == "0/1"
    assert row["mu2"] == "0/1"
    assert row["A"] == "1/1" and row["S"] == "1/1"


def test_report_weighted_triangle(tmp_path, capsys):
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, _ = run(capsys, "report", path, "--v", "0,-1", "--digits", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["barycenter"] == "1/3,-1/3"
    assert doc["volume_decimal"] == "4.000"
    assert doc["verdict"] == "unstable"
    row = doc["directions"][0]
    assert row["mu1"] == "-1/4"
    assert row["mu1_decimal"] == "-0.250"
    assert row["min_norm"] == "4/3"
    assert row["mu2"]["sign"] == -1
    assert Q(row["mu2"]["square"]) == Q(1, 2)


def test_report_multiple_inputs_nest_entries(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", P2_DOC)
    b = write_doc(tmp_path, "b.json", P112_DOC)
    code, out, _ = run(capsys, "report", a, b)
    assert code == 0
    doc = json.loads(out)
    assert [e["name"] for e in doc["entries"]] == ["p2", "p112"]


def test_report_accepts_vertex_and_constraint_documents(tmp_path, capsys):
    by_verts = {
        "name": "tri",
        "moment_polytope": {"vertices": [["-1", "-1"], ["-1", "1"], ["3", "-1"]]},
    }
    by_cons = {
        "name": "tri",
        "moment_polytope": {
            "constraints": [
                {"normal": [1, 0], "offset": "-1"},
                {"normal": [0, 1], "offset": "-1"},
                {"normal": [-1, -2], "offset": "-1"},
            ]
        },
    }
    docs = []
    for i, body in enumerate([by_verts, by_cons]):
        path = write_doc(tmp_path, f"tri{i}.json", body)
        code, out, _ = run(capsys, "report", path)
        assert code == 0
        docs.append(json.loads(out))
    assert docs[0]["vertices"] == docs[1]["vertices"]
    assert docs[0]["barycenter"] == "1/3,-1/3"


# ---------------------------------------------------------------------------
# destabilize


def test_destabilize_weighted_triangles(tmp_path, capsys):
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, _ = run(capsys, "destabilize", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "unstable"
    assert doc["delta"] == "3/4"
    assert doc["M_mu"][0] == "-1/4"
    assert Q(doc["M_mu"][1]["square"]) == Q(1, 2)
    assert doc["M_mu"][1]["sign"] == -1
    assert abs(float(doc["M_mu"][1]["decimal"]) + 0.7071067811865476) < 1e-9
    assert doc["v_star_primitive"] == "0,-1"
    assert doc["v_star_rational"] == "0/1,-3/1"
    assert doc["sigma1"]["normals"] == ["-2,1", "0,1"]
    assert doc["sigma1"]["m1"] == "-1/4"

    path = write_doc(tmp_path, "p113.json", P113_DOC)
    code, out, _ = run(capsys, "destabilize", path)
    assert code == 0
    assert json.loads(out)["delta"] == "3/5"


def test_destabilize_semistable(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, out, _ = run(capsys, "destabilize", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "semistable"
    assert doc["M_mu"] == ["0/1", "0/1"]
    assert doc["delta"] == "1/1"
    assert doc["v_star_rational"] is None
    assert doc["v_star_primitive"] is None
    assert "sigma1" not in doc


def _ivecs(vs):
    return [",".join(map(str, v)) for v in vs]


def test_destabilize_documents_match_the_library(tmp_path, capsys):
    """Seeded rational vertex documents in 2-4D: each exit-0 document is the
    library's report rendered, and its sigma1 the per-vertex oracle's."""
    rng = random.Random("toricstab:destabilize-documents")
    dims = []
    while len(dims) < 20:
        d = 2 + len(dims) % 3
        den = rng.choice([1, 2, 3])
        pts = [[Q(rng.randint(-5, 5), den) for _ in range(d)] for _ in range(d + rng.randint(2, 4))]
        try:
            ctx = context_from_vertices(pts)
        except ValueError:
            continue
        rep = optimal_destabilizer(ctx)
        if rep.verdict != "unstable":
            continue
        name = f"v{len(dims)}"
        doc_in = {"name": name, "moment_polytope": {"vertices": [[str(x) for x in u] for u in pts]}}
        path = write_doc(tmp_path, f"{name}.json", doc_in)
        code, out, err = run(capsys, "destabilize", path)
        assert code == 0, err
        doc = json.loads(out)
        assert Q(doc["M_mu"][0]) == rep.m1
        assert doc["M_mu"][1]["sign"] == rep.m2_sign == -1
        assert Q(doc["M_mu"][1]["square"]) == rep.m2_sq
        assert doc["v_star_primitive"] == ",".join(map(str, rep.v_star_primitive))
        assert doc["stage1"]["witness_rays"] == _ivecs(rep.stage1.witness_rays)
        assert doc["sigma1"]["normals"] == _ivecs(rep.sigma1.cone.normals)
        assert doc["sigma1"]["normals"] == _ivecs(sigma1_by_vertices(ctx, rep.m1).normals)
        dims.append(d)
    assert sorted(set(dims)) == [2, 3, 4]


def _seeded_documents(rng, count):
    """`count` pairs (document, library context) in 2-4D, vertex and constraint
    documents in turn, with denominators 1 to 3."""
    out = []
    while len(out) < count:
        d = 2 + len(out) % 3
        den = rng.choice([1, 2, 3])
        try:
            if len(out) % 2 == 0:
                pts = [[Q(rng.randint(-4, 4), den) for _ in range(d)] for _ in range(d + 2)]
                ctx = context_from_vertices(pts)
                body = {"vertices": [[str(x) for x in u] for u in pts]}
            else:
                normals = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(d + 2)]
                cons = [(n, Q(-rng.randint(1, 4), den)) for n in normals if any(n)]
                ctx = context_from_constraints(cons)
                body = {"constraints": [{"normal": n, "offset": str(c)} for n, c in cons]}
        except ValueError:
            continue
        name = f"doc{len(out)}"
        out.append(({"name": name, "moment_polytope": body}, ctx._replace(name=name)))
    return out


def test_report_documents_match_the_library(tmp_path, capsys):
    """Each direction's entry in a `report` document is the library's invariants
    rendered, and the plain-Fraction oracle's values."""
    rng = random.Random("toricstab:report-documents")
    for doc_in, ctx in _seeded_documents(rng, 24):
        directions = [
            [rng.randint(-3, 3) or 1 for _ in range(ctx.dim)] for _ in range(rng.randint(1, 3))
        ]
        argv = ["report", write_doc(tmp_path, f"{ctx.name}.json", doc_in)]
        for v in directions:
            argv += ["--v", ",".join(map(str, v))]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        rows = json.loads(out)["directions"]
        assert [row["v"] for row in rows] == [",".join(map(str, v)) for v in directions]
        for row, v in zip(rows, directions):
            value, expected = mu(ctx, v), stability_oracle.mu(ctx, v)
            (a, s), (oa, os_) = log_discrepancy_S(ctx, v), stability_oracle.log_discrepancy_S(ctx, v)
            fields = {
                "futaki": (futaki(ctx, v), stability_oracle.futaki(ctx, v)),
                "min_norm": (min_norm(ctx, v), stability_oracle.min_norm(ctx, v)),
                "l2_norm_sq": (l2_norm_sq(ctx, v), stability_oracle.l2_norm_sq(ctx, v)),
                "A": (a, oa),
                "S": (s, os_),
                "mu1": (value.mu1, expected.mu1),
            }
            for field, (got, ref) in fields.items():
                assert row[field] == rat_str(got) == rat_str(ref), (ctx.name, v, field)
            assert value == expected
            assert row["mu2"] == render_m2(value.mu2_sign, value.mu2_sq, 12)


# ---------------------------------------------------------------------------
# stratify


def test_stratify_orders_strata(tmp_path, capsys):
    paths = [
        write_doc(tmp_path, "a.json", P2_DOC),
        write_doc(tmp_path, "b.json", P112_DOC),
        write_doc(tmp_path, "c.json", P113_DOC),
    ]
    code, out, _ = run(capsys, "stratify", *paths)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert [s["members"] for s in doc["strata"]] == [["p2"], ["p112"], ["p113"]]
    assert [s["M_mu"][0] for s in doc["strata"]] == ["0/1", "-1/4", "-2/5"]


def test_stratify_groups_equal_values(tmp_path, capsys):
    twin = dict(P112_DOC, name="p112-relabeled")
    paths = [
        write_doc(tmp_path, "a.json", P112_DOC),
        write_doc(tmp_path, "b.json", twin),
    ]
    code, out, _ = run(capsys, "stratify", *paths)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["strata"]) == 1
    assert doc["strata"][0]["members"] == ["p112", "p112-relabeled"]


def test_stratify_documents_match_the_library(tmp_path, capsys):
    """Seeded documents and unimodular images of some of them: the strata are the
    library's optimal values in descending order, each with exactly its members."""
    rng = random.Random("toricstab:stratify-documents")
    pairs = _seeded_documents(rng, 12)
    for doc_in, ctx in pairs[:6]:
        rows, _ = unimodular_matrix(rng, ctx.dim)
        pts = [mat_vec(rows, u) for u in ctx.vpoly.vertices]
        name = f"{ctx.name}-image"
        body = {"vertices": [[str(x) for x in u] for u in pts]}
        pairs.append(({"name": name, "moment_polytope": body}, context_from_vertices(pts, name)))
    paths = [write_doc(tmp_path, f"{ctx.name}.json", doc_in) for doc_in, ctx in pairs]
    code, out, err = run(capsys, "stratify", *paths)
    assert code == 0, err
    doc = json.loads(out)
    groups = {}
    for _, ctx in pairs:
        groups.setdefault(optimal_destabilizer(ctx).m_mu, []).append(ctx.name)
    assert doc["count"] == len(pairs)
    assert doc["strata"] == [
        {"M_mu": render_value(value, 12), "members": sorted(groups[value])}
        for value in sorted(groups, reverse=True)
    ]
    # each image shares its preimage's stratum
    for stratum in doc["strata"]:
        for member in stratum["members"]:
            assert member.removesuffix("-image") in stratum["members"]


def test_stratify_single_semistable(tmp_path, capsys):
    path = write_doc(tmp_path, "a.json", P2_DOC)
    code, out, _ = run(capsys, "stratify", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["strata"]) == 1
    assert doc["strata"][0]["M_mu"] == ["0/1", "0/1"]


def test_stratify_corpus_thread_count_is_invisible(tmp_path, capsys):
    outs = []
    for threads in ("1", "8"):
        target = tmp_path / f"t{threads}.json"
        code, _, _ = run(
            capsys, "stratify", "--corpus", "--threads", threads, "--out", str(target)
        )
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1]


# sha256 of the stdout of every command perfbench/refs/cli.json records, each
# {name} a corpus document built as perfbench/workloads.py builds it and
# {readme-point} the README weighted point, so that a change failing the
# benchmark's reference check fails here first; then this file's own pins.  A
# change meant to keep every result must keep every byte.
CLI_REFS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "cli.json").read_text()
)
CLI_STDOUT_SHA256 = {tuple(key.split()): ref["sha256"] for key, ref in CLI_REFS.items()}
CLI_STDOUT_SHA256.update({
    ("oracle", "{p2-halfline}", "--v", "1,1", "--mmax", "60"): (
        "594fdb4c708b5e16e3beb9ac4c0bc80b404e90e5cfd0e30d4c8c1bbe308fbe47"
    ),
    # 3D with r = 2: t_max = 6 lies between the reciprocity dilates k = 3 and
    # d+4 = 7, and t_max = 20 extends the difference tables
    ("oracle", "{p1112-moment}", "--v", "1,1,1", "--mmax", "12"): (
        "ff344fae50e7d40369d22c3f87ed43b3c1302c44e13cce906c1968e1ee2814c0"
    ),
    ("oracle", "{p1112-moment}", "--v", "1,1,1", "--mmax", "40"): (
        "24b94f8061c695c53781269779fdc6a11c0c5c91bfca12c05517154f955c58ce"
    ),
    # the vertex and the constraint reader, the latter with fractional offsets
    # and a normal that is not primitive
    ("report", "{p1112-moment}", "--v", "0,0,1", "--v", "1,-1,2"): (
        "213f370f61a657f185f5bfa95f6a0f537a011442a7adfe8bd71dee2e4131d1fe"
    ),
    ("destabilize", "{p1112-moment}"): (
        "0e13d5aa5aa473c9b8ec0549a51c32ea30bbd6a39acd1021bab26e515ea629be"
    ),
    ("report", "{corner-constraints}", "--v", "1,0,0", "--v", "-1,2,1"): (
        "70d8781ffbcf2134ba5406d61f5d081d6ddcbfb65cbfa2a91566db7af6ab8251"
    ),
    ("destabilize", "{corner-constraints}"): (
        "5662c2c408e23f78e64bb80fd8f8a9ef754cefd37e45cba1dc2b9babb0259168"
    ),
    # limits on weights spanning a hyperplane, with a repeated weight and an
    # index left out of the support: directions landing on a vertex, on an
    # edge through the repeated weight and on the whole polytope
    ("limits", "{limits-3d}", "--v", "1,1,2"): (
        "3cea7e4f363cb25576ea1fa1dfff0bcc0f1d6f7339694ea85e26c7dc8583daf3"
    ),
    ("limits", "{limits-3d}", "--v", "1,4,3"): (
        "c619db16c0eb1f81763062823c3a62763b4980658511000fb34ac10b7a3b1da8"
    ),
    ("limits", "{limits-3d}", "--v", "1,1,1"): (
        "dbedc3cea79ac158997764ec5207ceeb269ceeeda89bdc6fabc51ae090944077"
    ),
    ("limits", "{limits-4d}", "--v", "1,1,1,2"): (
        "86f77019b6d00eeeb423900c5ca0db21c48832b2fd145bf048b97fb87d1ae9b9"
    ),
    ("limits", "{limits-4d}", "--v", "3,1,3,3"): (
        "8cecb3ee1c87bf909e7e055666cdd9af193a8e5adb1a0a1c373ab2dc61582c0b"
    ),
    ("limits", "{limits-4d}", "--v", "1,1,1,1"): (
        "83e1c27c9da2450682b4323716858cdcd5d3f0553042ebb86176096480ff9f98"
    ),
})
P1112_MOMENT_DOC = {
    "name": "p1112-moment",
    "moment_polytope": {
        "vertices": [["-1", "-1", "-1"], ["-1", "-1", "3/2"], ["-1", "4", "-1"], ["4", "-1", "-1"]]
    },
}
CORNER_CONSTRAINTS_DOC = {
    "name": "corner-constraints",
    "moment_polytope": {
        "constraints": [
            {"normal": [2, 0, 0], "offset": "-1"},
            {"normal": [0, 1, 0], "offset": "-2/3"},
            {"normal": [0, 0, 1], "offset": "-1"},
            {"normal": [-1, -1, -1], "offset": "-3/2"},
            {"normal": [-1, 0, 0], "offset": "-5/4"},
        ]
    },
}

# weight 3 repeats weight 0 (weight 4 repeats weight 1 in 4D); the last weight
# is off the support
LIMITS_3D_DOC = {
    "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [2, 2, -3], [5, 5, 5]],
    "support": [0, 1, 2, 3, 4],
}
LIMITS_4D_DOC = {
    "weights": [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 1, 1, -2],
        [3, 0, 0, 0],
    ],
    "support": [0, 1, 2, 3, 4, 5],
}


def corpus_doc(name):
    rays, coeffs = CORPUS[name]
    doc = {"name": name, "rays": [list(r) for r in rays]}
    if coeffs is not None:
        doc["coeffs"] = [f"{c.numerator}/{c.denominator}" for c in coeffs]
    return doc


CLI_DOCS = {
    **{name: corpus_doc(name) for name in CORPUS},
    "readme-point": {**TRIANGLE_POINT, "support": [0, 1, 2]},
    "p1112-moment": P1112_MOMENT_DOC,
    "corner-constraints": CORNER_CONSTRAINTS_DOC,
    "limits-3d": LIMITS_3D_DOC,
    "limits-4d": LIMITS_4D_DOC,
}


@pytest.mark.parametrize("argv", sorted(CLI_STDOUT_SHA256), ids=" ".join)
def test_corpus_documents_are_byte_identical(tmp_path, capsys, argv):
    files = [
        write_doc(tmp_path, f"{a[1:-1]}.json", CLI_DOCS[a[1:-1]]) if a.startswith("{") else a
        for a in argv
    ]
    code, out, _ = run(capsys, *files)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_SHA256[argv]


# ---------------------------------------------------------------------------
# oracle


# sha256 of the --dump file of the 3D oracle documents in CLI_STDOUT_SHA256
ORACLE_DUMP_SHA256 = {
    "12": "45ceb709a0ddb50db7e905175ccfffb2e8a2bd8e8be51e449146fb33887eadea",
    "40": "12908fe92524ff763a2633ceee7627825c94c40f54e143e57bc5af8efb92e154",
}


@pytest.mark.parametrize("mmax", sorted(ORACLE_DUMP_SHA256))
def test_oracle_dump_of_a_3d_document_is_byte_identical(tmp_path, capsys, mmax):
    path = write_doc(tmp_path, "p1112-moment.json", P1112_MOMENT_DOC)
    dump = tmp_path / "rows.txt"
    code, _, _ = run(capsys, "oracle", path, "--v", "1,1,1", "--mmax", mmax, "--dump", str(dump))
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == ORACLE_DUMP_SHA256[mmax]


@pytest.mark.parametrize("digits", ["7", "12"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_oracle_dump_agrees_with_the_document_row_by_row(tmp_path, capsys, name, digits):
    """Each dump line is `m count f g lambda` of its document row, at --mmax 3r and 60."""
    path = write_doc(tmp_path, f"{name}.json", corpus_doc(name))
    ones = ",".join(["1"] * len(CORPUS[name][0][0]))
    dump = tmp_path / "dump.txt"

    def check(mmax):
        argv = ["oracle", path, "--v", ones, "--mmax", mmax, "--digits", digits, "--dump", dump]
        code, out, err = run(capsys, *map(str, argv))
        assert code == 0, err
        doc = json.loads(out)
        header, *lines = dump.read_text(encoding="utf-8").splitlines()
        assert header == "# m count f g lambda_min_over_m"
        assert len(lines) == len(doc["rows"]) == mmax // doc["r"]
        for line, row in zip(lines, doc["rows"]):
            lam = dec_str_by_fractions(Q(row["lambda_min_over_m"]), int(digits))
            assert line == f"{row['m']} {row['count']} {row['f_decimal']} {row['g_decimal']} {lam}"
        return doc["r"]

    check(3 * check(60))


def test_oracle_balanced_plane(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    dump = tmp_path / "dump.txt"
    code, out, _ = run(
        capsys, "oracle", path, "--v", "1,0", "--mmax", "6", "--dump", str(dump)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 1
    assert [row["m"] for row in doc["rows"]] == [1, 2, 3, 4, 5, 6]
    assert all(row["f"] == "0/1" for row in doc["rows"])
    assert doc["rows"][0]["count"] == 10
    assert doc["F0_est"] == "0/1"
    assert doc["F0_target"] == "0/1"
    assert all(row["lambda_min_over_m"] == "-1/1" for row in doc["rows"])
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# m count f g lambda_min_over_m"
    assert len(lines) == 7
    assert lines[1].split()[:2] == ["1", "10"]


def test_oracle_weighted_triangle_converges(tmp_path, capsys):
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, _ = run(capsys, "oracle", path, "--v", "0,-1", "--mmax", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["F0_target"] == "1/3"
    assert abs(Q(doc["F0_est"]) - Q(1, 3)) <= Q(1, 1000)
    assert Q(doc["Q0_target"]) == Q(2, 9) + Q(1, 9)
    assert abs(Q(doc["Q0_est"]) - Q(doc["Q0_target"])) <= Q(1, 1000)


def test_oracle_targets_match_the_library(tmp_path, capsys):
    """The targets of each exit-0 `oracle` document are the library's -Fut and
    ||v||_2^2 + Fut^2; a scan over the cell limit exits 2 and says so."""
    rng = random.Random("toricstab:oracle-documents")
    done = 0
    for doc_in, ctx in _seeded_documents(rng, 10):
        v = [rng.randint(-3, 3) or 1 for _ in range(ctx.dim)]
        r = math.lcm(*(x.denominator for u in ctx.vpoly.vertices for x in u))
        path = write_doc(tmp_path, f"{ctx.name}.json", doc_in)
        argv = ["oracle", path, "--v", ",".join(map(str, v)), "--mmax", str(3 * r)]
        code, out, err = run(capsys, *argv)
        if code == 2:
            assert "over the limit" in err
            continue
        assert code == 0, err
        done += 1
        doc = json.loads(out)
        f = futaki(ctx, v)
        assert doc["F0_target"] == rat_str(-f)
        assert doc["Q0_target"] == rat_str(l2_norm_sq(ctx, v) + f * f)
    assert done >= 6, done


def test_oracle_input_validation(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, _, err = run(capsys, "oracle", path, "--v", "0,0", "--mmax", "9")
    assert code == 2 and "zero direction" in err
    assert "error: --v 0,0 on p2: zero direction" in err
    code, _, err = run(capsys, "oracle", path, "--v", "1,0", "--mmax", "2")
    assert code == 2 and "insufficient series length" in err
    assert "error: --mmax 2: insufficient series length: m_max must be at least 3r = 3" in err
    other = write_doc(tmp_path, "other.json", P112_DOC)
    with pytest.raises(SystemExit) as exit_:
        run(capsys, "oracle", path, other, "--v", "1,0", "--mmax", "9")
    assert exit_.value.code == 2
    assert f"error: unrecognized arguments: {other}" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["missing.json", "--corpus"])
def test_oracle_refuses_a_second_document_or_corpus_before_reading(
    tmp_path, capsys, monkeypatch, extra
):
    """argparse names the extra argument, and no document is read: the second
    path does not exist, no "cannot read input" is reported, and loading the
    first would fail the test."""
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    monkeypatch.setattr(toricstab.cli, "load_doc", lambda _: pytest.fail("a document was read"))
    if extra.endswith(".json"):
        extra = str(tmp_path / extra)
    with pytest.raises(SystemExit) as exit_:
        main(["oracle", path, extra, "--v", "1,0", "--mmax", "9"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert f"error: unrecognized arguments: {extra}" in err
    assert "cannot read input" not in err


# ---------------------------------------------------------------------------
# limits


def test_limits_triangle(tmp_path, capsys):
    path = write_doc(tmp_path, "w.json", TRIANGLE_POINT)
    code, out, _ = run(capsys, "limits", path, "--v", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["limit_support"] == [0]
    assert doc["fixed"] is False
    assert doc["support"] == [0, 1, 2]
    assert [0, 1, 2] in doc["faces"]
    assert doc["sigma_F"]["normals"] == ["-1,0", "0,-1"]


def test_limits_fixed_point(tmp_path, capsys):
    doc_in = {"weights": [[0, 0], [1, 0], [0, 1]], "support": [1]}
    path = write_doc(tmp_path, "w.json", doc_in)
    code, out, _ = run(capsys, "limits", path, "--v", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixed"] is True
    assert doc["limit_support"] == [1]


def test_limits_zero_direction(tmp_path, capsys):
    path = write_doc(tmp_path, "w.json", TRIANGLE_POINT)
    code, out, err = run(capsys, "limits", path, "--v", "0,0")
    assert code == 2 and out == ""
    assert err == f"error: --v 0,0 on {path}: zero direction\n"


def test_limits_direction_errors_name_the_input(tmp_path, capsys, monkeypatch):
    # a weighted point has no name, so the direction error names the file,
    # as report and oracle name the document's entry
    monkeypatch.chdir(tmp_path)
    write_doc(tmp_path, "pt.json", TRIANGLE_POINT)
    code, out, err = run(capsys, "limits", "pt.json", "--v", "1,1,1")
    assert code == 2 and out == ""
    assert err == "error: --v 1,1,1 on pt.json: direction has length 3, expected 2\n"


def test_limits_document_errors_name_the_path_once(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"weights": [[0, "x"], [1, 0]]})
    code, out, err = run(capsys, "limits", path, "--v", "1,1")
    assert code == 2 and out == ""
    assert err == f"error: {path}: field weights: expected integers, got 'x'\n"
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, "limits", missing, "--v", "1,1")
    assert code == 2 and out == ""
    # load_doc's refusal leaves the path to the prefix, so it is named once
    assert err == f"error: {missing}: cannot read input: No such file or directory\n"


@pytest.mark.parametrize("command", ["report", "destabilize", "stratify", "oracle"])
def test_unreadable_document_names_its_path_once(tmp_path, capsys, command):
    # limits is checked by the test above
    missing = str(tmp_path / "missing.json")
    flags = ["--v", "1,1", "--mmax", "12"] if command == "oracle" else []
    code, out, err = run(capsys, command, missing, *flags)
    assert code == 2 and out == ""
    assert err == f"error: {missing}: cannot read input: No such file or directory\n"


def test_limits_refuses_digits_before_reading(tmp_path, capsys):
    # limits prints no decimal, so it declares no --digits; argparse refuses
    # the option before the missing document is read
    missing = str(tmp_path / "missing.json")
    with pytest.raises(SystemExit) as exit_:
        main(["limits", missing, "--v", "1,1", "--digits", "3"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == ""
    assert "error: unrecognized arguments: --digits 3" in err
    assert "cannot read input" not in err


def test_limits_face_lattice_over_budget_exits_two(tmp_path, capsys):
    # the moment curve (t, t^2, ..., t^8) at t = 0..19 has 2 275 facets and
    # 43 521 faces; its closure under facet meets passes the budget in about
    # 2 s, short of the 35-45 s the whole lattice takes
    weights = [[t**k for k in range(1, 9)] for t in range(20)]
    path = write_doc(tmp_path, "curve.json", {"weights": weights})
    start = time.perf_counter()
    code, out, err = run(capsys, "limits", path, "--v", "1,0,0,0,0,0,0,0")
    assert code == 2 and out == ""
    assert "face lattice needs at least 10010188 meets, exceeds budget of 10000000" in err
    assert "Traceback" not in err
    assert time.perf_counter() - start < 20


def _fuzz_weighted_point(rng, d):
    """A `limits` document: small integer weights with repeats, on a
    lower-dimensional affine image every third draw, and a random support
    every other draw."""
    e = rng.randint(0, d - 1) if rng.random() < 1 / 3 else d
    basis = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(e)]
    base = [rng.randint(-2, 2) for _ in range(d)]
    weights = []
    for _ in range(rng.randint(2, 7)):
        c = [rng.randint(-1, 1) for _ in basis]
        weights.append([x + sum(ci * b[i] for ci, b in zip(c, basis)) for i, x in enumerate(base)])
    weights += [list(rng.choice(weights)) for _ in range(rng.randint(0, 2))]
    doc = {"weights": weights}
    if rng.random() < 0.5:
        doc["support"] = sorted(rng.sample(range(len(weights)), rng.randint(1, len(weights))))
    return doc


def test_limits_documents_match_the_library(tmp_path, capsys):
    rng = random.Random("toricstab:limits-documents")
    ties = lower = repeats = 0
    for case in range(30):
        d = 1 + case % 6
        doc_in = _fuzz_weighted_point(rng, d)
        v = [0] * d
        while not any(v):
            v = [rng.randint(-2, 2) for _ in range(d)]
        path = write_doc(tmp_path, f"w{case}.json", doc_in)
        code, out, err = run(capsys, "limits", path, "--v", ",".join(map(str, v)))
        assert code == 0, err
        doc = json.loads(out)
        weights = doc_in["weights"]
        q = weight_polytope(weighted_point(weights, doc_in.get("support")))
        face = face_of_direction(q, v)
        cone = normal_cone_of_face(q, face)
        assert doc["faces"] == [sorted(f) for f in q.faces]
        assert set(q.faces) == faces_by_subsets(weights, q.point.support)
        assert doc["limit_support"] == sorted(face)
        assert doc["fixed"] == (face == q.point.support)
        assert doc["sigma_F"]["normals"] == [",".join(map(str, a)) for a in cone.normals]
        ties += len(face) > 1
        lower += q.polytope.dim < d
        sup = [weights[i] for i in q.point.support]
        repeats += len({tuple(u) for u in sup}) < len(sup)
    assert ties >= 5 and lower >= 5 and repeats >= 5, (ties, lower, repeats)


# ---------------------------------------------------------------------------
# errors and process surface


def test_bad_coefficient_exits_two(tmp_path, capsys):
    doc = {"name": "bad", "rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": ["0", "0", "1"]}
    path = write_doc(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, "report", path)
    assert code == 2
    assert "coefficient must be < 1" in err


def test_bad_direction_exits_two(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, _, err = run(capsys, "report", path, "--v", "a,b")
    assert code == 2 and "field v" in err


@pytest.mark.parametrize(
    "v", ["1_0,1", "\u0661,1", "1e2,1", pytest.param("9" * 5000 + ",1", id="5000-digits,1")]
)
def test_direction_accepts_only_ascii_integers(tmp_path, capsys, v):
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1, and refuses
    # a literal past CPython's 4300-digit limit with advice that names no flag
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, out, err = run(capsys, "report", path, "--v", v)
    assert code == 2 and out == ""
    assert "error: field v: expected comma-separated integers" in err


RATIONAL_DOCS = {
    "coeffs": lambda x: {"rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": [x, "0", "0"]},
    "vertices": lambda x: {"moment_polytope": {"vertices": [[x, "0"], ["1", "0"], ["0", "1"]]}},
    "constraints.offset": lambda x: {
        "moment_polytope": {"constraints": [{"normal": [1, 0], "offset": x}]}
    },
}


@pytest.mark.parametrize("text", ["1e100000000", "1e5000", "1_0", "\u0661", ".5", "1/2/3"])
@pytest.mark.parametrize("field", sorted(RATIONAL_DOCS))
def test_rational_accepts_only_ascii_fractions_and_decimals(tmp_path, capsys, field, text):
    # an exponent is refused before Fraction expands it: 1e100000000 ran
    # for minutes, and 1e5000 failed on the interpreter's int-size limit
    path = write_doc(tmp_path, "bad.json", {"name": "bad", **RATIONAL_DOCS[field](text)})
    code, out, err = run(capsys, "report", path)
    assert code == 2 and out == ""
    assert f"field {field}: expected a rational like 'p/q', got {text!r}" in err


@pytest.mark.parametrize("text", ["0", "-3", "+2", "1/2", " 1/2 ", "1.25"])
def test_library_and_cli_accept_the_same_rational_strings(text):
    assert parse_rational(text, "f") == qval(text, "f") == Q(text)


@pytest.mark.parametrize(
    "text", ["1e5", "1e100000000", "1_0", "\u0661", ".5", "1/2/3", "1/0", "x"]
)
def test_library_and_cli_refuse_the_same_rational_strings(text):
    # one grammar reads a string entry in the library as on the command line;
    # Fraction alone reads "1e5", "1_0" and ".5", and expands 1e100000000 for minutes
    with pytest.raises(ValueError, match="^field f: expected a rational like 'p/q', got "):
        parse_rational(text, "f")
    with pytest.raises(ValueError, match=f"^f {re.escape(repr(text))} is not a rational$"):
        qval(text, "f")


@pytest.mark.parametrize("field", sorted(RATIONAL_DOCS))
def test_rational_refuses_json_booleans(tmp_path, capsys, field):
    # bool is a subclass of int, so true would otherwise read as 1
    path = write_doc(tmp_path, "bad.json", {"name": "bad", **RATIONAL_DOCS[field](True)})
    code, out, err = run(capsys, "report", path)
    assert code == 2 and out == ""
    assert f"field {field}: expected a rational like 'p/q', got True" in err


def test_integer_literal_over_the_digit_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "long.json"
    coeffs = "1" * 4400 + ", 0, 0"
    path.write_text(f'{{"name": "x", "rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": [{coeffs}]}}')
    for argv in (["report", str(path)], ["limits", str(path), "--v", "1,1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {path}: integer literal longer than 4300 digits\n"
        assert "set_int_max_str_digits" not in err and "Traceback" not in err


def test_output_integer_over_the_digit_limit_exits_two(tmp_path, capsys):
    # the corners (+-10^2500, +-10^2500) give the volume about 4 10^5000, which
    # str() refuses to print in full; the refusal names the limit, not CPython's advice
    big = 10**2500
    corners = [[x, y] for x in (-big, big) for y in (-big, big)]
    vertices = [[0, 0], [3, 1], [1, 4], [-2, 2], *corners]
    doc = {"name": "big", "moment_polytope": {"vertices": vertices}}
    path = write_doc(tmp_path, "big.json", doc)
    for argv in (["report", path], ["report", path, "--v", "1,0"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: output integer longer than 4300 digits\n"


def test_rational_decimals_and_fractions_read_alike(tmp_path, capsys):
    outs = []
    for vertices in (
        [["-0.5", "-1"], ["1.25", "0"], ["0", "1"]],
        [["-1/2", "-1"], ["5/4", "0"], ["0", "1"]],
        [[" -0.50 ", "-1"], ["+1.25", "-0"], ["0/3", 1]],
    ):
        doc = {"name": "t", "moment_polytope": {"vertices": vertices}}
        code, out, _ = run(capsys, "report", write_doc(tmp_path, "t.json", doc))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("command", ["limits", "report", "oracle"])
def test_direction_with_leading_minus(tmp_path, capsys, command):
    path = write_doc(tmp_path, "in.json", TRIANGLE_POINT if command == "limits" else P112_DOC)
    extra = ["--mmax", "6"] if command == "oracle" else []
    code, spaced, _ = run(capsys, command, path, "--v", "-1,2", *extra)
    assert code == 0
    code, joined, _ = run(capsys, command, path, "--v=-1,2", *extra)
    assert code == 0
    assert spaced == joined and '"-1,2"' in spaced


@pytest.mark.parametrize("v", ["1,0", "1,0,0,0"])
def test_report_direction_length_exits_two(tmp_path, capsys, v):
    doc = {"name": "p1112", "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -2]]}
    path = write_doc(tmp_path, "p1112.json", doc)
    code, out, err = run(capsys, "report", path, "--v", v)
    assert code == 2 and out == ""
    assert f"direction has length {len(v.split(','))}, expected 3" in err
    assert f"error: --v {v} on p1112: direction" in err


def test_report_corpus_direction_names_the_entry(capsys):
    # the corpus mixes 2D and 3D entries, so any direction misfits one of them
    code, out, err = run(capsys, "report", "--corpus", "--v", "1,0")
    assert code == 2 and out == ""
    assert "error: --v 1,0 on p1112: direction has length 2, expected 3" in err


def test_input_source_conflicts(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, _, err = run(capsys, "report", path, "--corpus")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "report")
    assert code == 2 and "no inputs" in err


@pytest.mark.parametrize(
    "field, doc",
    [
        ("rays", {"rays": 5}),
        ("coeffs", {"rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": 5}),
        ("constraints", {"moment_polytope": {"constraints": 5}}),
        ("vertices", {"moment_polytope": {"vertices": [[0, 0], [1, 0], 5]}}),
        ("vertices", {"moment_polytope": {"vertices": "0,0"}}),
        (
            "constraints.normal",
            {"moment_polytope": {"constraints": [{"normal": [0, 0], "offset": 0}]}},
        ),
        (
            "constraints.normal",
            {"moment_polytope": {"constraints": [{"normal": [1, 0], "offset": 0},
                                                 {"normal": [0, 1, 0], "offset": 0}]}},
        ),
        ("vertices", {"moment_polytope": {"vertices": [[0, 0], [1, 0, 0], [0, 1]]}}),
        ("rays", {"rays": [[1, 0], [0, 1, 0], [-1, -1]]}),
        ("coeffs", {"rays": [[1, 0], [0, 1], [-1, -1]], "coeffs": [0, 0]}),
        ("weights", {"weights": [[0, 0], [1, 0, 0]]}),
        ("support", {"weights": [[0, 0], [1, 0], [0, 1]], "support": [0, 5]}),
        ("support", {"weights": [[0, 0], [1, 0], [0, 1]], "support": [-1]}),
        ("input", '{"name": "bad", "rays": [[1, 0]'),
        ("moment_polytope", {"moment_polytope": [[0, 0], [1, 0], [0, 1]]}),
        ("constraints", {"moment_polytope": {"constraints": [{"normal": [1, 0], "offset": 0}, 5]}}),
        ("moment_polytope", {"moment_polytope": {"rays": [[1, 0], [0, 1], [-1, -1]]}}),
        ("rays", {"rays": [[1, 0], 5, [-1, -1]]}),
        ("rays", {"rays": [[1, 0], [0, 1.5], [-1, -1]]}),
        (
            "constraints.offset",
            {"moment_polytope": {"constraints": [{"normal": [1, 0], "offset": "1/0"}]}},
        ),
    ],
)
def test_malformed_shape_exits_two(tmp_path, capsys, field, doc):
    # a string is written as it is: the one document that is not valid JSON,
    # refused with the path and then the decoder's own message
    if isinstance(doc, str):
        path = tmp_path / "bad.json"
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as bad:
            json.loads(doc)
        whole = f"error: {path}: not valid JSON: {bad.value}\n"
    else:
        path = write_doc(tmp_path, "bad.json", {"name": "bad", **doc})
        whole = None
    argv = ["limits", path, "--v", "1,0"] if "weights" in doc else ["report", path]
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2 and out == ""
    assert err == whole if whole else f"field {field}:" in err
    assert "Traceback" not in err


def test_non_primitive_ray_is_named(tmp_path, capsys):
    path = write_doc(tmp_path, "np.json", {"name": "np", "rays": [[2, 0], [0, 1], [-1, -1]]})
    code, out, err = run(capsys, "destabilize", path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: ray (2, 0) is not a primitive nonzero lattice vector\n"


@pytest.mark.parametrize("argv", [["report"], ["limits", "--v", "1,1"]])
def test_document_that_is_not_an_object_exits_two(tmp_path, capsys, argv):
    # load_doc refuses it, before the command's own reader
    path = write_doc(tmp_path, "array.json", [[0, 0], [1, 0], [0, 1]])
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: {path}: input document must be a JSON object\n"


def test_document_without_a_body_exits_two(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {"name": "bad", "coeffs": [0]})
    code, out, err = run(capsys, "destabilize", path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: field rays or moment_polytope: required\n"


def test_hull_over_budget_exits_two(tmp_path, capsys):
    # 40 random points in 8D have 9433 facets and need about 7e7 ray pairs;
    # the hull refuses at the first row that takes the sum over the budget
    rng = random.Random("toricstab:budget")
    pts = [[rng.randint(-9, 9) for _ in range(8)] for _ in range(40)]
    path = write_doc(tmp_path, "big.json", {"name": "big", "moment_polytope": {"vertices": pts}})
    code, out, err = run(capsys, "report", path)
    assert code == 2 and out == ""
    assert "hull needs at least 12968643 ray pairs, exceeds budget of 10000000" in err
    assert "Traceback" not in err


def test_triangulation_over_budget_exits_two(tmp_path, capsys):
    # the product of four hexagon fans: 24 rays in 8D, 1296 vertices and
    # 645 120 pulling simplices, refused long before the last one
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    rays = [[0] * (2 * k) + list(r) + [0] * (6 - 2 * k) for k in range(4) for r in hexagon]
    path = write_doc(tmp_path, "hex4.json", {"name": "hex4", "rays": rays})
    code, out, err = run(capsys, "report", path)
    assert code == 2 and out == ""
    assert "triangulation needs at least 11520 simplices, exceeds budget of 10000" in err
    assert "Traceback" not in err


def _cross_polytope(d):
    return [[s * (j == i) for j in range(d)] for i in range(d) for s in (1, -1)]


def _projective_space_rays(d):
    return [[int(j == i) for j in range(d)] for i in range(d)] + [[-1] * d]


# the 9D cross-polytope as vertices and as its 512 facets, P^9 and a 9D weighted point
CROSS9_FACETS = [{"normal": list(n), "offset": -1} for n in itertools.product((1, -1), repeat=9)]
NINE_D_DOCS = {
    "vertices": ("report", {"name": "x9", "moment_polytope": {"vertices": _cross_polytope(9)}}),
    "constraints": ("report", {"name": "x9", "moment_polytope": {"constraints": CROSS9_FACETS}}),
    "rays": ("report", {"name": "p9", "rays": _projective_space_rays(9)}),
    "weights": ("limits", {"weights": _cross_polytope(9)}),
}


@pytest.mark.parametrize("kind", sorted(NINE_D_DOCS))
def test_nine_dimensions_exit_two_in_every_form(tmp_path, capsys, kind):
    command, doc = NINE_D_DOCS[kind]
    path = write_doc(tmp_path, "nine.json", doc)
    argv = [command, path] + (["--v", ",".join("1" * 9)] if command == "limits" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "ambient dimension 9 exceeds the limit of 8" in err
    assert "Traceback" not in err


def test_eight_dimensions_are_accepted(tmp_path, capsys):
    path = write_doc(tmp_path, "p8.json", {"name": "p8", "rays": _projective_space_rays(8)})
    code, out, _ = run(capsys, "report", path)
    assert code == 0
    assert json.loads(out)["verdict"] == "semistable"


def test_oracle_rows_over_the_limit_exit_two(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, out, err = run(capsys, "oracle", path, "--v", "1,0", "--mmax", "1000000000")
    assert code == 2 and out == ""
    assert "error: --mmax 1000000000: 1000000000 rows exceed the limit of 20000 rows" in err
    assert "Traceback" not in err


def test_oracle_scan_over_the_cell_limit_exits_two(tmp_path, capsys):
    # the prefix boxes of the dilates 1, 2 and 3 of [0,300]^3 hold
    # 301^2 + 601^2 + 901^2 cells; nothing is allocated before the refusal
    cube = [[x, y, z] for x in (0, 300) for y in (0, 300) for z in (0, 300)]
    path = write_doc(tmp_path, "cube.json", {"name": "cube", "moment_polytope": {"vertices": cube}})
    code, out, err = run(capsys, "oracle", path, "--v", "1,1,1", "--mmax", "3")
    assert code == 2 and out == ""
    assert "error: --mmax 3: scan needs 1263603 prefix cells, over the limit of 1000000" in err
    assert "Traceback" not in err


def test_oracle_scan_of_a_rational_cube_counts_the_cells_of_r_p(tmp_path, capsys):
    # [0, 601/2]^3 has r = 2, so --mmax 6 scans t = 1, 2, 3 of Z = [0, 601]^3:
    # 602^2 + 1203^2 + 1804^2 prefix cells
    cube = [[x, y, z] for x in ("0", "601/2") for y in ("0", "601/2") for z in ("0", "601/2")]
    path = write_doc(tmp_path, "cube.json", {"name": "cube", "moment_polytope": {"vertices": cube}})
    code, out, err = run(capsys, "oracle", path, "--v", "1,1,1", "--mmax", "6")
    assert code == 2 and out == ""
    assert "error: --mmax 6: scan needs 5064029 prefix cells, over the limit of 1000000" in err
    assert "Traceback" not in err


def test_oracle_scan_of_a_many_faceted_ball_exits_two_quickly(capsys):
    # ball16x2 is twice the hull of the integer points u with 208 < |u|^2 <= 256:
    # 342 vertices and 260 facets in the box [-32, 32]^3.  --mmax 7 scans the
    # closed dilates t = 1, 2, 3 and their interiors, 2 (65^2 + 129^2 + 193^2) =
    # 116 230 prefix cells, under the cell limit; but each costs one column per
    # facet, 116 230 * 260 = 30 219 800 columns, a scan of several seconds
    path = Path(__file__).parent / "data" / "ball16x2.json"
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", str(path), "--v", "1,2,3", "--mmax", "7")
    assert code == 2 and out == ""
    assert "error: --mmax 7: scan needs 30219800 facet columns, over the limit of 8000000" in err
    assert time.perf_counter() - start < 15


def test_oracle_scan_with_axes_past_sys_maxsize_exits_two(tmp_path, capsys):
    # every axis of [-10^19, 10^19]^2 spans more than sys.maxsize integers; the
    # prefix axis holds 2 10^19 t + 1 cells for t = 1, 2, 3
    big = 10**19
    square = [[x, y] for x in (-big, big) for y in (-big, big)]
    path = write_doc(tmp_path, "s19.json", {"name": "s19", "moment_polytope": {"vertices": square}})
    code, out, err = run(capsys, "oracle", path, "--v", "1,0", "--mmax", "3")
    assert code == 2 and out == ""
    assert (
        "error: --mmax 3: scan needs 120000000000000000003 prefix cells, "
        "over the limit of 1000000" in err
    )
    assert "Traceback" not in err


def test_oracle_refusal_names_a_count_past_the_digit_limit(tmp_path, capsys):
    # [-10^2500, 10^2500]^3 needs (2 10^2500 t + 1)^2 prefix cells for t = 1, 2, 3,
    # about 5.6 10^5001 in all: more digits than str() converts (4300 by default)
    big = 10**2500
    cube = [[x, y, z] for x in (-big, big) for y in (-big, big) for z in (-big, big)]
    path = write_doc(tmp_path, "c2500.json", {"name": "c", "moment_polytope": {"vertices": cube}})
    code, out, err = run(capsys, "oracle", path, "--v", "1,0,0", "--mmax", "3")
    assert code == 2 and out == ""
    assert err == (
        "error: --mmax 3: scan needs more than 10^5001 prefix cells, over the limit of 1000000\n"
    )


@st.composite
def fuzz_invocations(draw):
    """A command line and a small document reaching one hull entry: fan rays with
    optional coefficients, moment-polytope vertices or constraints, or weights
    with an optional support; dimension at most 4 and at most 8 entries.  Half
    the vector lists are closed up by minus their sum and made primitive, so
    that complete fans and bounded polytopes occur as well as every error."""
    d = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    den = draw(st.sampled_from([1, 1, 2, 3]))
    rational = st.integers(-4, 4).map(f"{{}}/{den}".format)
    v = ",".join(map(str, draw(vector)))
    vectors = draw(st.lists(vector, min_size=1, max_size=7))
    if draw(st.booleans()):
        vectors.append([-sum(c) for c in zip(*vectors)])
        vectors = sorted({tuple(x // g for x in u) for u in vectors if (g := math.gcd(*u))})
    kind = draw(st.sampled_from(["rays", "vertices", "constraints", "weights"]))
    if kind == "weights":
        doc = {"weights": vectors}
        if vectors and draw(st.booleans()):
            index = st.integers(0, len(vectors) - 1)
            doc["support"] = draw(st.lists(index, min_size=1, max_size=len(vectors)))
        return ["limits", "--v", v], doc
    if kind == "rays":
        doc = {"name": "fuzz", "rays": vectors}
        if draw(st.booleans()):
            coeffs = st.lists(rational, min_size=len(vectors), max_size=len(vectors))
            doc["coeffs"] = draw(coeffs)
    elif kind == "vertices":
        rows = st.lists(st.lists(rational, min_size=d, max_size=d), min_size=1, max_size=8)
        doc = {"name": "fuzz", "moment_polytope": {"vertices": draw(rows)}}
    else:
        # mostly negative offsets, which put the origin inside
        offset = st.integers(-4, 1).map(f"{{}}/{den}".format)
        offsets = draw(st.lists(offset, min_size=len(vectors), max_size=len(vectors)))
        rows = [{"normal": u, "offset": c} for u, c in zip(vectors, offsets)]
        doc = {"name": "fuzz", "moment_polytope": {"constraints": rows}}
    commands = [["report", "--v", v], ["destabilize"], ["oracle", "--v", v, "--mmax", "3"]]
    return draw(st.sampled_from(commands)), doc


@settings(max_examples=300, deadline=None)
@given(fuzz_invocations())
def test_cli_fuzz_exits_zero_or_two(tmp_path_factory, invocation):
    (command, *flags), doc = invocation
    path = write_doc(tmp_path_factory.mktemp("fuzz"), "doc.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, *flags])
    assert code in (0, 2), (invocation, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


@st.composite
def wide_invocations(draw, command, kind):
    """The flags and a document of one kind for one command, in numbers of any size: small
    integers times one power 10^e, e in 0..40, plus a small shift, over a
    denominator up to 10^20; dimension at most 3.  Vertex lists and half the
    other vector lists get the points +-10^e along each axis, so that
    full-dimensional polytopes and complete fans occur as well as every error.
    `oracle` runs at --mmax three times the denominator."""
    d = draw(st.sampled_from([2, 3, 1]))
    scale = 10 ** (40 - draw(st.integers(0, 40)))  # drawn largest first
    den = draw(st.integers(1, 10**20) | st.sampled_from([1, 10**20]))
    entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda cj: cj[0] * scale + cj[1])
    vector = st.lists(entry, min_size=d, max_size=d)
    vectors = draw(st.lists(vector, min_size=1, max_size=5))
    if kind == "vertices" or draw(st.booleans()):
        vectors += [[x * (i == j) for j in range(d)] for i in range(d) for x in (scale, -scale)]
    v = ",".join(map(str, draw(vector)))
    if kind == "weights":
        doc = {"weights": vectors}
    elif kind == "rays":
        doc = {"name": "wide", "rays": vectors}
    elif kind == "vertices":
        rows = [[f"{x}/{den}" for x in u] for u in vectors]
        doc = {"name": "wide", "moment_polytope": {"vertices": rows}}
    else:
        offsets = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
        rows = [{"normal": u, "offset": f"{-abs(c)}/{den}"} for u, c in zip(vectors, offsets)]
        doc = {"name": "wide", "moment_polytope": {"constraints": rows}}
    flags = {
        "report": ["--v", v],
        "oracle": ["--v", v, "--mmax", str(3 * den)],
        "limits": ["--v", v],
    }
    return flags.get(command, []), doc


WIDE_CASES = [
    (command, kind)
    for command in ["report", "destabilize", "stratify", "oracle"]
    for kind in ["vertices", "constraints", "rays"]
] + [("limits", "weights")]


@pytest.mark.parametrize("command, kind", WIDE_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_wide_fuzz_exits_zero_or_two(tmp_path_factory, command, kind, data):
    flags, doc = data.draw(wide_invocations(command, kind))
    path = write_doc(tmp_path_factory.mktemp("wide"), "doc.json", doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, *flags])
    assert code in (0, 2), (command, flags, doc, err.getvalue())
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


SCHEMA_KEYS = ["name", "rays", "coeffs", "moment_polytope", "vertices", "constraints",
               "weights", "support", "normal", "offset"]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5)
    | st.sampled_from(["p", "1", "-1/2", "0/1", "1/0", "2.5", "\u0661"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
ANY_DOCUMENTS = st.dictionaries(st.sampled_from(SCHEMA_KEYS), JSON_VALUES, max_size=4) | JSON_VALUES
DIRECTION_TEXT = st.text(max_size=10) | st.lists(st.integers(-3, 3), max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["report", "destabilize", "stratify", "oracle", "limits"]),
    ANY_DOCUMENTS,
    DIRECTION_TEXT,
)
def test_cli_fuzz_any_json_shape(tmp_path_factory, command, doc, v):
    path = write_doc(tmp_path_factory.mktemp("shape"), "doc.json", doc)
    flags = {"report": ["--v", v], "oracle": ["--v", v, "--mmax", "3"], "limits": ["--v", v]}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([command, path, *flags.get(command, [])])
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 2), (command, doc, v, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""


def test_all_bad_files_are_reported(tmp_path, capsys):
    bad1 = write_doc(tmp_path, "bad1.json", {"rays": [[1, 0]]})
    bad2 = str(tmp_path / "missing.json")
    code, _, err = run(capsys, "report", bad1, bad2)
    assert code == 2
    assert "bad1.json" in err and "missing.json" in err


def test_digits_must_be_positive(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, _, err = run(capsys, "report", path, "--digits", "0")
    assert code == 2 and "--digits" in err


def test_digits_upper_bound(tmp_path, capsys):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    code, out, err = run(capsys, "report", path, "--v", "1,0", "--digits", "4000")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["directions"][0]["mu1_decimal"].split(".")[1]) == 4000
    code, out, err = run(capsys, "report", path, "--v", "1,0", "--digits", "4001")
    assert code == 2 and out == ""
    assert "--digits must be between 1 and 4000" in err


@pytest.mark.parametrize("command", ["report", "destabilize", "stratify", "oracle"])
@pytest.mark.parametrize("digits", ["0", "4001"])
def test_every_decimal_command_range_checks_digits(tmp_path, capsys, command, digits):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    extra = ["--v", "1,0", "--mmax", "6"] if command == "oracle" else []
    code, out, err = run(capsys, command, path, *extra, "--digits", digits)
    assert code == 2 and out == ""
    assert err == "error: --digits must be between 1 and 4000\n"


def dec_str_by_fractions(x, digits):
    """Reference: the decimal rounded half to even on the Fraction |x| 10^digits."""
    x = Q(x)
    scaled = abs(x) * 10**digits
    n, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem > scaled.denominator or (2 * rem == scaled.denominator and n % 2 == 1):
        n += 1
    s = str(n).rjust(digits + 1, "0")
    return f"{'-' if x < 0 else ''}{s[:-digits]}.{s[-digits:]}"


def sqrt_dec_str_by_fractions(sign, square, digits):
    """Reference: isqrt n of the Fraction square 10^(2 digits), rounded half to even
    at the root's midpoint n + 1/2, whose square is (n + 1/2)^2."""
    scaled = Q(square) * 10 ** (2 * digits)
    n = math.isqrt(scaled.numerator // scaled.denominator)
    midpoint = Q(2 * n + 1, 2) ** 2
    if scaled > midpoint or (scaled == midpoint and n % 2 == 1):
        n += 1
    s = str(n).rjust(digits + 1, "0")
    return f"{'-' if sign < 0 else ''}{s[:-digits]}.{s[-digits:]}"


def test_decimal_renderers_match_their_fraction_forms():
    rng = fresh_rng("renderers")
    ties = root_ties = rounded = 0
    for digits in (1, 2, 3, 12, 40, 300):
        for _ in range(200):
            den = rng.choice([1, 2, 3, 4, 5, 7, 8, 10, 16, 125]) * 10 ** rng.randint(0, digits + 1)
            bound = 10**40 if rng.random() < 0.2 else 999
            x = Q(rng.randint(-bound, bound), den)
            # exact ties: an odd number of half units in the last place
            tie = Q(2 * rng.randint(-(10**6), 10**6) + 1, 2 * 10**digits)
            for value in (x, tie, int(x)):
                expected = dec_str_by_fractions(value, digits)
                assert dec_str(value, digits) == expected, (value, digits)
            ties += dec_str(tie, digits) != dec_str(tie - Q(1, 2 * 10**digits), digits)
            # squares just below, at and just past the rounding threshold of n, the
            # square of the root's midpoint n + 1/2
            n = rng.randint(0, 10**6)
            edge = Q((2 * n + 1) ** 2, 4 * 10 ** (2 * digits))
            eps = Q(1, 10 ** (2 * digits + 3))
            for square in (abs(x), edge - eps, edge, edge + eps, abs(int(x))):
                for sign in (1, -1):
                    got = sqrt_dec_str(sign, square, digits)
                    assert got == sqrt_dec_str_by_fractions(sign, square, digits), (square, digits)
            root_ties += sqrt_dec_str(1, edge, digits) != sqrt_dec_str(1, edge - eps, digits)
            rounded += sqrt_dec_str(1, edge + eps, digits) != sqrt_dec_str(1, edge - eps, digits)
    # half ties round to even, so both ways, roots too; past the threshold a root rounds up
    assert 0 < ties < 1200 and 0 < root_ties < 1200 and rounded == 1200
    assert [dec_str(Q(k, 4), 1) for k in (1, 3, -1, -3)] == ["0.2", "0.8", "-0.2", "-0.8"]
    assert sqrt_dec_str(-1, Q(2), 1) == "-1.4" and sqrt_dec_str(1, Q(9, 4), 1) == "1.5"
    # a tie at odd n rounds up, as `dec_str` does; sqrt(1/375) = 0.0516 is past 0.05
    assert sqrt_dec_str(1, Q(9, 400), 1) == dec_str(Q(3, 20), 1) == "0.2"
    assert sqrt_dec_str(1, Q(1, 375), 1) == "0.1" and sqrt_dec_str(1, Q(1, 400), 1) == "0.0"


@pytest.mark.parametrize("flag", ["--out", "--dump"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, flag):
    path = write_doc(tmp_path, "p2.json", P2_DOC)
    target = str(tmp_path / "missing" / "x")
    argv = ["oracle", path, "--v", "1,0", "--mmax", "6", flag, target]
    if flag == "--out":
        argv = ["destabilize", path, "--out", target]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"cannot write {flag} {target}" in err
    assert "Traceback" not in err


def test_certificate_failure_exits_three(tmp_path, capsys, monkeypatch):
    import toricstab.optimizer as opt

    def boom(ctx):
        raise CertificateError("synthetic failure")

    monkeypatch.setattr(opt, "optimal_destabilizer", boom)
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, _, err = run(capsys, "destabilize", path)
    assert code == 3
    assert "internal certificate failure" in err


def test_certificate_failure_names_the_input(tmp_path, capsys, monkeypatch):
    import toricstab.optimizer as opt

    real = opt._sigma1

    def one_ray_short(*view):
        sigma = real(*view)
        return sigma._replace(rays=sigma.rays[1:])

    monkeypatch.setattr(opt, "_sigma1", one_ray_short)
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, err = run(capsys, "destabilize", path)
    assert code == 3 and out == ""
    assert "internal certificate failure: p112: stage-1 witness rays differ" in err
    assert "Traceback" not in err


def test_barycenter_on_a_facet_exits_three(tmp_path, capsys, monkeypatch):
    import toricstab.optimizer as opt

    real = opt._view

    def on_facet(ctx):
        bb, offsets, z, s = real(ctx)
        facet = ctx.vpoly.facets[0]
        return next(u for i, u in enumerate(z) if facet.members >> i & 1), offsets, z, s

    monkeypatch.setattr(opt, "_view", on_facet)
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, err = run(capsys, "destabilize", path)
    assert code == 3 and out == ""
    assert err == "internal certificate failure: p112: barycenter not interior to P\n"


def test_context_certificate_failure_names_the_input(tmp_path, capsys, monkeypatch):
    import toricstab.stability as stability

    real, built = stability._moment_data, []

    def second_flat(p, z, r):
        # the second context's scaled vertices collapse to one point
        built.append(p)
        return real(p, [z[0]] * len(z) if len(built) == 2 else z, r)

    monkeypatch.setattr(stability, "_moment_data", second_flat)
    first = write_doc(tmp_path, "p112.json", P112_DOC)
    second = write_doc(tmp_path, "p113.json", P113_DOC)
    code, out, err = run(capsys, "stratify", first, second)
    assert code == 3 and out == ""
    assert err == (
        f"internal certificate failure: {second}: p113: "
        "moment_data: simplex 0x7 has zero volume\n"
    )


def test_lattice_certificate_failure_names_the_input(tmp_path, capsys, monkeypatch):
    import toricstab.lattice as lattice_mod

    scan = lattice_mod._dilate_sums

    def one_point_short(box, cons, m, axis, vi, interior=False):
        n, w, q = scan(box, cons, m, axis, vi, interior)
        return (n - 1, w, q) if m == 3 and not interior else (n, w, q)

    monkeypatch.setattr(lattice_mod, "_dilate_sums", one_point_short)
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, err = run(capsys, "oracle", path, "--v", "0,-1", "--mmax", "20")
    assert code == 3 and out == ""
    assert "internal certificate failure: p112: lattice series: differences of order" in err
    assert "Traceback" not in err


def test_lattice_interior_certificate_failure_names_the_input(tmp_path, capsys, monkeypatch):
    import toricstab.lattice as lattice_mod

    scan = lattice_mod._dilate_sums

    def one_square_off(box, cons, m, axis, vi, interior=False):
        n, w, q = scan(box, cons, m, axis, vi, interior)
        return (n, w, q + 1) if m == 2 and interior else (n, w, q)

    monkeypatch.setattr(lattice_mod, "_dilate_sums", one_square_off)
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    code, out, err = run(capsys, "oracle", path, "--v", "0,-1", "--mmax", "20")
    assert code == 3 and out == ""
    assert (
        "internal certificate failure: p112: lattice series: "
        "differences of order 5 of weight_sq_sum are not zero" in err
    )
    assert "Traceback" not in err


def test_no_command_imports_numpy(tmp_path):
    doc = write_doc(tmp_path, "p112.json", P112_DOC)
    point = write_doc(tmp_path, "point.json", TRIANGLE_POINT)
    script = f"""
import contextlib, io, sys
import toricstab, toricstab.cli
commands = [
    ["report", "--corpus"],
    ["destabilize", "--corpus"],
    ["stratify", "--corpus"],
    ["limits", {point!r}, "--v", "1,1"],
    ["oracle", {doc!r}, "--v", "0,-1", "--mmax", "6"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert toricstab.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules
"""
    src = str(Path(toricstab.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_no_command_imports_dataclasses(tmp_path):
    # -S keeps site packages from importing the module before toricstab does
    doc = write_doc(tmp_path, "p112.json", P112_DOC)
    point = write_doc(tmp_path, "point.json", TRIANGLE_POINT)
    src = str(Path(toricstab.__file__).parents[1])
    script = f"""
import contextlib, io, sys
sys.path.insert(0, {src!r})
import toricstab.cli
commands = [
    ["report", {doc!r}, "--v", "0,-1"],
    ["destabilize", "--corpus"],
    ["stratify", "--corpus"],
    ["oracle", {doc!r}, "--v", "0,-1", "--mmax", "6"],
    ["limits", {point!r}, "--v", "1,1"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert toricstab.cli.main(argv) == 0, argv
assert "dataclasses" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # one fresh `python -m toricstab` per command, so a module loaded by one
    # command cannot hide behind another; every child compiles what it loads,
    # so the source lines of those modules, with the package's __init__ and
    # __main__, are a ceiling that code drifting onto a command's path breaks
    doc = write_doc(tmp_path, "p112.json", P112_DOC)
    point = write_doc(tmp_path, "point.json", TRIANGLE_POINT)
    # a constraint document's hull is exactgeom's; a vertex document's is polytopes'
    corner = write_doc(tmp_path, "corner.json", CORNER_CONSTRAINTS_DOC)
    moment = write_doc(tmp_path, "moment.json", P1112_MOMENT_DOC)
    src = str(Path(toricstab.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    script = """
import contextlib, io, runpy, sys
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("toricstab", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
else:
    import toricstab
print(*sorted(m for m in sys.modules if m.startswith("toricstab.") and m != "toricstab.__main__"))
"""
    context = ["cli", "exactgeom", "moments", "stability"]
    report = [*context, "cli_report", "invariants"]
    expected = {
        (): ([], 44),
        ("report", doc, "--v", "0,-1"): (report, 1220),
        ("report", corner, "--v", "1,1,1"): (report, 1220),
        ("report", moment, "--v", "1,1,1"): ([*report, "polytopes"], 1326),
        # without --v, report evaluates no invariants
        ("report", "--corpus"): ([*context, "cli_report", "corpus"], 1210),
        ("destabilize", doc): ([*context, "optimizer"], 1391),
        ("destabilize", corner): ([*context, "optimizer"], 1391),
        ("destabilize", "--corpus"): ([*context, "corpus", "optimizer"], 1444),
        ("stratify", "--corpus"): ([*context, "corpus", "optimizer"], 1444),
        ("oracle", doc, "--v", "0,-1", "--mmax", "6"): (
            [*context, "cli_oracle", "lattice"], 1383
        ),
        ("limits", point, "--v", "1,1"): (
            ["cli", "cli_limits", "exactgeom", "limits", "polytopes"], 1173
        ),
    }
    package = Path(toricstab.__file__).parent
    for argv, (modules, ceiling) in expected.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == sorted(f"toricstab.{m}" for m in modules), argv
        files = ["__init__", *modules, *(["__main__"] if argv else [])]
        lines = sum(len((package / f"{m}.py").read_text().splitlines()) for m in files)
        assert lines <= ceiling, (argv, lines)


def test_module_entry_point(tmp_path):
    path = write_doc(tmp_path, "p112.json", P112_DOC)
    # the child imports the same toricstab as this process, however it was found
    src = str(Path(toricstab.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "toricstab", "destabilize", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delta"] == "3/4"
