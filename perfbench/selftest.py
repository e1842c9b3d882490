"""Quick self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Runs every workload on its tiny input list, untraced and traced, and checks
that each metric of BENCHMARK.json is reported with its unit and that no
operation fails; then checks that an altered reference value is caught as a
failure, and that the benchmark refuses to run without the program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from harness import HERE, OUT, REFS, ROOT, WORKLOADS

# workload -> (reference file, function altering the value the tiny list checks first)
ALTER = {
    "ladder": ("ladder", lambda r: r["p11m2"].update(delta="1/2")),
    "lattice-oracle": ("lattice", lambda r: r["p116 v=0,-1 mmax=2000"].update(F0_est="0")),
    "limits-faces": ("limits", lambda r: r["points"]["d3n7"].update(faces_sha256="0" * 64)),
    "cli-corpus": ("cli", lambda r: r["limits {readme-point} --v 1,1"].update(sha256="0" * 64)),
}


def bench(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(res, spec, label):
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want, f"{label}: metrics {got} != {want}"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(bench(workload, trace, "--tiny"))
            expect_metrics(res, spec[key], f"{workload} trace={trace}")
            assert res["failed"] == 0 and res["correct"], f"{workload} trace={trace}: {res}"
            print(f"ok   {workload} trace={trace}: {res['attempted']} operations, none failed")

    altered = OUT / "selftest-refs"
    shutil.rmtree(altered, ignore_errors=True)
    shutil.copytree(REFS, altered)
    try:
        for workload, (name, alter) in ALTER.items():
            path = altered / f"{name}.json"
            refs = json.loads(path.read_text())
            alter(refs)
            path.write_text(json.dumps(refs))
            res = result(bench(workload, 0, "--tiny", "--refs", str(altered)))
            assert res["failed"] > 0 and not res["correct"], f"{workload}: altered reference passed"
            print(f"ok   {workload}: altered reference gives fail_ratio "
                  f"{res['failed']}/{res['attempted']}")
    finally:
        shutil.rmtree(altered, ignore_errors=True)

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("ladder", 0, cwd=bare, script=bare / HERE.name / "run.py")
        assert proc.returncode != 0 and not proc.stdout.strip(), "ran without program sources"
        print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
