"""toricstab benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-corpus, ladder, lattice-oracle, limits-faces (see README.md
beside this file).  With --trace 0 the workload runs with tracing off and the
end-to-end metrics are reported; with --trace 1 one traced pass reports the
per-layer metrics and writes its spans to perfbench/out/.  Every metric is
printed by name with its unit, and the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The program measured
is the checkout's src/toricstab; without it the benchmark exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time

import harness
from harness import HERE, OUT, WORKLOADS, median, tail
from speed import REF_S, REF_START_S, Meter, start_probe

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MiB",
}
# set-up is measured this many times per run, in set-up-only processes
SETUPS = 9
# every process this run starts is killed once this many seconds have passed
BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def launch(args, mode: str, deadline: float):
    """Start a worker; return (seconds until it printed "ready", process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--refs", str(args.refs)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=harness.child_env(), cwd=harness.ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    proc.timer = timer
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise ChildFailed(f"{mode} process ended before set-up finished")
    return ready, proc


def finish(proc) -> str:
    """Rest of the child's stdout, after it has exited with code 0."""
    out = proc.stdout.read()
    proc.wait()
    proc.timer.cancel()
    proc.stdout.close()
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return out


def last_json(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ChildFailed("worker printed no result")
    return json.loads(lines[-1])


def timings(setups, samples, done):
    """setup_s, op_s.p50, op_s.tail and ops_per_s of one run's samples."""
    tail_s, tail_pct = tail(samples)
    return {
        "setup_s": median(setups),
        "op_s.p50": median(samples),
        "op_s.tail": tail_s,
        "ops_per_s": done / sum(samples),
    }, tail_pct


def end_to_end(args, deadline):
    # Set-ups are timed from this process and scaled by interpreter-start
    # probes taken here before and after each set-up-only process.
    meter = Meter(probe=start_probe, ref=REF_START_S)
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        ready, proc = launch(args, "setup", deadline)
        finish(proc)
        setups.append(meter.scale(ready))
        raw_setups.append(ready)
    _, proc = launch(args, "run", deadline)
    res = last_json(finish(proc))
    done = res["attempted"] - res["failed"]
    metrics, tail_pct = timings(setups, res["samples"], done)
    metrics.update(ok_ratio=done / res["attempted"], peak_rss_mb=res["peak_rss_kib"] / 1024)
    raw, _ = timings(raw_setups, res["raw_samples"], done)
    probes, starts = res["probes"], meter.probes
    notes = [
        f"op_s.tail is p{tail_pct:.1f} of {len(res['samples'])} operations in {res['passes']} passes",
        f"fail_ratio {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.6g}",
        "times are seconds at the reference speed; unscaled wall: "
        + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"speed probe median {median(probes) * 1e3:.4g} ms over {len(probes)} probes "
        f"(reference {REF_S * 1e3:.4g} ms), range {min(probes) * 1e3:.4g}-{max(probes) * 1e3:.4g} ms",
        f"interpreter start median {median(starts) * 1e3:.4g} ms over {len(starts)} probes "
        f"(reference {REF_START_S * 1e3:.4g} ms)",
    ]
    record = {"setup_samples": setups, "raw_setup_samples": raw_setups, "raw": raw,
              "start_probes": starts, **res}
    return metrics, END_TO_END, res, notes, record


def per_layer(args, deadline):
    from worker import PER_LAYER

    _, proc = launch(args, "trace", deadline)
    res = last_json(finish(proc))
    notes = [f"spans and per-operation rows written to {res['trace_file']}"]
    if args.workload == "ladder":
        for key, wall in (("coverage_by_op", "untraced"), ("self_coverage_by_op", "traced")):
            off = {k: v for k, v in res[key].items() if v is None or abs(v - 1) > 0.1}
            notes.append(f"layer self times within 10% of the {wall} wall on every entry"
                         if not off else f"layer self times off the {wall} wall by over 10% on {off}")
    return res["metrics"], PER_LAYER, res, notes, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="toricstab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small items (self-test)")
    parser.add_argument("--refs", default=str(harness.REFS), help="reference directory")
    args = parser.parse_args(argv)
    try:
        harness.require_program()
    except harness.NoProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, units, res, notes, record = measure(args, deadline)
    except (ChildFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for f in res["failures"]:
        print(f"failed: {f['item']}: {f['why']}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    with open(OUT / f"{kind}-{args.workload}-seed{args.seed}.summary.json", "w") as fh:
        json.dump({"args": vars(args), "metrics": metrics, "notes": notes, "record": record}, fh)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
