"""One benchmark process: set up a workload, then stop, time it, or trace it.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
        [--seconds S] [--tiny] [--refs DIR]

Set-up is import of toricstab, input generation from the seed and one
untimed warm-up operation; it ends with the line "ready" on stdout.  The
"run" mode then times the workload with tracing off, a closed loop with one
client, and the "trace" mode replays one pass with spans.  Either ends with
one JSON line on stdout.  run.py starts and times these processes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import harness
from harness import MIN_SAMPLES, OUT, REFS, WORKLOADS, median

# name -> unit of every per-layer metric.  Times are seconds per operation and
# counts are per operation, both averaged over the traced pass; errors are
# totals; units ending in ".computed" are derived from input sizes.
PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_toricstab_s": "s",
    "cli.main_s": "s",
    "cli.stdout_bytes": "bytes",
    "corpus.contexts_s": "s",
    "stability.context_from_rays_s": "s",
    "stability.invariants_s": "s",
    "exactgeom.dual_polytope_s": "s",
    "exactgeom.facets_from_vertices_s": "s",
    "exactgeom.triangulate_s": "s",
    "exactgeom.normal_fan_s": "s",
    "exactgeom.vpolytope_s": "s",
    "exactgeom.extreme_rays.hits": "count",
    "exactgeom.extreme_rays.misses": "count",
    "exactgeom.vertices": "count",
    "exactgeom.facets": "count",
    "exactgeom.simplices": "count",
    "exactgeom.facet_subsets": "count.computed",
    "exactgeom.facet_yield": "ratio.computed",
    "moments.moment_data_s": "s",
    "moments.lattice_series_s": "s",
    "moments.extrapolate_s": "s",
    "moments.lattice_rows": "count",
    "moments.lattice_points": "count",
    "moments.prefix_cells": "count.computed",
    "optimizer.minimize_mu1_s": "s",
    "optimizer.stage1_cones": "count",
    "optimizer.stage1_candidates": "count",
    "optimizer.stage1_yield": "ratio",
    "optimizer.build_sigma1_s": "s",
    "optimizer.minimize_mu2_on_cone_s": "s",
    "optimizer.sigma1_normals": "count",
    "optimizer.stage2_subsets": "count.computed",
    "optimizer.stage2_yield": "ratio.computed",
    "limits.weight_polytope_s": "s",
    "limits.normal_cone_of_face_s": "s",
    "limits.face_of_direction_s": "s",
    "limits.faces": "count",
    **{f"{layer}.errors": "count" for layer in harness.LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# ratio metric -> (numerator count, denominator count), summed over operations
YIELDS = {
    "exactgeom.facet_yield": ("exactgeom.facets", "exactgeom.facet_subsets"),
    "optimizer.stage1_yield": ("optimizer.stage1_witnesses", "optimizer.stage1_candidates"),
    "optimizer.stage2_yield": ("optimizer.stage2_optima", "optimizer.stage2_subsets"),
}

KEEP_FAILURES = 5
# an in-process operation is probed for machine speed this often while it runs
INNER_PROBE_EVERY_S = 0.25
TRACE_REPS_UNTIL_S = 45.0


def item_name(item) -> str:
    return getattr(item, "key", None) or getattr(item, "name")


def fresh_state():
    """Clear the extreme_rays cache and collect garbage left by earlier operations."""
    from workloads import extreme_rays

    extreme_rays.cache_clear()
    gc.collect()


def attempt(wl, item, meter=None):
    """(result, seconds, scaled seconds, failure text or None) of one untraced
    operation.  The meter (speed.Meter) gives seconds at the reference speed;
    without one the scaled seconds are the raw ones."""
    fresh_state()
    t0 = time.perf_counter()
    if meter:
        meter.start()
    try:
        result, exc = wl.run(item), None
    except Exception as e:
        result, exc = None, e
    dt, scaled = meter.stop() if meter else (time.perf_counter() - t0,) * 2
    if exc is not None:
        return None, dt, scaled, "".join(traceback.format_exception(exc, limit=3))
    if not wl.check(item, result):
        return result, dt, scaled, "differs from the reference"
    return result, dt, scaled, None


def timed(wl, items, seconds: float, cli: bool):
    """Whole passes over the items: as many as fit in `seconds` at the nominal
    pass time, at least one, and more until there are MIN_SAMPLES operations.

    The pass count comes from a constant, not from measured speed, so every
    run of a workload collects the same samples.  Samples are seconds at the
    reference speed (speed.py); the raw wall times are returned beside them."""
    from speed import REF_START_S, Meter, start_probe

    # a CLI operation is a fresh process, which follows an interpreter start
    meter = (Meter(probe=start_probe, ref=REF_START_S) if cli
             else Meter(every=INNER_PROBE_EVERY_S))
    samples, raw, failures = [], [], []
    failed = passes = 0
    planned = max(1, int(seconds // wl.pass_seconds))
    while passes < planned or len(samples) < MIN_SAMPLES:
        for item in items:
            _, dt, scaled, why = attempt(wl, item, meter)
            samples.append(scaled)
            raw.append(dt)
            if why:
                failed += 1
                if len(failures) < KEEP_FAILURES:
                    failures.append({"item": item_name(item), "why": why})
        passes += 1
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "samples": samples,
        "raw_samples": raw,
        "probes": meter.probes,
        "passes": passes,
        "attempted": len(samples),
        "failed": failed,
        "failures": failures,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
    }


def reps_for(seconds: float) -> int:
    # The machine's speed drifts by tens of percent between two runs of one
    # operation, so the untraced call and the traced replay run in adjacent
    # pairs, repeated, and the comparison is the median of the pairs' ratios.
    # Short operations repeat for about 0.3 s.  A repetition that would end
    # after TRACE_REPS_UNTIL_S of tracing is skipped, to keep the run in time.
    if seconds >= 2.5:
        return 2
    return min(25, max(5, math.ceil(0.3 / seconds)))


def per_name_median(dicts):
    return {k: median([d.get(k, 0.0) for d in dicts]) for k in sorted({k for d in dicts for k in d})}


def traced(wl, items):
    """One traced pass; returns the per-layer metrics and writes every span to a file."""
    from spans import Tracer, layer_of
    from workloads import extreme_rays

    tr = Tracer()
    rows, failures = [], []
    failed = 0
    start = time.perf_counter()
    items = list(dict.fromkeys(items))  # repeated items are traced once
    for op, item in enumerate(items):
        row = {"item": item_name(item), "reps": 0}
        try:
            lib, dt, _, why = attempt(wl, item)
            if why:
                raise RuntimeError(why)
            untraced, roots = [dt], []
            for rep in range(reps_for(dt)):
                if rep:
                    if time.perf_counter() - start + 2 * dt > TRACE_REPS_UNTIL_S:
                        break
                    untraced.append(attempt(wl, item)[1])
                fresh_state()
                with tr.span("op", op) as root:
                    replayed = wl.replay(tr, op, item)
                if replayed != lib:
                    raise RuntimeError("replayed calls differ from the library call")
                roots.append(root)
            info = extreme_rays.cache_info()
            with tr.span("probe", op) as probe_root:
                counts = wl.probe(tr, op, item, replayed)
        except Exception:
            failed += 1
            if len(failures) < KEEP_FAILURES:
                failures.append({"item": item_name(item), "why": traceback.format_exc(limit=3)})
            rows.append(row)
            continue
        startup = 0.0
        if wl.name == "cli-corpus":
            # a fresh process also pays interpreter start and imports before main()
            startup = tr.totals(tr.tree(probe_root["id"]))["cli.interpreter"]
            startup += counts["cli.import_toricstab_s"]
        selfs, totals, covered, walls = [], [], [], []
        for root in roots:
            tree = tr.tree(root["id"])
            layer_self = defaultdict(float)
            for name, s in tr.self_times(tree).items():
                if name != "op":
                    layer_self[layer_of(name)] += s
            selfs.append(layer_self)
            totals.append(tr.totals(tree))
            covered.append(sum(layer_self.values()) + startup)
            walls.append(tr.duration(root) + startup)
        row.update(
            reps=len(roots),
            untraced_s=median(untraced),
            traced_s=median(walls),
            covered_s=median(covered),
            layer_self_s=per_name_median(selfs),
            span_s={**per_name_median(totals), **tr.totals(tr.tree(probe_root["id"]))},
            counts={**counts, "exactgeom.extreme_rays.hits": info.hits,
                    "exactgeom.extreme_rays.misses": info.misses},
            coverage=median([c / u for c, u in zip(covered, untraced)]),
            # the same ratio against the traced run itself, free of run-to-run drift
            self_coverage=median([c / w for c, w in zip(covered, walls)]),
            overhead_ratio=median([w / u for w, u in zip(walls, untraced)]),
        )
        rows.append(row)
    metrics = aggregate(rows, tr)
    return rows, tr, metrics, failed, failures


def aggregate(rows, tr):
    done = [r for r in rows if r["reps"]]
    n = max(1, len(done))
    out = {name: 0.0 for name in PER_LAYER}
    totals = defaultdict(float)
    for r in done:
        for name, s in r["span_s"].items():
            totals[f"{name}_s"] += s
        for name, c in r["counts"].items():
            totals[name] += c
    for name in PER_LAYER:
        if name in totals and name not in YIELDS:
            out[name] = totals[name] / n
    for name, (num, den) in YIELDS.items():
        if totals[den]:
            out[name] = totals[num] / totals[den]
    for layer, count in tr.errors.items():
        if f"{layer}.errors" in out:
            out[f"{layer}.errors"] = float(count)
    # per-operation ratios, weighted by the operation's untraced wall
    wall = sum(r["untraced_s"] for r in done)
    if wall:
        for key in ("coverage", "overhead_ratio"):
            out[f"trace.{key}"] = sum(r[key] * r["untraced_s"] for r in done) / wall
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true", help="a few small items (self-test)")
    parser.add_argument("--refs", type=Path, default=REFS, help="reference directory")
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        import workloads

        wl = workloads.make(args.workload, args.refs, workdir / "docs")
        items = wl.items(args.seed, args.tiny)
        fresh_state()
        wl.run(wl.warmup(items))
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "run":
            result = timed(wl, items, args.seconds, cli=args.workload == "cli-corpus")
        else:
            rows, tr, metrics, failed, failures = traced(wl, items)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "ops": rows,
                           "spans": tr.spans}, fh, indent=1)
            result = {
                "attempted": len(rows),
                "failed": failed,
                "failures": failures,
                "metrics": metrics,
                "coverage_by_op": {r["item"]: r.get("coverage") for r in rows},
                "self_coverage_by_op": {r["item"]: r.get("self_coverage") for r in rows},
                "trace_file": str(path.relative_to(harness.ROOT)),
            }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
