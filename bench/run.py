"""numsem benchmark.

    python3 bench/run.py --workload {count,stats,figures,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the workload's operation runs in a closed loop
for about S seconds and the end-to-end metrics are reported.  With
``--trace 1`` the operation runs once untraced and once with spans around the
package's public functions, then the per-layer probes run; the per-layer
metrics are reported and the spans are written to ``.bench_out/``.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
See README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import measure

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 15  # fresh interpreters per run; setup_s is their median

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "semigroups_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Printed and saved beside the end-to-end metrics, but not in BENCHMARK.json:
# the unscaled times, the host-speed scale, the timed steps per operation
# (a change shows that the host speed is sampled differently), and
# fail_ratio (0 when correct).
REPORT_ONLY_UNITS = {
    "raw_wall_s": "s",
    "raw_cpu_s": "s",
    "raw_setup_s": "s",
    "host_speed": "ratio",
    "steps_per_op": "count",
    "fail_ratio": "ratio",
}

UNITS = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}

PER_LAYER_UNITS = {
    "tree.walk_ns_per_node": "ns",
    "tree.nodes": "count",
    "tree.iter_us_per_semigroup": "us",
    "tree.iter_first_yield_s": "s",
    "tree.parallel_speedup": "ratio",
    "tree.fanout_cpu_overhead_s": "s",
    "stats.add_leaf_us": "us",
    "stats.finalize_ms": "ms",
    "stats.merge_us": "us",
    "stats.from_dict_us": "us",
    "core.invariants_us": "us",
    "core.minimal_generators_us": "us",
    "core.pseudo_frobenius_us": "us",
    "core.semigroup_from_gaps_us": "us",
    **{
        f"verify.{name}_s": "s"
        for name in (
            "core-invariants", "kunz-roundtrip", "bijections", "e2-bounds",
            "t2-equality", "t2-bounds", "counting-m", "counting-e",
        )
    },
    "kunz.count_by_kunz_s": "s",
    "cli.cache_put_ms": "ms",
    "cli.cache_get_ms": "ms",
    "cli.cache_bytes": "bytes",
    "trace.overhead_s": "s",
}


def import_package():
    """Put the checkout's ``src/`` first on sys.path and import numsem from it.

    Returns an error message, or None.  An installed copy elsewhere does not
    count: the benchmark measures the source it was checked out with.
    """
    if not os.path.isfile(os.path.join(SRC, "numsem", "__init__.py")):
        return f"no package source at {os.path.relpath(SRC)}/numsem"
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import numsem

    if not os.path.abspath(numsem.__file__).startswith(SRC + os.sep):
        return f"numsem was imported from {numsem.__file__}, not from {SRC}"
    return None


def tail(samples):
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1), "value": sorted(samples)[n - 11]}


def setup_seconds():
    """Times of fresh interpreters importing numsem and its CLI, raw and scaled.

    The host-speed kernel runs before the first interpreter and after each one.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import numsem, numsem.cli; print(time.perf_counter() - t)"
    )
    raw, kernel = [], [measure.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True
        )
        raw.append(float(res.stdout))
        kernel.append(measure.kernel_seconds())
    return raw, [t * measure.scale(a, b) for t, a, b in zip(raw, kernel, kernel[1:])]


def run_metadata(seed):
    rev = None
    try:
        top_head = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        ).stdout.split()
    except OSError:  # no git: a plain source checkout
        top_head = []
    # Only the checkout's own repository, not one that happens to enclose it.
    if len(top_head) == 2 and os.path.realpath(top_head[0]) == os.path.realpath(ROOT):
        rev = top_head[1]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "numsem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_untraced(wl, seconds):
    """Closed loop: the next operation starts when the previous one ends.

    A new operation starts only while the median so far still fits in the
    remaining time, so a run lasts about ``seconds`` whatever the operation
    costs; there is always at least one.  A failed check is counted and the
    loop goes on.  Times are measured in steps with the host-speed kernel
    between them (see measure.py); the end-to-end times are the scaled ones.
    """
    meter = measure.Meter()
    walls, cpus, scaled_walls, scaled_cpus, failed = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        meter.begin()
        ok = _run_once(wl, meter.step)
        wall, cpu, scaled_wall, scaled_cpu = meter.end()
        walls.append(wall)
        cpus.append(cpu)
        scaled_walls.append(scaled_wall)
        scaled_cpus.append(scaled_cpu)
        failed += not ok
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    rss = measure.peak_rss_mb()  # before the set-up interpreters become children
    raw_setup, setup = setup_seconds()
    wall = statistics.median(scaled_walls)
    raw_wall = statistics.median(walls)
    values = {
        "wall_s": (wall, scaled_walls),
        "cpu_s": (statistics.median(scaled_cpus), scaled_cpus),
        "semigroups_per_s": (wl.semigroups / wall, walls),
        "peak_rss_mb": (rss, [rss]),
        "setup_s": (statistics.median(setup), setup),
        "raw_wall_s": (raw_wall, walls),
        "raw_cpu_s": (statistics.median(cpus), cpus),
        "raw_setup_s": (statistics.median(raw_setup), raw_setup),
        "host_speed": (statistics.median(meter.scales), meter.scales),
        "steps_per_op": (statistics.median(meter.steps), meter.steps),
        "fail_ratio": (failed / len(walls), walls),
    }
    report = {
        name: {
            "value": v,
            "unit": UNITS[name],
            "samples": len(s),
            "tail": tail(s) if name.endswith(("wall_s", "cpu_s")) else None,
        }
        for name, (v, s) in values.items()
    }
    rates = {
        "semigroups": wl.semigroups,
        "nodes": wl.nodes,
        "leaves": wl.leaves,
        "nodes_per_raw_s": wl.nodes / raw_wall if wl.nodes else None,
        "leaves_per_raw_s": wl.leaves / raw_wall if wl.leaves else None,
    }
    samples = {
        "wall_s": scaled_walls,
        "cpu_s": scaled_cpus,
        "raw_wall_s": walls,
        "raw_cpu_s": cpus,
        "kernel_s": meter.kernel,
    }
    return len(walls), failed, report, {"rates": rates, "samples": samples}


def _run_once(wl, step=None):
    """One operation; True when its output passed the check."""
    try:
        return wl.run(step)
    except Exception:
        traceback.print_exc()
        return False


def run_traced(wl, workload, size, seed):
    """One untraced and one traced operation, then every per-layer probe."""
    from probes import CheckFailed, run_probes
    from spans import Tracer
    from workloads import TRACE_TARGETS

    tr = Tracer()
    meter = measure.Meter()
    failed = 0
    walls = []  # scaled seconds, untraced then traced
    for traced in (False, True):
        meter.begin()
        if traced:
            tr.op = 1
            with tr.patched(TRACE_TARGETS), tr.span(f"op.{workload}"):
                ok = _run_once(wl)
            tr.op = None
        else:
            ok = _run_once(wl)
        walls.append(meter.end()[2])
        failed += not ok
    values = {"trace.overhead_s": walls[1] - walls[0]}
    try:
        values.update(run_probes(tr, size, seed, OUT))
    except CheckFailed:
        traceback.print_exc()
        failed += 1
    report = {
        name: {"value": values.get(name), "unit": unit, "samples": 1}
        for name, unit in PER_LAYER_UNITS.items()
    }
    if tr.missing:
        print("not traced (absent from the package): " + ", ".join(tr.missing))
    extra = {
        "untraced_wall_s": walls[0],
        "traced_wall_s": walls[1],
        "not_traced": tr.missing,
        "self_times": tr.self_times(),
    }
    return 3, failed, report, extra, tr


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns the result dict printed as the last line."""
    from workloads import SIZES, WORKLOADS

    size = SIZES["smoke" if smoke else "full"]
    os.makedirs(OUT, exist_ok=True)
    wl = WORKLOADS[workload](size, seed, OUT)
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    if trace:
        attempted, failed, report, extra, tr = run_traced(wl, workload, size, seed)
    else:
        attempted, failed, report, extra = run_untraced(wl, seconds)
    # After the measurement: the git child it starts must not count in peak_rss_mb.
    meta = dict(run_metadata(seed), workload=workload, seconds=seconds, trace=trace, smoke=smoke)
    if trace:
        tr.write(os.path.join(OUT, f"spans-{tag}.json"), meta)
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as fh:
        json.dump({"meta": meta, "metrics": report, **extra}, fh, indent=1)
    print("meta " + json.dumps(meta))
    for name, r in report.items():
        print(f"{name:32s} {r['value']!r:>24} {r['unit']:6s} n={r['samples']}")
    return {
        "correct": failed == 0 and all(r["value"] is not None for r in report.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": r["value"], "unit": r["unit"]}
            for name, r in report.items()
            if name not in REPORT_ONLY_UNITS
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("count", "stats", "figures", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    err = import_package()
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
