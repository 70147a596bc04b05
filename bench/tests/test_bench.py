"""Tests of the benchmark itself, at tiny genera (``smoke`` sizes).

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import measure  # noqa: E402
import run  # noqa: E402

assert run.import_package() is None

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(workload, trace):
    res = run.run_workload(workload, seed=7, seconds=0.2, trace=trace, smoke=True)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_wrong_digest_fails_every_operation(monkeypatch):
    monkeypatch.setitem(workloads.AGGREGATE_SHA256, workloads.SIZES["smoke"]["stats"], "0" * 64)
    res = run.run_workload("stats", seed=7, seconds=0.2, trace=0, smoke=True)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1  # fail_ratio = 1


def test_figures_steps_after_each_genus():
    size = workloads.SIZES["smoke"]
    os.makedirs(run.OUT, exist_ok=True)
    wl = workloads.Figures(size, 7, run.OUT)
    meter = measure.Meter()
    meter.begin()
    assert wl.run(meter.step)
    meter.end()
    assert meter.steps == [size["figures"] + 1]  # one per genus, then the warm call


def test_peak_rss_without_workers_is_the_process_own():
    """No child is reaped before peak_rss_mb is read, in a fresh interpreter."""
    code = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import measure, run
assert run.import_package() is None
seen = []
read = measure.peak_rss_mb
def spy():
    seen.append((read(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
    return seen[-1][0]
measure.peak_rss_mb = spy
res = run.run_workload("count", seed=7, seconds=0.2, trace=0, smoke=True)
(peak, children), = seen
assert children == 0, children
assert peak == res["metrics"]["peak_rss_mb"]["value"]
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, BENCH], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    st = tr.self_times()
    outer, inner = tr.duration("outer"), tr.duration("inner")
    assert st["inner"]["self_s"] == pytest.approx(inner)
    assert st["outer"]["self_s"] == pytest.approx(outer - inner)
    assert tr.spans[1]["parent"] == tr.spans[0]["id"]


def test_patched_skips_and_lists_absent_targets():
    import types

    mod = types.ModuleType("numsem.fake")
    mod.f = orig = lambda: 1
    orig.__module__, orig.__name__ = "numsem.fake", "f"
    tr = Tracer()
    with tr.patched([(mod, "f"), (mod, "gone")]):
        assert mod.f() == 1
    assert tr.missing == ["fake.gone"]
    assert [s["name"] for s in tr.spans] == ["fake.f"]
    assert mod.f is orig and not hasattr(mod, "gone")
