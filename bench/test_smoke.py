"""Smoke test of the benchmark itself at a tiny scale.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Every workload runs once untraced and once traced on one set-up of ten
small models with a 64-centroid codebook.  The test checks that
every metric is emitted with a unit, that ops succeed, and that the spans
are well formed: self times are non-negative and a span's children never
cover more than the span.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Scale(components=(1, 2), setups=tuple((w, 1) for w in workloads.WORKLOADS),
                       codebook_size=64)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_benchmark_json_names_known_workloads_and_every_metric():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert END_TO_END == workloads.END_TO_END_UNITS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    res = workloads.run_workload(name, seed=3, seconds=0.0, trace=False, scale=TINY)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    printed = {line.split()[0] for line in res["lines"] if not line.startswith("#")}
    named = {"setup_s", "peak_rss_mb", "train_codebook_s", *workloads.ALIASES[name].values()}
    assert named <= printed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_with_sound_spans(name, tmp_path):
    path = tmp_path / "trace.json"
    res = workloads.run_workload(name, seed=3, seconds=0.0, trace=True, scale=TINY,
                                 trace_path=str(path))
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == PER_LAYER
    tracer = res["tracer"]
    assert tracer.spans and tracing.check_spans(tracer.spans) == []
    assert all(s.self_time >= 0.0 for s in tracer.spans)
    assert res["metrics"]["trace.coverage_frac"]["value"] >= 0.9
    doc = json.loads(path.read_text())
    assert {"name", "start", "end", "parent", "op"} <= set(doc["spans"][0])
    for s in doc["spans"]:
        if s["parent"] >= 0:
            parent = doc["spans"][s["parent"]]
            assert parent["op"] == s["op"]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]


def test_tracer_restores_the_package():
    import brepcodec.reconstruct as _  # noqa: F401
    fit_face = sys.modules["brepcodec.reconstruct"].fit_face
    workloads.run_workload("roundtrip", seed=3, seconds=0.0, trace=True, scale=TINY)
    assert sys.modules["brepcodec.reconstruct"].fit_face is fit_face


def test_check_spans_flags_children_longer_than_their_parent():
    parent = tracing.Span(id=0, op=0, name="a.f", parent=-1, start=0.0, end=1.0)
    child = tracing.Span(id=1, op=0, name="b.g", parent=0, start=0.0, end=2.0)
    assert tracing.check_spans([parent, child])


def test_launcher_without_sources_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "workloads.py", "tracing.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "roundtrip",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout.strip() == ""
