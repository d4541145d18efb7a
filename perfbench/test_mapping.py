"""Benchmark-side tests: the tracer sees calls through every binding, the
per-layer table matches BENCHMARK.json, and each traced workload calls
exactly the layers predicted for it (layers.PREDICTIONS).

    python3 -m pytest perfbench/test_mapping.py -q

The workload tests run each workload traced for one unit cycle (about two
minutes in all on a 2-core machine).
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_blas_threads()
run.import_program()

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from heartfields import acquisition, anatomy  # noqa: E402

IMPORTED_BINDINGS = [
    ("heartfields.acquisition", "label_points"),
    ("heartfields.inference", "seg_inputs"),
    ("heartfields.inference", "bce_loss"),
    ("heartfields.inference", "dice_loss"),
    ("heartfields.harness", "save_checkpoint"),
    ("heartfields.harness", "load_checkpoint"),
    ("heartfields.anatomy", "label_points"),
]


def test_tracer_patches_imported_names_and_restores_them():
    original = acquisition.label_points
    t = tracer.Tracer()
    with t.installed():
        bound = set(t.bindings())
        for binding in IMPORTED_BINDINGS:
            assert binding in bound
        assert acquisition.label_points.__wrapped__ is original
    assert acquisition.label_points is original


def test_calls_through_an_imported_name_are_nested_spans():
    topo = anatomy.build_template()
    mesh = anatomy.generate_shape(topo, anatomy.sample_params(0))
    plane = acquisition.standard_views(mesh)[0]
    t = tracer.Tracer(workloads.Workload(0, "").counters())
    with t.installed(), t.recording("test"):
        acquisition.slice_mesh(mesh, plane, density=8.0)
    by_layer = {s.layer: s for s in t.spans}
    outer, inner = by_layer["acquisition.slice_mesh"], by_layer["anatomy.label_points"]
    assert t.spans[inner.parent] is outer
    assert inner.counts["points"] > 0
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_per_layer_table_matches_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(layers.WORKLOADS)
    assert set(layers.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_traced_workload_matches_predictions(name, tmp_path):
    result = workloads.execute(name, seed=0, seconds=0, trace=True, work_dir=str(tmp_path))
    spans = result["tracer"].spans
    assert layers.check_predictions(spans, name) == []
    assert result["outcome"].failed == 0, result["outcome"].messages
    assert result["run_failures"] == []
    metrics = layers.per_layer_metrics(spans, result["traced_units"], {})
    for stage in layers.STAGES[name]:
        assert metrics[f"{stage}.coverage"]["value"] >= 0.9
