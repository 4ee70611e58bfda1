"""Smoke test of the benchmark's check path: one small layer of each check
kind through `perfbench/workloads.py`'s `run_layer`, which reads
`SpectrumReport` fields and the `orthokernel verify` JSON, and two under
`perfbench/spans.py`'s tracer.  The modules are imported by path; nothing
under `perfbench/` is written."""

import inspect
import json

import pytest

import orthokernel
from conftest import perfbench_module


@pytest.fixture(scope="module")
def workloads():
    return perfbench_module("workloads")


@pytest.mark.parametrize("check", ["roundtrip", "spectrum", "transpose", "cli_verify"])
def test_check_kind_runs_ok(workloads, tmp_path, check):
    layer = workloads.conv(4, 8, 3, 2, check=check)
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps(layer.config(1)))
    rec = workloads.run_layer(layer, 1, cfg, tmp_path / "layer.okt")
    assert rec["reason"] is None
    assert rec["ok"] and rec["check"]["held"]
    assert len(rec["sha256"]) == 64


def test_tracer_sees_calls_inside_orthogonalize_module(workloads, tmp_path):
    # the package attribute is the module, so the tracer wraps its functions
    # where the module itself looks them up: `orthogonalize_stack` calls
    # `qr_mgs` there (the default scheme's SVD calls no function of it)
    assert inspect.ismodule(orthokernel.orthogonalize)
    spans = perfbench_module("spans")
    layer = workloads.conv(4, 8, 3, 2, check="roundtrip")
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps({**layer.config(1), "scheme": "qr_mgs"}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rec = workloads.run_layer(layer, 1, cfg, tmp_path / "layer.okt")
    finally:
        tracer.uninstall()
    assert rec["ok"]
    assert "orthogonalize.qr_mgs" in {sp.name for sp in tracer.spans}


def test_tracer_sees_one_fusion_per_grouped_layer(workloads, tmp_path):
    # a grouped branch-"d" layer fuses all its groups in one
    # `block_conv_fast` call, so the per-layer `blockconv.fuse_*` metrics
    # count the layer's one fusion, at the MACs of all groups
    spans = perfbench_module("spans")
    layer = workloads.conv(8, 16, 3, 2, groups=2)
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps(layer.config(1)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        rec = workloads.run_layer(layer, 1, cfg, tmp_path / "layer.okt")
    finally:
        tracer.uninstall()
    assert rec["ok"]
    fusions = [sp for sp in tracer.spans if sp.name == "construct.block_conv_fast"]
    assert len(fusions) == 1
    assert fusions[0].info["macs"] == 9216
