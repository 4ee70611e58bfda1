"""Smoke test of the benchmark's check path: one small layer of each check
kind through `perfbench/workloads.py`'s `run_layer`, which reads
`SpectrumReport` fields and the `orthokernel verify` JSON.  The module is
imported by path; nothing under `perfbench/` is written."""

import json

import pytest

from conftest import perfbench_workloads


@pytest.fixture(scope="module")
def workloads():
    return perfbench_workloads()


@pytest.mark.parametrize("check", ["roundtrip", "spectrum", "transpose", "cli_verify"])
def test_check_kind_runs_ok(workloads, tmp_path, check):
    layer = workloads.conv(4, 8, 3, 2, check=check)
    cfg = tmp_path / "layer.json"
    cfg.write_text(json.dumps(layer.config(1)))
    rec = workloads.run_layer(layer, 1, cfg, tmp_path / "layer.okt")
    assert rec["reason"] is None
    assert rec["ok"] and rec["check"]["held"]
    assert len(rec["sha256"]) == 64
