"""Self-test of the benchmark: one tiny layer per workload, traced and
untraced.  Checks that every metric of BENCHMARK.json is reported by name
with its unit and that failures carry a reason; asserts no timing.

    python3 -m pytest -q perfbench
"""

import json

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    run.setup_probe.setup(run.SRC, tmp_path_factory.mktemp("setup"))
    import workloads

    return workloads


def tiny_layers(workloads):
    conv = workloads.conv
    return {
        "resnet_wide": [conv(4, 8, 3, 2)],
        "grouped_mixed": [conv(8, 8, 3, groups=2)],
        "verify_dense": [workloads.Layer("grid", 4, 8, 2, 2, check="spectrum"),
                         conv(4, 4, 3, check="cli_verify")],
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_reported_with_its_unit(workloads, tmp_path, name, trace):
    layers = tiny_layers(workloads)[name]
    result = run.run_benchmark(name, 3, 0, bool(trace), tmp_path, layers=layers)

    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] == len(layers) * (1 + trace)
    assert result["failed"] == 0

    details = json.loads(next(tmp_path.glob(f"{name}-seed3-trace{trace}.json")).read_text())
    assert set(details["env"]) == {"python", "numpy", "blas", "blas_threads", "nproc", "seed"}
    assert details["env"]["seed"] == 3
    records = [r for p in details["passes"] for r in p["records"]]
    assert all(len(r["sha256"]) == 64 for r in records)
    if trace:
        assert set(details["computed"]) <= set(result["metrics"])
        assert details["spans"]


def test_failure_carries_step_layer_and_reason(workloads, tmp_path):
    # stride 2 > kernel 1: no orthogonal kernel exists, the CLI exits 3
    layers = [workloads.conv(4, 4, 1, 2), workloads.conv(4, 4, 3)]
    result = run.run_benchmark("resnet_wide", 0, 0, False, tmp_path, layers=layers)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, True)
    details = json.loads(next(tmp_path.glob("resnet_wide-seed0-trace0.json")).read_text())
    reason = details["failures"][0]
    assert reason["step"] == "build"
    assert reason["layer"] == "4-4-k1s2"
    assert reason["error"].startswith("exit 3: unsupported configuration")


def test_calibrated_time_is_rescaled_by_the_reference_samples():
    import speed

    meter = speed.SpeedMeter()
    meter.samples = [(float(t), 2 * speed.REF_S) for t in range(4)]  # half speed
    meter._fit()
    assert meter.calibrated(0.5, 2.5) == pytest.approx(1.0)
    assert meter.calibrated(-1.0, 5.0) == pytest.approx(3.0)  # constant beyond the ends


def test_meter_samples_on_its_timer_outside_its_clock():
    import time

    import speed

    with speed.SpeedMeter() as meter:
        wall0, clock0 = time.perf_counter(), meter.clock()
        while time.perf_counter() - wall0 < 4 * speed.PERIOD_S:
            pass
        wall, clock = time.perf_counter() - wall0, meter.clock() - clock0
    assert len(meter.samples) >= 4
    assert 0 < clock < wall
    assert meter.calibrated(clock0, clock0 + clock) > 0


def test_missing_library_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "resnet_wide", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_workloads_are_runnable(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
