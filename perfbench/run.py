"""Build -> verify benchmark of orthokernel on network-shaped layers.

    python3 perfbench/run.py --workload resnet_wide --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
Each workload (see ``workloads.py``) is a fixed list of conv layers run as
a single-process closed loop, one operation per layer: build through the
CLI, read back, check.  A run makes whole passes over the list until at
least ``--seconds`` have been spent in passes (at least one pass).

--trace 0 reports the end-to-end metrics, measured untraced.  Times are
at reference speed (see ``speed.py``): the machine's speed is sampled on a
timer by a fixed reference loop while the passes run, and each step's
time is rescaled by it, because on a shared vCPU wall time drifts by up to
1.5x between runs.
  setup_s      median set-up time (numpy + library import, one tiny build)
               over this process and SETUP_SAMPLES - 1 fresh processes,
               each rescaled by a reference-loop time taken right after it
  wall_cal_s   median time of one full pass
  build_cal_s  median per-pass total of the build steps
  check_cal_s  median per-pass total of the check steps
  peak_rss_mb  peak resident memory of this process
--trace 1 makes untraced passes, then the same number of seconds of traced
passes, and reports the per-layer metrics of ``spans.PER_LAYER`` (medians
over traced passes) with trace.overhead_s, the traced minus the untraced
median pass time, and the untraced wall times as measured: run.wall_s,
run.build_s and run.check_s (median per-pass totals) and run.ref_s (the
median reference-loop sample).

Every operation is printed with its timings and the sha256 of the written
kernel file; the full results, environment and spans go to
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import setup_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9

WORKLOADS = ("resnet_wide", "grouped_mixed", "verify_dense")
END_TO_END = {"setup_s": "s", "wall_cal_s": "s", "build_cal_s": "s", "check_cal_s": "s",
              "peak_rss_mb": "MB"}


def pin_blas_threads() -> int:
    """Run BLAS on one thread (at most nproc); must run before numpy is
    imported.  On a 2-vCPU VM two OpenBLAS threads made a 600x600 SVD
    slower (82 ms vs 75 ms median) and more variable.  Returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    threads = _openblas_threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": vendor,
            "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": nproc, "seed": seed}


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (none below 11 samples), and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    tail = None
    if n >= 11:
        tail = {"p": 100 * (n - 10) // n, "value": xs[n - 11]}
    return {"n": n, "median": statistics.median(xs), "tail": tail}


def sample_setup(work: Path) -> list[tuple[float, float]]:
    """(set-up time, reference-loop time) of SETUP_SAMPLES - 1 fresh
    processes."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(work)],
                              capture_output=True, text=True, timeout=120, check=True)
        setup_s, ref_s = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup_s), float(ref_s)))
    return samples


def run_passes(op, layers, seconds: float, label: str, after_pass=None,
               clock=time.perf_counter) -> list[dict]:
    """Whole passes of ``op(layer, clock)`` over the layers until
    `seconds` of pass time are spent (at least one pass).  Every record
    also gets the operation's start and end readings of `clock` as
    ``t["op"]`` and its duration as op_s; a pass's wall_s is the sum of
    its op_s."""
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < seconds:
        records = []
        for layer in layers:
            t0 = clock()
            r = op(layer, clock)
            r["t"]["op"] = (t0, clock())
            r["op_s"] = r["t"]["op"][1] - t0
            records.append(r)
        passes.append({"wall_s": sum(r["op_s"] for r in records), "records": records})
        for r in records:
            t = " ".join(f"{k} {r[k]:.4f}s" for k in ("build_s", "read_s", "check_s")
                         if r[k] is not None)
            status = "ok" if r["ok"] else f"FAILED {r['reason']}"
            print(f"{label} pass {len(passes)} {r['layer']}: {t} sha256 {r['sha256']} {status}")
        if after_pass is not None:
            after_pass(passes[-1])
    return passes


def _pass_totals(passes, key):
    return [sum(r[key] for r in p["records"] if r.get(key) is not None) for p in passes]


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            layers=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details for the results file).

    The library must already be importable (see `setup_probe.setup`)."""
    import spans
    import speed
    import workloads

    layers = workloads.WORKLOADS[workload]() if layers is None else layers
    files = {}
    for i, layer in enumerate(layers):
        cfg = work / f"{i:03d}.json"
        cfg.write_text(json.dumps(layer.config(seed)))
        files[layer.name] = (cfg, work / f"{i:03d}.okt")

    def op(layer, clock):
        return workloads.run_layer(layer, seed, *files[layer.name], clock=clock)

    with speed.SpeedMeter() as meter:
        untraced = run_passes(op, layers, seconds, workload, clock=meter.clock)
    meter.calibrate([r for p in untraced for r in p["records"]])
    details = {"workload": workload, "passes": untraced, "ref_samples": meter.samples}
    walls = [p["wall_s"] for p in untraced]
    builds, checks = _pass_totals(untraced, "build_s"), _pass_totals(untraced, "check_s")
    series = {"wall_s": walls, "build_s": builds, "check_s": checks,
              "wall_cal_s": _pass_totals(untraced, "op_s_cal"),
              "build_cal_s": _pass_totals(untraced, "build_s_cal"),
              "check_cal_s": _pass_totals(untraced, "check_s_cal"),
              "ref_s": [s for _, s in meter.samples]}
    details["summaries"] = {name: summarize(xs) for name, xs in series.items()}
    if not trace:
        values = {name: statistics.median(series[name])
                  for name in ("wall_cal_s", "build_cal_s", "check_cal_s")}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
        all_passes = untraced
    else:
        tracer = spans.Tracer()
        per_pass, last_spans = [], []

        def collect(p):
            per_pass.append(spans.layer_metrics(tracer.spans, p["records"]))
            last_spans[:] = spans.span_rows(tracer.spans)
            tracer.reset()

        tracer.install()
        try:
            traced = run_passes(
                lambda layer, clock: workloads.run_layer(layer, seed, *files[layer.name],
                                                         tracer.step, clock),
                layers, seconds, workload + " traced", after_pass=collect)
        finally:
            tracer.uninstall()
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(walls))
        for name in ("wall_s", "build_s", "check_s", "ref_s"):
            values[f"run.{name}"] = statistics.median(series[name])
        details.update(traced_passes=traced, computed=list(spans.COMPUTED), spans=last_spans)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        all_passes = untraced + traced

    records = [r for p in all_passes for r in p["records"]]
    failed = [r for r in records if not r["ok"]]
    details["fail_frac"] = len(failed) / len(records)
    distinct = sorted({json.dumps(r["reason"], sort_keys=True) for r in failed})
    details["failures"] = [json.loads(reason) for reason in distinct]
    result = {
        "correct": all(r["check"] is None or r["check"]["held"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    return result, details


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, out: Path,
                  layers=None) -> dict:
    """Set up, measure one workload, write the results file into `out`;
    returns the result line.  `layers` replaces the workload's list."""
    nproc = pin_blas_threads()
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        setup_s = setup_probe.setup(SRC, work)
        import speed  # after set-up: it imports numpy

        setup_samples = [(setup_s, speed.reference_time())]
        if not trace:
            setup_samples += sample_setup(work)
        result, details = measure(workload, seed, seconds, trace, work, layers)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not trace:
        setup_cal = [t * speed.REF_S / ref for t, ref in setup_samples]
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_cal), "unit": "s"}
        details["summaries"]["setup_s"] = summarize(setup_cal)
        details["summaries"]["setup_raw_s"] = summarize([t for t, _ in setup_samples])
    details.update(env=environment(seed, nproc), result=result)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (out / name).write_text(json.dumps(details, indent=1, default=str))
    for reason in details["failures"]:
        print(f"failure: {json.dumps(reason, sort_keys=True)}")
    print(f"env: {json.dumps(details['env'], sort_keys=True)}")
    print(f"fail_frac {details['fail_frac']:.6f}; details in {out / name}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (SRC / "orthokernel" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'orthokernel'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
