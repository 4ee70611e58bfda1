"""Span tracing of the library from the benchmark's side, and the
per-layer metrics computed from the spans.

`Tracer.install()` replaces every public function of every library module
at each module attribute the library looks it up through, so
``construct.block_conv_fast`` and ``blockconv.block_conv_fast`` are traced
as separate lookups.  Each call records a span: name, start, end and
parent span.  A span's self time is its duration minus its children's.
Spans stay in memory until the run writes them out.

A few functions get a hook that keeps what the metrics need from their
arguments or result (shapes for operation counts, the returned factor for
its residual); the work on kept results is done after the pass, outside
the timed spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from dataclasses import dataclass, field

import numpy as np

from orthokernel import blockconv, cli, construct, kernel_io, orthogonalize, tensor_core, verify

MODULES = {"tensor_core": tensor_core, "kernel_io": kernel_io, "blockconv": blockconv,
           "orthogonalize": orthogonalize, "construct": construct, "verify": verify,
           "cli": cli}

#: unit and direction of every per-layer metric; "computed" ones come from
#: shapes, not from a counter or clock
PER_LAYER = {
    "blockconv.fuse_s": ("s", "lower"),
    "blockconv.fuse_calls": ("count", "lower"),
    "blockconv.scan_s": ("s", "lower"),
    "blockconv.scan_calls": ("count", "lower"),
    "blockconv.fuse_gmac": ("GMAC", "lower"),
    "blockconv.fuse_gmac_per_s": ("GMAC/s", "higher"),
    "construct.aoc_kernel_s": ("s", "lower"),
    "construct.aoc_kernel_self_s": ("s", "lower"),
    "construct.branch_a": ("count", "lower"),
    "construct.branch_b": ("count", "lower"),
    "construct.branch_c": ("count", "lower"),
    "construct.branch_d": ("count", "lower"),
    "construct.probe_s": ("s", "lower"),
    "construct.probe_calls": ("count", "lower"),
    "construct.probe_hit_ratio": ("ratio", "higher"),
    "orthogonalize.s": ("s", "lower"),
    "orthogonalize.calls": ("count", "lower"),
    "orthogonalize.max_residual": ("abs", "lower"),
    "orthogonalize.unconverged": ("count", "lower"),
    "tensor_core.conv2d_ref_s": ("s", "lower"),
    "tensor_core.conv2d_ref_calls": ("count", "lower"),
    "tensor_core.conv2d_transpose_ref_s": ("s", "lower"),
    "verify.check_s": ("s", "lower"),
    "verify.toeplitz_s": ("s", "lower"),
    "verify.svd_s": ("s", "lower"),
    "verify.check_self_s": ("s", "lower"),
    "verify.operator_entries": ("count", "lower"),
    "verify.svd_gflop": ("GFLOP", "lower"),
    "verify.svd_gflop_per_s": ("GFLOP/s", "higher"),
    "verify.roundtrip_s": ("s", "lower"),
    "kernel_io.write_s": ("s", "lower"),
    "kernel_io.read_s": ("s", "lower"),
    "kernel_io.bytes": ("B", "lower"),
    "kernel_io.write_mb_per_s": ("MB/s", "higher"),
    "cli.build_calls": ("count", "lower"),
    "cli.verify_calls": ("count", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "cli.uncaught": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "run.wall_s": ("s", "lower"),
    "run.build_s": ("s", "lower"),
    "run.check_s": ("s", "lower"),
    "run.ref_s": ("s", "lower"),
    "run.fail_frac": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

COMPUTED = ("blockconv.fuse_gmac", "blockconv.fuse_gmac_per_s",
            "verify.operator_entries", "verify.svd_gflop", "verify.svd_gflop_per_s")

# Björck factors with a Gram residual above this have not converged.
RESIDUAL_LIMIT = 1e-10


@dataclass
class Span:
    name: str          # lookup, e.g. "construct.block_conv_fast"
    func: str          # function name, e.g. "block_conv_fast"
    parent: int        # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    error: str | None = None
    child_s: float = 0.0   # summed duration of the direct children
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _fuse_macs(args, kwargs, result, info):
    # einsum "gomuv,gmnIJuv->gonIJ" over the zero-padded operand
    B, A = args[0], args[1]
    co, cm_pg, l1, l2 = B.data.shape
    _, ci, k1, k2 = A.data.shape
    info["macs"] = co * cm_pg * l1 * l2 * ci * (k1 + l1 - 1) * (k2 + l2 - 1)


def _keep_result(args, kwargs, result, info):
    info["result"] = result


def _operator_entries(args, kwargs, result, info):
    m, n = result.shape
    info["entries"] = m * n


def _svd_flops(args, kwargs, result, info):
    # singular values only: Golub-Kahan bidiagonalization, 4mn^2 - 4n^3/3
    m, n = np.shape(args[0])
    m, n = max(m, n), min(m, n)
    info["flops"] = 4 * m * n * n - 4 * n ** 3 / 3


def _written_bytes(args, kwargs, result, info):
    info["bytes"] = os.path.getsize(args[0])


def _cli_command(args, kwargs, result, info):
    argv = args[0] if args else kwargs.get("argv")
    info["command"] = argv[0] if argv else None
    info["rc"] = result


#: by function name, whatever module it is looked up through
HOOKS = {
    "block_conv_fast": _fuse_macs,
    "orthogonalize": _keep_result,
    "aoc_kernel": _keep_result,
    "check_orthogonality": _keep_result,
    "toeplitz_from_kernel": _operator_entries,
    "toeplitz_of_transpose": _operator_entries,
    "singular_values": _svd_flops,
    "write_kernel": _written_bytes,
    "main": _cli_command,
}


class Tracer:
    """Records spans of library calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if hook is not None:
                hook(args, kwargs, result, span.info)
            return result

        return traced

    def install(self):
        for mod_name, mod in MODULES.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("orthokernel")):
                    continue
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    @contextlib.contextmanager
    def step(self, step: str, layer: str):
        """Root span around one benchmark step; the spans of one operation
        share its layer name."""
        span = self._open(f"bench.{step}", step)
        span.info["layer"] = layer
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str, func: str) -> Span:
        span = Span(name, func, self._stack[-1] if self._stack else -1, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.dur

    def reset(self):
        self.spans.clear()
        self._stack.clear()


def _gram_residual(O) -> float:
    O = np.asarray(O)
    G = O @ O.T if O.shape[0] <= O.shape[1] else O.T @ O
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def layer_metrics(spans: list[Span], records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_s)."""

    def of(*funcs):
        return [sp for sp in spans if sp.func in funcs]

    def dur(group):
        return sum(sp.dur for sp in group)

    def info(group, key):
        return sum(sp.info.get(key, 0) for sp in group)

    m: dict[str, float] = {}
    fuse, scan = of("block_conv_fast"), of("scan_compose")
    m["blockconv.fuse_s"] = dur(fuse)
    m["blockconv.fuse_calls"] = len(fuse)
    m["blockconv.scan_s"] = dur(scan)
    m["blockconv.scan_calls"] = len(scan)
    m["blockconv.fuse_gmac"] = info(fuse, "macs") / 1e9
    m["blockconv.fuse_gmac_per_s"] = _rate(m["blockconv.fuse_gmac"], m["blockconv.fuse_s"])

    aoc = of("aoc_kernel")
    m["construct.aoc_kernel_s"] = dur(aoc)
    m["construct.aoc_kernel_self_s"] = sum(sp.self_s for sp in aoc)
    branches = [sp.info["result"][1].branch for sp in aoc if "result" in sp.info]
    for b in "abcd":
        m[f"construct.branch_{b}"] = branches.count(b)
    aoc_index = {i for i, sp in enumerate(spans) if sp.func == "aoc_kernel"}
    checks = of("check_orthogonality")
    probes = [sp for sp in checks if sp.parent in aoc_index]
    hits = [sp for sp in probes if "result" in sp.info and sp.info["result"].passed]
    m["construct.probe_s"] = dur(probes)
    m["construct.probe_calls"] = len(probes)
    m["construct.probe_hit_ratio"] = len(hits) / len(probes) if probes else 0.0

    orth = of("orthogonalize")
    residuals = [_gram_residual(sp.info["result"]) for sp in orth if "result" in sp.info]
    m["orthogonalize.s"] = dur(orth)
    m["orthogonalize.calls"] = len(orth)
    m["orthogonalize.max_residual"] = max(residuals, default=0.0)
    m["orthogonalize.unconverged"] = sum(1 for r in residuals if r > RESIDUAL_LIMIT)

    conv = of("conv2d_ref")
    m["tensor_core.conv2d_ref_s"] = dur(conv)
    m["tensor_core.conv2d_ref_calls"] = len(conv)
    m["tensor_core.conv2d_transpose_ref_s"] = dur(of("conv2d_transpose_ref"))

    toeplitz, svd = of("toeplitz_from_kernel", "toeplitz_of_transpose"), of("singular_values")
    m["verify.check_s"] = dur(checks)
    m["verify.check_self_s"] = sum(sp.self_s for sp in checks)
    m["verify.toeplitz_s"] = dur(toeplitz)
    m["verify.operator_entries"] = info(toeplitz, "entries")
    m["verify.svd_s"] = dur(svd)
    m["verify.svd_gflop"] = info(svd, "flops") / 1e9
    m["verify.svd_gflop_per_s"] = _rate(m["verify.svd_gflop"], m["verify.svd_s"])
    m["verify.roundtrip_s"] = dur(of("roundtrip_check"))

    writes = of("write_kernel")
    m["kernel_io.write_s"] = dur(writes)
    m["kernel_io.read_s"] = dur(of("read_kernel"))
    m["kernel_io.bytes"] = info(writes, "bytes")
    m["kernel_io.write_mb_per_s"] = _rate(m["kernel_io.bytes"] / 1e6, m["kernel_io.write_s"])

    mains = [sp for sp in spans if sp.name == "cli.main"]
    m["cli.build_calls"] = sum(1 for sp in mains if sp.info.get("command") == "build")
    m["cli.verify_calls"] = sum(1 for sp in mains if sp.info.get("command") == "verify")
    m["cli.exit_nonzero"] = sum(1 for sp in mains if sp.info.get("rc") not in (None, 0))
    m["cli.uncaught"] = sum(1 for sp in mains if sp.error is not None)
    m["cli.self_s"] = sum(sp.self_s for sp in spans if sp.name.startswith("cli."))

    m["run.fail_frac"] = sum(1 for r in records if not r["ok"]) / len(records)
    return m


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def span_rows(spans: list[Span]) -> list[list]:
    """Compact rows [name, parent, start, end, error] for the results file."""
    t0 = spans[0].start if spans else 0.0
    return [[sp.name, sp.parent, round(sp.start - t0, 7), round(sp.end - t0, 7), sp.error]
            for sp in spans]
