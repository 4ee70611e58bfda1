"""Workloads of the build -> read back -> check benchmark.

A workload is a fixed list of conv layers.  Each layer is one operation
of three steps, run in a single-process closed loop (the next layer starts
when the previous one has finished):

1. build: ``cli.main(["build", cfg, out])`` in-process, so the CLI and the
   okt-v1 writer are timed with the construction;
2. read back: ``kernel_io.read_kernel(out)``;
3. check: an independent correctness check of the read-back kernel.

An operation fails when a step raises, when the CLI exits nonzero, or when
the check does not hold.  Every library call goes through a module
attribute (``cli.main``, ``verify.roundtrip_check``, ...) so that the
tracer in ``spans.py`` sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from orthokernel import cli, kernel_io, verify
from orthokernel.tensor_core import ConvSpec

ROUNDTRIP_TOL = 1e-4


@dataclass(frozen=True)
class Layer:
    """One conv layer and the check applied to its built kernel.

    check is one of
      "roundtrip":  matrix-free adjoint round trip, row or column side by shape
      "spectrum":   dense impulse-response spectrum (`check_orthogonality`)
      "transpose":  the verification grid's transposed-operator check
      "cli_verify": ``orthokernel verify`` through ``cli.main`` at 8x8
    """

    name: str
    c_in: int
    c_out: int
    kernel: int
    stride: int = 1
    groups: int = 1
    dilation: int = 1
    check: str = "roundtrip"

    def config(self, seed: int) -> dict:
        return {"c_in": self.c_in, "c_out": self.c_out, "kernel": self.kernel,
                "stride": self.stride, "groups": self.groups,
                "dilation": self.dilation, "seed": seed}

    def spec(self) -> ConvSpec:
        return ConvSpec(c_in=self.c_in, c_out=self.c_out, k_h=self.kernel,
                        k_w=self.kernel, stride=self.stride, groups=self.groups,
                        dilation=self.dilation)

    def direction(self) -> str:
        """Orthogonal side of the strided operator, from its shape."""
        s = self.stride
        return "row" if self.c_out <= self.c_in * s * s else "column"

    def image_side(self) -> int:
        # the verification grid's rule: 8x8 unless the stride does not divide 8
        return 8 if 8 % self.stride == 0 else 12


def conv(c_in, c_out, kernel, stride=1, groups=1, dilation=1, check="roundtrip") -> Layer:
    name = f"{c_in}-{c_out}-k{kernel}s{stride}"
    if groups > 1:
        name += f"g{groups}"
    if dilation > 1:
        name += f"d{dilation}"
    return Layer(name, c_in, c_out, kernel, stride, groups, dilation, check)


# ResNet-shaped ungrouped stack.  Most time goes to block_conv_fast fusion at
# real widths and to construct's branch-"c" probe.  128->256 k3 s2 dies in the
# probe with an entry-budget ValueError at the parent commit; it stays in the
# list and counts as a failure so the defect shows.
RESNET_WIDE = [
    conv(3, 16, 3), conv(16, 16, 3), conv(32, 32, 3), conv(64, 64, 3), conv(128, 128, 3),
    conv(16, 32, 3, 2), conv(32, 64, 3, 2), conv(64, 128, 3, 2), conv(128, 256, 3, 2),
    conv(16, 32, 2, 2), conv(32, 64, 2, 2), conv(64, 128, 2, 2), conv(128, 256, 2, 2),
    conv(256, 256, 1),
]

# ResNeXt/MobileNet-style layers: the same construct/blockconv/orthogonalize
# code as resnet_wide, but as many small per-group fusions and
# orthogonalizations, which exposes per-call and per-group loop overhead.
# Runnable, but not listed in BENCHMARK.json: a steady run (two passes) does
# not fit the time budget next to the other two workloads.
GROUPED_MIXED = [
    conv(512, 512, 3, groups=32), conv(512, 512, 3, groups=128), conv(256, 256, 3, groups=16),
    conv(256, 256, 3, 2, groups=8), conv(256, 512, 3, 2, groups=16),
    conv(512, 512, 2, 2, groups=512), conv(384, 384, 3, 3, groups=384),
    conv(128, 128, 5, groups=8),
    conv(64, 64, 3, dilation=2), conv(96, 96, 3, dilation=3),
    conv(48, 48, 5, 3),
    conv(128, 128, 2),
]


def _verify_dense() -> list[Layer]:
    # Time goes to verify and tensor_core (impulse responses, SVD, Gram
    # residual); builds are tiny, so a build-only change should leave this
    # workload unchanged.
    grid = [Layer(e.key().replace("/", "."), e.c_in, e.c_out, e.kernel, e.stride,
                  e.groups, e.dilation,
                  "spectrum" if e.check == "spectrum" else "transpose")
            for e in verify.grid_entries()]
    edge = [conv(32, 32, 3, check="cli_verify"), conv(32, 64, 3, 2, check="cli_verify"),
            conv(64, 32, 3, 2, check="cli_verify")]
    return grid + edge


WORKLOADS = {
    "resnet_wide": lambda: RESNET_WIDE,
    "grouped_mixed": lambda: GROUPED_MIXED,
    "verify_dense": _verify_dense,
}


class StepFailed(Exception):
    """A step ended without a usable result; the message is the reason."""


def _first_line(text: str) -> str:
    return (text.strip().splitlines() or [""])[0]


def _library_frames(exc: BaseException, depth: int = 3) -> str:
    """The innermost library frames of a traceback, as module.function."""
    frames = [f"{Path(f.filename).stem}.{f.name}"
              for f in traceback.extract_tb(exc.__traceback__)
              if Path(f.filename).parent.name == "orthokernel"]
    return " > ".join(frames[-depth:])


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _check(layer: Layer, K, out_path: Path, seed: int) -> tuple[bool, float, str]:
    """Run the layer's check on the read-back kernel K (or, for
    "cli_verify", on the file): (held, figure, what the figure is)."""
    spec, hw, direction = layer.spec(), layer.image_side(), layer.direction()
    if layer.check == "roundtrip":
        err = verify.roundtrip_check(K, spec, hw, hw, direction=direction, seed=seed)
        return err <= ROUNDTRIP_TOL, err, f"{direction} roundtrip error"
    if layer.check == "spectrum":
        report = verify.check_orthogonality(K, spec, hw, hw)
        dev = max(abs(report.sigma_max - 1.0), abs(report.sigma_min - 1.0))
        return report.passed, dev, "max |sigma - 1|"
    if layer.check == "transpose":
        # same acceptance as the verification grid's transposed entries
        err = verify.roundtrip_check(K, spec, hw, hw, n_trials=3, direction=direction, seed=seed)
        T = verify.toeplitz_from_kernel(K, spec, hw, hw)
        Tt = verify.toeplitz_of_transpose(K, spec, hw, hw)
        adjoint_err = float(np.max(np.abs(Tt - T.T)))
        sv = verify.singular_values(Tt)
        dev = max(abs(sv[0] - 1.0), abs(sv[-1] - 1.0))
        ok = err <= 1e-8 and adjoint_err <= 1e-12 and dev <= verify.DEFAULT_TOLERANCE
        return bool(ok), dev, "max |sigma - 1| of the transpose"
    if layer.check == "cli_verify":
        rc, out, err = _cli(["verify", str(out_path), "--stride", str(layer.stride),
                             "--dilation", str(layer.dilation), "--size", "8", "8"])
        if rc not in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL):
            raise StepFailed(f"exit {rc}: {_first_line(err)}")
        report = json.loads(out)
        dev = max(abs(report["sigma_max"] - 1.0), abs(report["sigma_min"] - 1.0))
        return rc == cli.EXIT_OK and report["pass"], dev, "max |sigma - 1|"
    raise ValueError(f"unknown check {layer.check!r}")


def _no_span(step: str, layer: str):
    return contextlib.nullcontext()


def run_layer(layer: Layer, seed: int, cfg_path: Path, out_path: Path,
              step_span=_no_span, clock=time.perf_counter) -> dict:
    """Run one operation; returns its record (step times, sha256, check,
    reason).  ``step_span(step, layer)`` wraps each step, for tracing.
    Steps are timed on `clock`: ``<step>_s`` is a step's duration and
    ``t[<step>]`` its start and end readings."""
    rec = {"layer": layer.name, "ok": False, "build_s": None, "read_s": None,
           "check_s": None, "sha256": None, "check": None, "reason": None, "t": {}}
    step = None

    @contextlib.contextmanager
    def timed(name):
        # the time of a step that raises is recorded too
        nonlocal step
        step = name
        t0 = clock()
        try:
            with step_span(name, layer.name):
                yield
        finally:
            t1 = clock()
            rec["t"][name] = (t0, t1)
            rec[f"{name}_s"] = t1 - t0

    try:
        with timed("build"):
            rc, _, err = _cli(["build", str(cfg_path), str(out_path)])
        if rc != cli.EXIT_OK:
            raise StepFailed(f"exit {rc}: {_first_line(err)}")
        rec["sha256"] = hashlib.sha256(out_path.read_bytes()).hexdigest()
        with timed("read"):
            K = kernel_io.read_kernel(out_path)
        with timed("check"):
            held, figure, what = _check(layer, K, out_path, seed)
        rec["check"] = {"what": what, "value": float(figure), "held": bool(held)}
        if not held:
            raise StepFailed(f"check failed: {what} = {figure:.3e}")
        rec["ok"] = True
    except StepFailed as exc:
        rec["reason"] = {"step": step, "layer": layer.name, "error": str(exc)}
    except Exception as exc:  # a crash is a recorded failure, not the end of the run
        rec["reason"] = {"step": step, "layer": layer.name,
                         "error": f"uncaught {type(exc).__name__}: {_first_line(str(exc))}",
                         "raised_at": _library_frames(exc)}
    return rec
