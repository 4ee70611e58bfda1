"""Command-line front door.

Subcommands:

    build     config.json out.okt   -> construct a kernel, write okt-v1 + sidecar
    verify    kernel.okt [flags]    -> spectrum check, JSON report on stdout
    spectrum  kernel.okt [flags]    -> print descending singular values
    selftest                        -> run the verification grid (one thread)

The config file sets every build value, uncoerced: integer keys must be
JSON integers (`ConvSpec` and `AocConfig` refuse any other value), and a
key outside `_CONFIG_DEFAULTS` is refused by name.
The build sidecar `out.okt.meta.json` holds "branch" (`BranchTag.to_dict`:
branch and internal_width), "config" (the resolved build config; its seed
is the only one: each factor is one draw for all groups from a sub-seed
of it) and "version" (`SIDECAR_VERSION`, raised whenever a config and
seed stop giving the kernel bytes they gave before, and whenever the
sidecar gains or loses a key).

okt-v1 stores no stride or dilation, so `verify` and `spectrum` take them
from the sidecar next to the kernel when there is one; `--stride` and
`--dilation` may only repeat its values.  Without a sidecar the flags
give them, 1 by default.  `--size` defaults to s*ceil(8/s) per axis for
stride s, the smallest image of at least 8x8 that the stride divides.

Exit codes: 0 success / verification pass, 1 verification failure,
2 invalid input (including a malformed config or kernel file and an
unwritable output path), 3 unsupported configuration (including one whose
scheme cannot build an orthogonal factor, and a build or a check beyond
its size budget: `construct.MAX_ENTRIES`, `verify.ENTRY_BUDGET`), with a
one-line reason.  All commands are deterministic given their arguments
and input files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import kernel_io
from .construct import AocConfig, _check_seed, aoc_kernel
from .orthogonalize import DEFAULT_SCHEME, SCHEMES
from .tensor_core import (ConvSpec, KernelTensor, UnsupportedConfigError, _check_kernel_spec,
                          spec_for_kernel)
from .verify import (DEFAULT_TOLERANCE, _check_tolerance, _image_size, check_orthogonality,
                     grid_entries, polyphase_spectrum, run_grid)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3

#: raised whenever a config and seed stop giving the kernel bytes they gave
#: before, and whenever the sidecar gains or loses a key; the README's
#: "Version N" notes say what each version changed
SIDECAR_VERSION = 11

# every build config key with its default; None marks a required key
_CONFIG_DEFAULTS = {
    "c_in": None, "c_out": None, "kernel": None,
    "stride": 1, "groups": 1, "dilation": 1,
    "scheme": DEFAULT_SCHEME, "seed": 0,
}


def _spec_from_config(config: dict) -> ConvSpec:
    """The `ConvSpec` of a config dict with the keys `_config_of_spec`
    gives (a build config, a sidecar's "config"); other keys are ignored."""
    return ConvSpec(c_in=config["c_in"], c_out=config["c_out"],
                    k_h=config["kernel"][0], k_w=config["kernel"][1],
                    stride=config["stride"], groups=config["groups"],
                    dilation=config["dilation"])


def _config_of_spec(spec: ConvSpec) -> dict:
    """The config keys of a spec: c_in, c_out, kernel as [k1, k2], stride,
    groups, dilation."""
    return {"c_in": spec.c_in, "c_out": spec.c_out, "kernel": [spec.k_h, spec.k_w],
            "stride": spec.stride, "groups": spec.groups, "dilation": spec.dilation}


def _load_build_config(path) -> AocConfig:
    """The build config at `path`, defaults filled in."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, default in _CONFIG_DEFAULTS.items():
        if default is None and key not in doc:
            raise ValueError(f"config is missing required key {key!r}")
    doc = {**_CONFIG_DEFAULTS, **doc}
    # ConvSpec and AocConfig refuse a value that is no integer, bool included
    if not isinstance(doc["kernel"], list):
        doc["kernel"] = [doc["kernel"]] * 2
    if len(doc["kernel"]) != 2:
        raise ValueError("config key 'kernel' must be an integer or a [k1, k2] pair of integers")
    return AocConfig(spec=_spec_from_config(doc), scheme=doc["scheme"], seed=doc["seed"])


def _unsupported(exc: ValueError) -> int:
    """Report `exc`, first line only, as an unsupported configuration."""
    reason = str(exc).partition("\n")[0]
    print(f"unsupported configuration: {reason}", file=sys.stderr)
    return EXIT_UNSUPPORTED


def cmd_build(args) -> int:
    try:
        cfg = _load_build_config(args.config)
    except (OSError, json.JSONDecodeError, ValueError, TypeError, RecursionError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        K, tag = aoc_kernel(cfg)
    except ValueError as exc:
        # UnsupportedConfigError, or a factor the chosen scheme could not
        # make orthogonal (a rank-deficient draw)
        return _unsupported(exc)
    config = {**_config_of_spec(cfg.spec), "scheme": cfg.scheme, "seed": cfg.seed}
    sidecar = {"branch": tag.to_dict(), "config": config, "version": SIDECAR_VERSION}
    try:
        kernel_io.write_kernel(args.out, K)
        with open(str(args.out) + ".meta.json", "w", encoding="utf-8") as f:
            # one write: json.dump would make one for each small piece
            f.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        print(f"invalid output path: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(f"wrote {args.out} (branch {tag.branch})")
    return EXIT_OK


def _load_operator(args) -> tuple[KernelTensor, ConvSpec]:
    """The kernel file `args.kernel` and the spec of its operator: stride
    and dilation from its build sidecar when there is one, where a flag
    that contradicts it is refused, else from the flags.  Raises
    ValueError for a sidecar that cannot be read or describes another
    kernel."""
    K = kernel_io.read_kernel(args.kernel)
    meta = str(args.kernel) + ".meta.json"
    try:
        with open(meta, "r", encoding="utf-8") as f:
            built = _spec_from_config(json.load(f)["config"])
    except FileNotFoundError:
        return K, spec_for_kernel(K, 1 if args.stride is None else args.stride,
                                  1 if args.dilation is None else args.dilation)
    except (ValueError, TypeError, KeyError, IndexError, RecursionError) as exc:
        raise ValueError(f"unreadable build sidecar {meta}: {exc!r}") from None
    for key in ("stride", "dilation"):
        flag, value = getattr(args, key), getattr(built, key)
        if flag is not None and flag != value:
            raise ValueError(f"--{key} {flag} contradicts {key} {value} in {meta}")
    try:
        _check_kernel_spec(K, built)
    except ValueError as exc:
        raise ValueError(f"build sidecar {meta} describes another kernel: {exc}") from None
    return K, built


def cmd_verify(args) -> int:
    try:
        K, spec = _load_operator(args)
        h, w = _image_size(spec, *(args.size or ()))
        report = check_orthogonality(K, spec, h, w, tolerance=args.tol)
    except UnsupportedConfigError as exc:
        return _unsupported(exc)
    except (OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(report.to_json({**_config_of_spec(spec), "size": [h, w]}))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_spectrum(args) -> int:
    try:
        K, spec = _load_operator(args)
        h, w = _image_size(spec, *(args.size or ()))
        sv = np.sort(polyphase_spectrum(K, spec, h, w), axis=None)[::-1]
    except UnsupportedConfigError as exc:
        return _unsupported(exc)
    except (OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    for v in sv:
        print(f"{v:.12f}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    # checked by the library's rules before run_grid, whose ValueError
    # means an unbuildable entry (exit 3)
    try:
        _check_seed(args.seed)
        _check_tolerance(args.tol)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    categories = args.category if args.category else None
    t0 = time.perf_counter()
    try:
        results = run_grid(scheme=args.scheme, seed=args.seed,
                           tolerance=args.tol, categories=categories)
    except ValueError as exc:
        # a grid entry the chosen scheme cannot build, as in cmd_build
        return _unsupported(exc)
    elapsed = time.perf_counter() - t0
    by_cat: dict[str, list[bool]] = {}
    for r in results:
        by_cat.setdefault(r["category"], []).append(bool(r["passed"]))
    all_ok = True
    for cat in sorted(by_cat):
        oks = by_cat[cat]
        ok = all(oks)
        all_ok &= ok
        print(f"{cat:<12s} {sum(oks)}/{len(oks)} passed")
    for r in results:
        if not r["passed"]:
            print(f"FAIL {r['key']}: {r}")
    print(f"total {sum(len(v) for v in by_cat.values())} configurations "
          f"in {elapsed:.1f}s: {'all passed' if all_ok else 'FAILURES'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each `parse_args` call
    returns a fresh namespace."""
    p = argparse.ArgumentParser(prog="orthokernel",
                                description="orthogonal convolution kernels: "
                                            "build, verify, inspect")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a kernel from a JSON config")
    b.add_argument("config", help="path to the build config (JSON)")
    b.add_argument("out", help="output path for the okt-v1 kernel file")
    b.set_defaults(fn=cmd_build)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--stride", type=int,
                        help="default: the build sidecar's, else 1")
    common.add_argument("--dilation", type=int,
                        help="default: the build sidecar's, else 1")
    common.add_argument("--size", type=int, nargs=2, metavar=("H", "W"),
                        help="image size; default: s*ceil(8/s) per axis for "
                             "stride s (8x8 at strides 1, 2, 4 and 8)")

    v = sub.add_parser("verify", parents=[common],
                       help="check orthogonality of a kernel file")
    v.add_argument("kernel", help="path to an okt-v1 kernel file")
    v.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    v.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="print the singular values of a kernel's operator")
    sp.add_argument("kernel", help="path to an okt-v1 kernel file")
    sp.set_defaults(fn=cmd_spectrum)

    st = sub.add_parser("selftest", help="run the verification grid")
    st.add_argument("--scheme", default=DEFAULT_SCHEME, choices=SCHEMES)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    st.add_argument("--category", action="append",
                    choices=sorted({e.category for e in grid_entries()}),
                    help="restrict to a category (repeatable); default: all")
    st.set_defaults(fn=cmd_selftest)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
