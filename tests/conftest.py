import ctypes
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthokernel import KernelTensor


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_kernel(c_out, c_in, k1, k2, seed=0, scale=1.0):
    return KernelTensor(scale * rng(seed).standard_normal((c_out, c_in, k1, k2)))


def gram_residual(O):
    O = np.asarray(O)
    G = O @ O.T if O.shape[0] <= O.shape[1] else O.T @ O
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def blas_core() -> str:
    """The CPU kernel the loaded OpenBLAS runs ("SkylakeX", "Haswell", ...;
    `OPENBLAS_CORETYPE` forces one when numpy is imported), or "unknown"
    when the BLAS does not report one."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)  # its symbols include its BLAS's
    for sym in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                "openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return "unknown"


def perfbench_module(name):
    """`perfbench/<name>.py`, e.g. "workloads" or "spans", imported by path
    (nothing under `perfbench/` is written)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def deeply_nested_documents(depth=100_000):
    """okt-v1 texts nested deeper than `json.loads` can recurse: in the
    whole-document layout, and in the writer's layout once in "data" and
    once in a field after it."""
    fields = '"dtype":"f64","format":"okt-v1","groups":1,"order":"row-major","shape":[1,1,1,1]'
    return ['{"format":"okt-v1","data":' + "[" * depth + "0" + "]" * depth + "}",
            '{"data":[' + "[" * depth + "0]," + fields + "}",
            '{"data":[0.5],' + fields[:-9] + "[" * depth + "]" * depth + "}"]


@pytest.fixture
def make_rng():
    return rng


def traced_peak(fn):
    """`fn()` and the peak of the memory it allocated, in bytes.  numpy
    reports its buffers to tracemalloc, so the peak is the same every run."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
