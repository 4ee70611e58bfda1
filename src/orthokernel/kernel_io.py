"""Kernel file format "okt-v1".

A kernel is stored as a single JSON document:

    {"format": "okt-v1",
     "shape": [c_out, c_in_per_group, k_h, k_w],
     "groups": g,
     "dtype": "f64",
     "order": "row-major",
     "data": [ ... flat numbers ... ]}

Serialization is canonical (sorted keys, repr floats), so writing the same
kernel twice produces byte-identical files.  The writer always stores
"f64"; the reader also accepts "f32" documents (read into float64) and
rejects any unknown "format" value or malformed field with ValueError.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .tensor_core import KernelTensor

FORMAT_NAME = "okt-v1"
_DTYPES = ("f64", "f32")


def kernel_to_json(K: KernelTensor) -> str:
    doc = {
        "format": FORMAT_NAME,
        "shape": [int(n) for n in K.data.shape],
        "groups": int(K.groups),
        "dtype": "f64",
        "order": "row-major",
        "data": K.data.ravel().tolist(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def kernel_from_json(text: str) -> KernelTensor:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError(
            f"unknown kernel file format {doc.get('format') if isinstance(doc, dict) else None!r}"
        )
    if doc.get("dtype") not in _DTYPES:
        raise ValueError(f"unknown dtype {doc.get('dtype')!r}")
    if doc.get("order") != "row-major":
        raise ValueError(f"unknown element order {doc.get('order')!r}")
    shape = doc.get("shape")
    # `type(n) is int` also refuses JSON true/false, which parse as bool
    if not (isinstance(shape, list) and len(shape) == 4
            and all(type(n) is int and n >= 1 for n in shape)):
        raise ValueError(f"kernel shape must be a list of 4 positive integers, got {shape!r}")
    groups = doc.get("groups", 1)
    if type(groups) is not int:
        raise ValueError(f"kernel groups must be an integer, got {groups!r}")
    data = doc.get("data")
    if not isinstance(data, list):
        raise ValueError(f"kernel data must be a list of numbers, got {type(data).__name__}")
    # exact types: JSON true/false parse as bool, a subclass of int
    if not set(map(type, data)) <= {int, float}:
        raise ValueError("kernel data must be a flat list of numbers")
    try:
        data = np.asarray(data, dtype=np.float64)
    except OverflowError:
        raise ValueError("kernel data holds an integer beyond the float64 range") from None
    if data.size != math.prod(shape):
        raise ValueError("data length does not match shape")
    return KernelTensor(data.reshape(shape), groups=groups)


def write_kernel(path, K: KernelTensor) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(kernel_to_json(K))
        f.write("\n")


def read_kernel(path) -> KernelTensor:
    with open(path, "r", encoding="ascii") as f:
        return kernel_from_json(f.read())
