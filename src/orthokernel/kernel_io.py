"""Kernel file format "okt-v1".

A kernel is stored as a single JSON document:

    {"format": "okt-v1",
     "shape": [c_out, c_in_per_group, k_h, k_w],
     "groups": g,
     "dtype": "f64",
     "order": "row-major",
     "data": [ ... flat numbers ... ]}

Serialization is canonical, so writing the same kernel twice produces
byte-identical files: sorted keys, "," and ":" separators, a trailing
newline in files, and each entry of "data" written as Python's
`format(v, ".17")`.  That is 17 correctly rounded significant digits
(half-even on exact ties) with trailing zeros dropped, in fixed point for
decimal exponents -4..16 and in exponent form otherwise; a fixed-point
number always keeps a digit after the point.  So every entry is a JSON
float (`1.0`, `-0.0`, `0.5`, `1.0000000000000001e-05`) and reads back to
the same double, the sign of zero included.  The writer always stores
"f64"; the reader also accepts "f32" documents (read into float64), reads
any JSON numbers (so files with other float text read the same), and
rejects any unknown "format" value or malformed field with ValueError.

Most entries of an orthogonal kernel lie in [1e-4, 1), where the 17 digits
are formatted in numpy (`_float_tokens`); the rest go through `format`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator

import numpy as np

from .tensor_core import KernelTensor

FORMAT_NAME = "okt-v1"
_DTYPES = ("f64", "f32")

# entries formatted per numpy pass; larger passes were slower (590 k
# entries on 2 vCPUs: 0.14 s at 16 384 per pass, 0.18 s at 65 536)
_CHUNK = 1 << 14


def _padded(texts, width: int, dtype) -> np.ndarray:
    """Each ASCII text as one `width`-byte word, padded with NUL bytes,
    which the formatter drops at the end."""
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype)


_TRIPLES = [f"{g:03d}" for g in range(1000)]
# the six three-digit groups of the 17 digits: group g as is (index g), with
# its trailing zeros dropped (1000 + g), and the last group also followed
# by the entry's "," (2000 + g)
_GROUP_TEXT = _padded(_TRIPLES + [t.rstrip("0") for t in _TRIPLES]
                      + [t.rstrip("0") + "," for t in _TRIPLES], 4, np.uint32)
# "0." and the zeros after it, by 4 * sign (0 or 1) + zeros (0..3)
_PREFIX_TEXT = _padded([f"{sign}0.{'0' * zeros}" for sign in ("", "-") for zeros in range(4)],
                       8, np.uint64)
_VELTKAMP = 2.0 ** 27 + 1


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


# 10^q for the decade [10^-(z+1), 10^-z), q = 17 + z: exact doubles
_SCALE = 10.0 ** np.arange(17, 21)
_SCALE_HI, _SCALE_LO = _veltkamp(_SCALE)


def _float_tokens(v: np.ndarray) -> bytes:
    """`format(x, ".17") + ","` for each entry of the float64 vector `v`.

    For 1e-4 <= |x| < 1 the 17 digits are N = round_half_even(|x| * 10^q),
    with q = 17 + z and z the zeros after the point (three comparisons:
    no double lies between 10^-k and the double 10^-k rounds to).  N <
    10^17: only an |x| less than 5e-18 (relatively) below 10^-k would
    round up to it, and no double in the range is that close (the decade
    edge tests check the nearest ones).  Dekker's two-product gives
    |x| * 10^q = p + e exactly, and p is an even integer (p >= 10^16 >
    2^53), so N = p + rint(e), with no tolerance.  Each token is one
    32-byte row: "-0.000" (8 bytes, NUL where absent), then N as six
    three-digit groups of 4 bytes, each without its trailing zeros when
    every group after it is zero.  Every other entry (zero, |x| < 1e-4,
    |x| >= 1) gets `format` in its row.  Dropping the NUL bytes joins the
    tokens.
    """
    a = np.abs(v)
    zeros = (a < 0.1).astype(np.intp)
    zeros += a < 0.01
    zeros += a < 0.001
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * _SCALE[zeros]
        ah, al = _veltkamp(a)
        bh, bl = _SCALE_HI[zeros], _SCALE_LO[zeros]
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    fast = (a >= 1e-4) & (a < 1.0)
    n[~fast] = 10 ** 16
    hi = n // 10 ** 9
    lo = n - hi * 10 ** 9
    g = np.empty((6, len(v)), np.int64)
    g[0] = hi // 10 ** 6
    g[1] = hi // 1000 - 1000 * g[0]
    g[2] = hi % 1000
    g[3] = lo // 10 ** 6
    g[4] = lo // 1000 - 1000 * g[3]
    g[5] = lo % 1000 + 2000
    trailing = g[5] == 2000
    for k in range(4, -1, -1):
        g[k] += 1000 * trailing
        trailing &= g[k] == 1000
    rows = np.empty((len(v), 8), np.uint32)
    rows.view(np.uint64)[:, 0] = _PREFIX_TEXT[4 * np.signbit(v) + zeros]
    rows[:, 2:] = _GROUP_TEXT[g.T]
    text = rows.view(np.uint8)
    text[:, 8] = 0  # N has 17 digits: its first group has two
    for i in np.flatnonzero(~fast):
        token = format(float(v[i]), ".17").encode() + b","
        text[i] = 0
        text[i, :len(token)] = np.frombuffer(token, np.uint8)
    text = text.ravel()
    return np.compress(text != 0, text).tobytes()


def _document(K: KernelTensor) -> Iterator[bytes]:
    """The okt-v1 text of `K` (without the file's newline), in pieces of
    at most `_CHUNK` entries."""
    meta = json.dumps({
        "format": FORMAT_NAME,
        "shape": [int(n) for n in K.data.shape],
        "groups": int(K.groups),
        "dtype": "f64",
        "order": "row-major",
    }, sort_keys=True, separators=(",", ":"))
    # "data" sorts before every other key
    yield b'{"data":['
    flat = K.data.ravel()
    for start in range(0, flat.size, _CHUNK):
        tokens = _float_tokens(flat[start:start + _CHUNK])
        yield tokens if start + _CHUNK < flat.size else tokens[:-1]
    yield b"]," + meta[1:].encode()


def kernel_to_json(K: KernelTensor) -> str:
    return b"".join(_document(K)).decode("ascii")


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
    with open(path, "wb") as f:
        f.writelines(_document(K))
        f.write(b"\n")


def read_kernel(path) -> KernelTensor:
    with open(path, "r", encoding="ascii") as f:
        return kernel_from_json(f.read())
