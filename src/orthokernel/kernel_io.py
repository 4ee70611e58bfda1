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

The writer (`_float_tokens`) makes each token "," and the entry's text, in
one NUL-padded 24-byte row, and `bytes.translate` deletes the NULs to join
a pass of `_CHUNK` rows; the document drops the first ",".  For the
entries in [1e-4, 1), most of an orthogonal kernel, a row is two table
words: ",", sign, "0.", zeros and first digit (`_LEAD_TEXT`), then the 16
other digits in groups of four (`_GROUP_TEXT`).  The rest get `format` in
their row, or between the rows when longer (three-digit exponents).

`read_kernel` reads the file in blocks of `_BLOCK` bytes, and
`kernel_from_json` runs the same loop (`_read`) over slices of its text or
bytes; a byte outside ASCII is a ValueError.  A document in the writer's
layout (it starts with `{"data":[` and its first "]" is followed by ",")
has its numbers parsed in numpy straight out of each block (`_blocks`):
each token `-?0.` followed by 1..20 digits, fewer than 18 after the
leading zeros, gets a candidate double, kept only when one exact residual
proves it the double nearest the token, which `float` gives
(`_fraction_tokens`, which reads the 24 bytes before each token's end with
those before its digits masked): the writer's tokens in [1e-4, 1) and
their shortest (`repr`) text.  Each pass parses 24 filler bytes, the token
the pass before ended inside, then the next block; nothing else is
carried.  Every other token (zeros, exponent forms, |x| >= 1, integers,
other float text, blanks, and the rare token the residual leaves in doubt)
is kept as text and goes to one `json.loads` call, after the fields that
follow the numbers are parsed by `json.loads`.  So a read holds one block,
the arrays of its tokens, the values read so far and the text of the
other tokens, and at the end the array, which the kernel adopts: about
twice the array, not the file's text, which is about 2.7 times the array.
Any other document, or one with a second "data" key, is read whole by
`json.loads` (a file is read again from its start).  Either way a document
reads to the same array, bit for bit, as `json.loads` and `np.asarray`
give, and the same documents are refused with the same error.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Iterator

import numpy as np

from .tensor_core import KernelTensor

FORMAT_NAME = "okt-v1"
_DTYPES = ("f64", "f32")
# how every document the writer makes starts ("data" sorts first)
_HEAD = b'{"data":['

# entries formatted or parsed per numpy pass: the 14 resnet_wide kernels
# (828 k entries, 2 vCPUs) wrote in 0.055-0.057, 0.057-0.059 and 0.071-0.073 s
# at 8 192, 16 384 and 65 536 per pass, and read in 0.089, 0.084 and 0.081 s
# (medians) at 4 096, 8 192 and 16 384
_CHUNK = 1 << 14
# bytes read at a time: a block holds about 12 500 of the writer's tokens,
# one `_CHUNK` pass; the 14 resnet_wide files read in 0.094, 0.082, 0.078
# and 0.082 s (medians) in blocks of 64 KiB, 128 KiB, 256 KiB and 1 MiB
_BLOCK = 1 << 18


# the first 8 bytes of a row: ",", the sign, "0.", the zeros and the first
# digit, NUL on the left, by (4 * sign + zeros) * 10 + first digit
_LEAD_TEXT = np.frombuffer(b"".join(
    f",{s}0.{'0' * z}{d}".encode().rjust(8, b"\0")
    for s in ("", "-") for z in range(4) for d in range(10)), np.uint64)


def _group_text() -> np.ndarray:
    """Four digits g as 4 bytes (index g), and with their trailing zeros
    turned to NUL (10 000 + g), built from the two-digit pairs."""
    two = np.arange(100)[:, None] // [10, 1] % 10 + ord("0")
    four = np.empty((100, 100, 4), np.uint8)
    four[..., :2], four[..., 2:] = two[:, None], two
    text = four.reshape(-1, 4)
    kept = np.logical_or.accumulate(text[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    return np.concatenate([text, text * kept]).view(np.uint32).ravel()


_GROUP_TEXT = _group_text()
_VELTKAMP = 2.0 ** 27 + 1


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


# 10^k for k = 0..20: exact doubles, with their Veltkamp halves
_POW10 = 10.0 ** np.arange(21)
_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^k = p + e exactly (Dekker's two-product), barring overflow."""
    p = a * _POW10[k]
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each a in [1e-4, 1): the zeros z after
    the point, and N = round_half_even(a * 10^q) with q = 17 + z.

    z takes three comparisons: no double lies between 10^-k and the double
    10^-k rounds to.  N < 10^17: only an a less than 5e-18 (relatively)
    below 10^-k would round up to it, and no double in the range is that
    close (the decade edge tests check the nearest ones).  a * 10^q = p + e
    exactly, and p is an even integer (p >= 10^16 > 2^53), so N = p +
    rint(e), with no tolerance.  Entries outside the range get meaningless
    digits.
    """
    zeros = (a < 0.1).astype(np.intp)
    zeros += a < 0.01
    zeros += a < 0.001
    with np.errstate(over="ignore", invalid="ignore"):
        p, e = _times_pow10(a, zeros + 17)
        n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    return zeros, n


def _float_tokens(v: np.ndarray) -> bytes:
    """`"," + format(x, ".17")` for each entry of the float64 vector `v`,
    joined.  For 1e-4 <= |x| < 1: the 17 digits of `_digits`, each group
    of four without its trailing zeros when every group after it is zero."""
    a = np.abs(v)
    zeros, n = _digits(a)
    fast = (a >= 1e-4) & (a < 1.0)
    n[~fast] = 10 ** 16
    first = n // 10 ** 16
    n -= first * 10 ** 16
    hi = n // 10 ** 8
    halves = np.stack([hi, n - hi * 10 ** 8])
    g = np.empty((4, len(v)), np.int64)
    g[::2] = halves // 10 ** 4
    g[1::2] = halves - 10 ** 4 * g[::2]
    trailing = np.ones(len(v), bool)
    for k in range(3, -1, -1):
        g[k] += 10 ** 4 * trailing
        trailing &= g[k] == 10 ** 4
    rows = np.empty((len(v), 6), np.uint32)
    rows.view(np.uint64)[:, 0] = _LEAD_TEXT[(4 * np.signbit(v) + zeros) * 10 + first]
    rows[:, 2:] = _GROUP_TEXT[g.T]
    slow = np.flatnonzero(~fast)
    tokens = [b"," + format(x, ".17").encode() for x in v[slow].tolist()]
    # NUL-padded; a longer token is cut here and written between the rows
    rows.view("S24")[slow, 0] = tokens
    text, pieces, at = rows.tobytes(), [], 0
    for i, token in zip(slow.tolist(), tokens):
        if len(token) > 24:
            pieces += [text[at:24 * i].translate(None, b"\0"), token]
            at = 24 * i + 24
    return b"".join(pieces) + text[at:].translate(None, b"\0")


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
    yield _HEAD
    flat = K.data.ravel()
    for start in range(0, flat.size, _CHUNK):
        tokens = _float_tokens(flat[start:start + _CHUNK])
        yield tokens if start else tokens[1:]
    yield b"]," + meta[1:].encode()


def kernel_to_json(K: KernelTensor) -> str:
    return b"".join(_document(K)).decode("ascii")


# a word holds 8 characters, the first in its low byte; a 1 in each byte
_BYTES = np.uint64(0x0101010101010101)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)
_ZEROS = _BYTES * np.uint64(ord("0"))
# masks of word i (row i) of the 24 bytes before the end of a token of F
# digits (column F = 0..20): `_KEEP` keeps the word's bytes among the last
# F, and `_FILL` is "0" in the others
_KEEP = np.array([~np.uint64(0) << np.uint64(8 * (8 - n)) if n else 0 for n in range(9)],
                 np.uint64)[np.clip(np.arange(21) - [[16], [8], [0]], 0, 8)]
_FILL = _ZEROS & ~_KEEP


def _eight_digits(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each word `w` of 8 ASCII digits (the first in the low
    byte), and whether its bytes are all digits."""
    digits = ((w & _HIGH_NIBBLES) | (((w + _BYTES * np.uint64(6)) & _HIGH_NIBBLES) >> np.uint64(4))
              == _BYTES * np.uint64(0x33))
    w = (w & _LOW_NIBBLES) * np.uint64(10 << 8 | 1) >> np.uint64(8)
    w = (w & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(100 << 16 | 1) >> np.uint64(16)
    w = (w & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(10000 << 32 | 1) >> np.uint64(32)
    return w, digits


def _fraction_tokens(b: np.ndarray, windows: np.ndarray, starts: np.ndarray,
                     stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each token b[start:stop] of the form -?0.<F digits>, and
    whether it is proven to be the double that `float` gives the token.

    The digits D, 0 < D < 10^17, and F <= 20 make 10^F exact.  c = D / 10^F
    (two roundings) is within 1.5 ulps of the token; the residual r = D -
    c 10^F is exact (D = dh + dl, Dekker's product), and so is one step of
    k = rint(r / (u 10^F)) ulps u, k in {-1, 0, 1}.  c is kept when |r| <
    (1/2 - 2^-31) u 10^F, c is normal and in the first candidate's binade
    (so u is its ulp), and c is not a power of two (its ulp below is u / 2)
    unless r = 0: then c is the double nearest the token (Clinger's
    condition).  `b[stop + 1]` must exist, and so must the 24 bytes before
    each stop; their content before the digits does not matter.
    """
    negative = b[starts] == ord("-")
    zero = starts + negative
    f = stops - zero - 2
    proven = (b[zero] == ord("0")) & (b[zero + 1] == ord(".")) & (f >= 1) & (f <= 20)
    f[~proven] = 1
    # the 24 bytes before the stop as three little-endian words, one row
    # per word (row-wise numpy steps ran faster than strided ones), with
    # the bytes before the F digits set to "0"; the first word must be
    # seven "0"s and the digit D // 10^16
    w = windows[stops - 24].view("<u8").reshape(-1, 3).T.copy()
    w &= np.take(_KEEP, f, axis=1)
    w |= np.take(_FILL, f, axis=1)
    lead = w[0] ^ _ZEROS
    value, digits = _eight_digits(w[1:])
    proven &= digits.all(axis=0) & (lead << np.uint64(8) == 0) & (lead < np.uint64(10 << 56))
    lead >>= np.uint64(56)
    d = (lead * np.uint64(10 ** 16) + value[0] * np.uint64(10 ** 8) + value[1]).view(np.int64)
    d *= proven
    dh = d.astype(np.float64)
    dl = (d - dh.astype(np.int64)).astype(np.float64)
    c = dh / _POW10[f]
    p, e = _times_pow10(c, f)
    r = ((dh - p) - e) + dl
    # c's exponent field, at least 53 so that its ulp u is normal
    field = np.maximum(c.view(np.int64) >> 52, 53)
    u = ((field - 52) << 52).view(np.float64)
    h = u * _POW10[f]
    k = np.rint(r / h)
    c += k * u
    r -= k * h
    bits = c.view(np.int64)
    # the margin leaves ties, and tokens within 2^-31 ulp of one, to json.loads
    proven &= ((np.abs(r) < (0.5 - 2.0 ** -31) * h) & (bits >> 52 == field)
               & ((bits << 12 != 0) | (r == 0)))
    # c >= 0: set the sign bit (np.negative with `where` took 10 times as long)
    bits |= negative.astype(np.int64) << 63
    return c, proven


def _loads(text: str | bytes):
    """`json.loads`, with nesting too deep for its recursion a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("kernel document is nested too deeply") from None


def _numbers(items: list) -> np.ndarray:
    """A list of JSON numbers as float64."""
    # exact types: JSON true/false parse as bool, a subclass of int
    if not set(map(type, items)) <= {int, float}:
        raise ValueError("kernel data must be a flat list of numbers")
    try:
        return np.asarray(items, dtype=np.float64)
    except OverflowError:
        raise ValueError("kernel data holds an integer beyond the float64 range") from None


def _spans(b: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> bytes:
    """The bytes b[start:stop] of each span, joined."""
    lengths = stops - starts
    at = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(at.size)
    return b[at].tobytes()


def _fields(doc) -> tuple[list, int]:
    """The shape and groups of an okt-v1 document, with every field but
    "data" and "groups" checked."""
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
    # `KernelTensor` checks "groups"
    return shape, doc.get("groups", 1)


def _kernel(data: np.ndarray, shape: list, groups: int) -> KernelTensor:
    if data.size != math.prod(shape):
        raise ValueError("data length does not match shape")
    return KernelTensor._adopt(data.reshape(shape), groups=groups)


def _ascii(raw: bytes) -> bytes:
    if not raw.isascii():
        raise ValueError("a kernel file must be ASCII text")
    return raw


def _blocks(read) -> tuple[list, list, list, bytes] | None:
    """The numbers of a writer-layout document, read by `read(n)` in
    blocks of `_BLOCK` bytes: the value of each block's tokens, the index
    and text (each with its "," or "]") of the tokens not proven, and the
    text after "],", read to the end.  None if the document does not start
    with `_HEAD` or its first "]" is not followed by ",".

    Each pass parses one buffer: 24 filler bytes, the token the pass before
    ended inside, then the next block.  `_fraction_tokens` reads the 24
    bytes before each token's end and masks those before its digits, so
    the filler stands in for the text before the carried token.  A
    buffer's last byte is left to the next pass, so `b[stop + 1]` exists.
    Only a non-ASCII block raises here, so that error comes first, as for
    a whole read.
    """
    block = _ascii(read(_BLOCK))
    if not block.startswith(_HEAD):
        return None
    # n counts the tokens of the passes before
    values, slow, pieces, n = [], [], [], 0
    carry, block = b"", block[len(_HEAD):]
    while True:
        buf = b"0" * 24 + carry + block
        close = buf.find(b"]", 24)
        last = 0 <= close < len(buf) - 1
        if last and buf[close + 1] != ord(","):
            return None
        edge = close if last else len(buf) - 1
        b = np.frombuffer(buf, np.uint8)
        stops = np.flatnonzero(b[24:edge] == ord(","))
        stops += 24
        if last:
            stops = np.append(stops, close)
        starts = np.empty_like(stops)
        starts[:1] = 24
        starts[1:] = stops[:-1] + 1
        # the 24 bytes at each offset (no copy)
        windows = np.ndarray((len(buf) - 23,), np.dtype((np.void, 24)), buf, strides=(1,))
        for i in range(0, stops.size, _CHUNK):
            a, z = starts[i:i + _CHUNK], stops[i:i + _CHUNK]
            v, proven = _fraction_tokens(b, windows, a, z)
            unproven = np.flatnonzero(~proven)
            if unproven.size:
                slow.append(unproven + n + i)
                pieces.append(_spans(b, a[unproven], z[unproven] + 1))
            values.append(v)
        if last:
            return values, slow, pieces, _ascii(buf[close + 2:] + read())
        n += stops.size
        carry = buf[int(stops[-1]) + 1 if stops.size else 24:]
        # a token longer than a block doubles the next read, so carrying it
        # stays linear in its length
        block = _ascii(read(max(_BLOCK, len(carry))))
        if not block:
            return None


def _read(f) -> KernelTensor:
    """The kernel of the okt-v1 document in the binary file `f`: a
    writer-layout document block by block (`_blocks`), any other read
    whole, one with a second "data" key included."""
    streamed = _blocks(f.read)
    if streamed is not None:
        values, slow, pieces, rest = streamed
        doc = _loads(b"{" + rest)
        if "data" not in doc:
            shape, groups = _fields(doc)
            data = np.concatenate(values)
            values.clear()  # copied into `data`: free them
            if slow:
                slow = np.concatenate(slow)
                text = b"".join(pieces)
                # each token kept its "," (the last one maybe its "]")
                items = _loads(b"[" + text[:-1] + b"]")
                # an empty or blank token leaves the list one item short
                if len(items) != slow.size:
                    raise ValueError("kernel data must be a flat list of numbers")
                data[slow] = _numbers(items)
            return _kernel(data, shape, groups)
    f.seek(0)
    return _whole_document(_ascii(f.read()).decode("ascii"))


def kernel_from_json(text: str | bytes) -> KernelTensor:
    """The kernel of an okt-v1 document, given as text or as ASCII bytes."""
    if isinstance(text, str):
        if not text.isascii():
            return _whole_document(text)
        text = text.encode("ascii")
    return _read(io.BytesIO(text))


def _whole_document(text: str) -> KernelTensor:
    doc = _loads(text)
    shape, groups = _fields(doc)
    data = doc.get("data")
    if not isinstance(data, list):
        raise ValueError(f"kernel data must be a list of numbers, got {type(data).__name__}")
    return _kernel(_numbers(data), shape, groups)


def write_kernel(path, K: KernelTensor) -> None:
    with open(path, "wb") as f:
        f.writelines(_document(K))
        f.write(b"\n")


def read_kernel(path) -> KernelTensor:
    with open(path, "rb") as f:
        # a pipe cannot be read again from its start: read it whole
        return _read(f if f.seekable() else io.BytesIO(f.read()))
