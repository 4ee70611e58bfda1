import json
import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthokernel import KernelTensor, kernel_from_json, kernel_to_json, read_kernel, write_kernel
from orthokernel.kernel_io import _CHUNK
from conftest import random_kernel, rng
from oracles import format_floats_ref


def test_roundtrip(tmp_path):
    K = KernelTensor(np.random.default_rng(0).standard_normal((4, 2, 3, 3)), groups=2)
    path = tmp_path / "k.okt"
    write_kernel(path, K)
    K2 = read_kernel(path)
    np.testing.assert_array_equal(K2.data, K.data)
    assert K2.groups == 2


def test_write_is_byte_deterministic(tmp_path):
    K = random_kernel(3, 3, 2, 2, seed=7)
    p1, p2 = tmp_path / "a.okt", tmp_path / "b.okt"
    write_kernel(p1, K)
    write_kernel(p2, K)
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_format_rejected():
    doc = json.loads(kernel_to_json(random_kernel(1, 1, 1, 1)))
    doc["format"] = "okt-v2"
    with pytest.raises(ValueError, match="format"):
        kernel_from_json(json.dumps(doc))


def test_malformed_documents_rejected():
    base = json.loads(kernel_to_json(random_kernel(2, 2, 1, 1)))
    for mutate in (
        lambda d: d.update(dtype="f16"),
        lambda d: d.update(order="col-major"),
        lambda d: d.update(shape=[2, 2, 1]),
        lambda d: d.update(data=d["data"][:-1]),
        lambda d: d.pop("shape"),
        lambda d: d.pop("data"),
        lambda d: d.update(shape=5),
        lambda d: d.update(shape=[2.0, 2, 1, 1]),
        lambda d: d.update(data={"0": 1.0}),
        lambda d: d.update(data=[["x"]] * 4),
        lambda d: d.update(groups=1.5),
        lambda d: d.update(data=[True, 1.5, 0.5, 0.25]),
        lambda d: d.update(data=[10 ** 400, 1.5, 0.5, 0.25]),
    ):
        doc = dict(base)
        mutate(doc)
        with pytest.raises(ValueError):
            kernel_from_json(json.dumps(doc))


def test_f32_document_is_read():
    # the writer emits only "f64"; "f32" documents come from outside
    text = ('{"data":[0.5,-1.25,2.0,0.1],"dtype":"f32","format":"okt-v1",'
            '"groups":1,"order":"row-major","shape":[2,2,1,1]}')
    K = kernel_from_json(text)
    assert K.data.dtype == np.float64 and K.shape == (2, 2, 1, 1)
    np.testing.assert_array_equal(K.data.ravel(), [0.5, -1.25, 2.0, 0.1])
    assert json.loads(kernel_to_json(K))["dtype"] == "f64"


def test_golden_text():
    K = KernelTensor(np.array([0.1, -0.25, 1.0, -0.0, 1e-05, 0.0123456789, -0.0009765625,
                               0.7071067811865476]).reshape(2, 1, 2, 2), groups=2)
    assert kernel_to_json(K) == (
        '{"data":[0.10000000000000001,-0.25,1.0,-0.0,1.0000000000000001e-05,0.0123456789,'
        '-0.0009765625,0.70710678118654757],"dtype":"f64","format":"okt-v1","groups":2,'
        '"order":"row-major","shape":[2,1,2,2]}')


def assert_written_like_oracle(values):
    """The okt-v1 text of the kernel [n][1][1][1] holding `values` has the
    oracle's float text, the file is that text and a newline, and it reads
    back bit for bit (the sign of zero included)."""
    x = np.asarray(values, dtype=np.float64)
    K = KernelTensor(x.reshape(-1, 1, 1, 1))
    text = kernel_to_json(K)
    assert text == ('{"data":[' + format_floats_ref(x) + '],"dtype":"f64","format":"okt-v1",'
                    f'"groups":1,"order":"row-major","shape":[{x.size},1,1,1]}}')
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.okt"
        write_kernel(path, K)
        assert path.read_bytes() == text.encode() + b"\n"
        back = read_kernel(path).data.ravel()
    np.testing.assert_array_equal(back.view(np.uint64), x.view(np.uint64))


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_FINITE_BITS = st.integers(0, 2 ** 64 - 1).map(_from_bits).filter(math.isfinite)
# the range the writer formats in numpy
_FAST = st.floats(1e-4, 1.0, exclude_max=True).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_FINITE_BITS, _FAST), min_size=1, max_size=80))
@example([5e-324, -5e-324, _from_bits(2 ** 52 - 1), 2.2250738585072014e-308,
          1.7976931348623157e308, -1.7976931348623157e308])
def test_float_text_matches_oracle(values):
    assert_written_like_oracle(values)


def test_float_text_at_zeros_and_decade_edges():
    edges = []
    for k in range(-5, 2):
        below = above = 10.0 ** k
        for _ in range(40):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges.append(10.0 ** k)
    edges = np.array(edges)
    assert_written_like_oracle(np.concatenate([[0.0, -0.0], edges, -edges]))


def test_float_text_carrying_to_the_next_decade():
    # the one finite double whose 17 digits round up to a power of ten; the
    # doubles next to 10^-4 .. 1 (the numpy decades) do not carry
    assert Fraction(1e153) < 10 ** 153 and format(1e153, ".17") == "1e+153"
    assert_written_like_oracle([1e153, -1e153, np.nextafter(1e153, 0.0)])


def test_float_text_rounds_exact_ties_half_even():
    # x = m * 2^-(q+1), m odd, has x * 10^q = m * 5^q / 2: a tie at the
    # 18th significant digit when x lies in the decade [10^-(z+1), 10^-z)
    # with q = 17 + z
    ties = []
    for z in range(4):
        q = 17 + z
        lo, hi = -(-2 ** (q + 1) // 10 ** (z + 1)), 2 ** (q + 1) // 10 ** z
        m = rng(z).integers(lo, hi, 400) | 1
        m = m[(m >= lo) & (m < hi)]
        x = m / 2.0 ** (q + 1)
        assert all((Fraction(v) * 10 ** q).denominator == 2 for v in x.tolist())
        ties += [x, -x]
    assert_written_like_oracle(np.concatenate(ties))


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_float_text_across_chunk_boundaries(n):
    x = 0.05 * rng(n).standard_normal(n)
    x[::97] = 0.0  # entries outside the numpy decades, a fallback at each end
    x[1::89] = -1.5
    x[-1] = -0.0
    assert_written_like_oracle(x)
