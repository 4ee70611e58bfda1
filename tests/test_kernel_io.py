import io
import json
import math
import os
import struct
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthokernel import KernelTensor, kernel_from_json, kernel_to_json, read_kernel, write_kernel
from orthokernel import AocConfig, ConvSpec, aoc_kernel, kernel_io
from orthokernel.kernel_io import _CHUNK
from conftest import deeply_nested_documents, random_kernel, rng, traced_peak
from oracles import format_floats_ref, read_floats_ref


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


_MUTATIONS = (
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
)


def test_malformed_documents_rejected():
    base = json.loads(kernel_to_json(random_kernel(2, 2, 1, 1)))
    for mutate in _MUTATIONS:
        doc = dict(base)
        mutate(doc)
        with pytest.raises(ValueError):
            kernel_from_json(json.dumps(doc))


def test_malformed_documents_rejected_in_writer_layout():
    # compact, "data" first: the reader parses the numbers out of the bytes
    base = json.loads(kernel_to_json(random_kernel(2, 2, 1, 1)))
    for mutate in _MUTATIONS:
        doc = dict(base)
        mutate(doc)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        for document in (text, text.encode()):
            with pytest.raises(ValueError):
                kernel_from_json(document)


@pytest.mark.parametrize("groups", [1.5, True])
def test_both_read_paths_refuse_bad_groups_alike(groups):
    # a whole-document read and a streamed one ("data" first, compact)
    doc = {**json.loads(kernel_to_json(random_kernel(2, 2, 1, 1))), "groups": groups}
    errors = set()
    for text in (json.dumps(doc), json.dumps(doc, sort_keys=True, separators=(",", ":"))):
        with pytest.raises(ValueError, match="groups") as info:
            kernel_from_json(text)
        errors.add(str(info.value))
    assert len(errors) == 1, errors


def writer_layout(body: str, n: int) -> str:
    """An okt-v1 document laid out as the writer does, with the data text
    `body` and the shape [n, 1, 1, 1]."""
    return ('{"data":[' + body + '],"dtype":"f64","format":"okt-v1","groups":1,'
            f'"order":"row-major","shape":[{n},1,1,1]}}')


_BAD_BODIES = [
    ("0.5,,0.5", 3), ("0.5,,0.5", 2), ("0.5,0.25,", 3), ("0.5,0.25,", 2), ("", 1), (" ", 1),
    ("0.5, ", 2), ("+0.5", 1), (".5", 1), ("01", 1), ("0x1", 1), ("0x5", 1), ("005", 1),
    ("-0.", 1), ("0.5e", 1), ("0.5p", 1), ("0.4:", 1), ("0.25/", 1),
    ('"0.5"', 1), ('"0.5,0.25"', 2), ("true", 1), ("0.5,false", 2), ("null", 1),
    ("[0.5]", 1), ("0.5,[0.25]", 2), ('{"a":0.5}', 1), ("1e400", 1), ("-1e400", 1),
    ("NaN", 1), ("Infinity", 1), ("0.5,-Infinity", 2),
]


@pytest.mark.parametrize("body, n", _BAD_BODIES)
def test_malformed_data_rejected_in_writer_layout(body, n):
    # first, and after a token that ends more than 24 bytes into the file
    for text in (writer_layout(body, n), writer_layout("0.12345678901234566," + body, n + 1)):
        for document in (text, text.encode()):
            with pytest.raises(ValueError):
                kernel_from_json(document)


@pytest.mark.parametrize("layout", range(3))
def test_deeply_nested_documents_rejected(layout):
    # json.loads raises RecursionError for these; the reader refuses them
    text = deeply_nested_documents()[layout]
    for doc in (text, text.encode()):
        with pytest.raises(ValueError, match="nested too deeply"):
            kernel_from_json(doc)


def test_second_data_key_reads_as_json_does():
    # json.loads keeps the last "data"
    text = writer_layout("0.5,0.25", 2)
    for second in ('"data":[]', '"d\\u0061ta":[]', '"data":[0.5]', '"data":"0.5,0.25"'):
        with pytest.raises(ValueError):
            kernel_from_json(text[:-1] + "," + second + "}")
    assert_read_like_oracle(text[:-1] + ',"data":[0.125,-0.0]}')


def test_whitespace_around_tokens_is_read():
    assert_read_like_oracle(writer_layout(" 0.5 ,\t-0.25,\n0.10000000000000001 ,1.0\r\n", 4))
    assert_read_like_oracle(writer_layout("0.5", 1)[:-1] + ' , "note" : "x" }\n')


def test_non_ascii_bytes_rejected():
    doc = json.loads(kernel_to_json(random_kernel(1, 1, 1, 1)))
    doc["note"] = "\u00e9"
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert kernel_from_json(text).shape == (1, 1, 1, 1)  # text: as json.loads reads it
    with pytest.raises(ValueError, match="ASCII"):
        kernel_from_json(text.encode())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.okt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="ASCII"):
            read_kernel(path)


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


# 25 bytes with its ",": longer than a writer row, so written between rows
_LONG = -1.2345678901234567e-100


@pytest.mark.parametrize("n, at", [
    (5, [0]),  # the document's first entry
    (_CHUNK + 5, [_CHUNK - 1]),  # the last entry of the first chunk
    (_CHUNK + 5, [_CHUNK]),  # the first entry of the second chunk
    (2 * _CHUNK + 3, slice(_CHUNK, 2 * _CHUNK)),  # a chunk of nothing else
])
def test_float_text_with_tokens_longer_than_a_row(n, at):
    assert len("," + format(_LONG, ".17")) > 24
    x = 0.05 * rng(n).standard_normal(n)
    x[at] = _LONG
    assert_written_like_oracle(x)


@pytest.mark.parametrize("first", [0.0, -0.0, 1e-05, -1.5, 1e300, 5e-324])
def test_float_text_with_a_format_fallback_first(first):
    assert_written_like_oracle([first, 0.25, -0.0123456789])


def assert_read_like_oracle(text: str):
    """The document `text` reads to the bits of `json.loads`, as text, as
    bytes and from a file."""
    want = read_floats_ref(text).view(np.uint64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.okt"
        path.write_text(text)
        kernels = (kernel_from_json(text), kernel_from_json(text.encode()), read_kernel(path))
    for K in kernels:
        np.testing.assert_array_equal(K.data.ravel().view(np.uint64), want)


_SPELLINGS = {"canonical": lambda v: format(v, ".17"), "repr": repr,
              "fixed20": lambda v: "%.20f" % v}
_TOKENS = st.one_of(
    st.tuples(st.one_of(_FINITE_BITS, _FAST), st.sampled_from(sorted(_SPELLINGS)))
    .map(lambda t: _SPELLINGS[t[1]](t[0])),
    st.integers(-2 ** 70, 2 ** 70).map(str),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_TOKENS, min_size=1, max_size=80))
@example(["-0.0", "0.0", "-0.00000", "0", "-0", "1e-05", "0.1", "0.10000000000000001",
          "0.00012345678901234567", "0.99999999999999994", "0.99999999999999995", "0e5",
          "-0E5", "0.5e-0", "0.5E1",
          # 20 digits that wrap modulo 2^64 to the digits of 2^-11 and -2^-12
          "0." + str(2 ** 64 + 48828125 * 10 ** 9), "-0." + str(2 ** 64 + 244140625 * 10 ** 8)])
def test_read_matches_oracle(tokens):
    assert_read_like_oracle(writer_layout(",".join(tokens), len(tokens)))


def _decade_edges():
    edges = []
    for k in range(-5, 1):
        below = above = 10.0 ** k
        for _ in range(40):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges.append(10.0 ** k)
    return np.array(edges)


def test_read_at_decade_edges():
    edges = _decade_edges().tolist()
    tokens = [spell(s * v) for v in edges for s in (1, -1) for spell in _SPELLINGS.values()]
    # decimals next to 10^-4 .. 1 that are not the text of a double: 17 and
    # 20 nines, 10^-k spelled with 20 digits, 1 + 10^-16 times 10^-k
    for z in range(4):
        tokens += ["0." + "0" * z + "9" * 17, "0." + "0" * z + "9" * (20 - z),
                   "0." + "0" * z + "1" + "0" * (19 - z), "0." + "0" * z + "1" + "0" * 15 + "1"]
    tokens += ["-0.99999999999999999", "0.000099999999999999999999", "0.0001"]
    assert_read_like_oracle(writer_layout(",".join(tokens), len(tokens)))


@pytest.mark.parametrize("second", ["0.25", "0.052734375", "-0.12345678901234566"])
@pytest.mark.parametrize("first", [
    "0.5", "-0.5", "0.0", "0.000244140625", "0.0001220703125", "0.00018310546875",
    "-0.0001220703125", "-0.00018310546875", "0.12345678901234567", "1", "-0.0",
])
def test_read_first_token_near_the_file_start(first, second):
    # the three words of a token are the 24 bytes before its end;
    # "0.0001220703125" (2^-13) ends 24 bytes into the file, and the digits
    # of a long second token lie in the file's first 24 bytes
    assert_read_like_oracle(writer_layout(first + "," + second, 2))


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_read_across_chunk_boundaries(n):
    tokens = [format(v, ".17") for v in (0.05 * rng(n).standard_normal(n)).tolist()]
    # tokens for json.loads at both ends and on both sides of the boundary
    for i, token in zip((_CHUNK - 2, _CHUNK - 1, _CHUNK, 0, n - 1),
                        ("0.1", "2", "1e-05", "1.5", "-0.0")):
        if i < n:
            tokens[i] = token
    assert_read_like_oracle(writer_layout(",".join(tokens), len(tokens)))


@pytest.mark.parametrize("block", [32, 64, kernel_io._BLOCK])
def test_read_across_block_edges(monkeypatch, block):
    # each step of the first token's length moves the rest of the document
    # one byte, so a block edge falls at every byte of the 24 before a
    # token's end, on its "," and on the "]"; the one-token documents keep
    # the "]" in the first block
    monkeypatch.setattr(kernel_io, "_BLOCK", block)
    slow = []
    real = kernel_io._numbers
    monkeypatch.setattr(kernel_io, "_numbers", lambda items: slow.extend(items) or real(items))
    # a little over one block of tokens
    x = 0.05 * rng(block).standard_normal(max(8, block // 18))
    tokens = [format(v, ".17") for v in x.tolist()]
    tokens[1::7] = ["1e-05"] * len(tokens[1::7])  # tokens for json.loads among them
    # short tokens, proven only with all of the 24 bytes before their end
    tokens[3::11] = ["0.5"] * len(tokens[3::11])
    tokens[5::13] = ["-0.25"] * len(tokens[5::13])
    unproven = [json.loads(t) for t in tokens if not _proven(t)]
    for m in range(48):
        first = "1" + "0" * m
        for doc, want in (([first], [int(first)]), ([first] + tokens, [int(first)] + unproven)):
            text = writer_layout(",".join(doc), len(doc))
            assert kernel_io._blocks(io.BytesIO(text.encode()).read) is not None
            slow.clear()
            kernel_from_json(text.encode())
            # the numpy parser proves the same tokens as in one block
            assert slow == want
            assert_read_like_oracle(text)
        # empty and "-" tokens, whose parse reads the byte after their ","
        bad = writer_layout(",".join([first] + ["", "-"] * 40), 81)
        for document in (bad, bad.encode()):
            with pytest.raises(ValueError):
                kernel_from_json(document)


def test_read_kernel_reads_as_kernel_from_json_of_the_file(tmp_path):
    # the file is read block by block, the bytes from memory: the same
    # kernel, or both refused
    base = json.loads(kernel_to_json(random_kernel(2, 2, 1, 1)))
    documents = [writer_layout(body, n) for body, n in _BAD_BODIES]
    for mutate in _MUTATIONS:
        doc = dict(base)
        mutate(doc)
        documents += [json.dumps(doc), json.dumps(doc, sort_keys=True, separators=(",", ":"))]
    path = tmp_path / "k.okt"
    for text in documents:
        path.write_text(text)
        assert _outcome(read_kernel, path) == _outcome(kernel_from_json, path.read_bytes())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_kernel_reads_a_pipe(tmp_path):
    # a pipe cannot be rewound for a document outside the writer's layout
    K = random_kernel(3, 2, 2, 2, seed=4)
    path = tmp_path / "k.fifo"
    os.mkfifo(path)
    for text in (kernel_to_json(K), json.dumps(json.loads(kernel_to_json(K)))):
        writer = threading.Thread(target=path.write_text, args=(text,))
        writer.start()
        try:
            back = read_kernel(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert back.data.tobytes() == K.data.tobytes()


def test_shape_claiming_more_entries_than_held_rejected(tmp_path):
    text = writer_layout("0.5,0.25", 2).replace("[2,1,1,1]", "[100000,100000,3,3]")
    path = tmp_path / "k.okt"
    path.write_text(text)
    for read, document in ((kernel_from_json, text), (kernel_from_json, text.encode()),
                           (read_kernel, path)):
        with pytest.raises(ValueError, match="does not match shape"):
            read(document)


def test_document_shorter_than_a_token_window_is_refused_by_its_fields():
    # shorter than the 24 bytes the numpy parser reads before a token's end
    for text, error in (('{"data":[0.5],"x":1}', "format None"), ('{"data":[0.5],', "char 1")):
        for document in (text, text.encode()):
            with pytest.raises(ValueError, match=error):
                kernel_from_json(document)


def test_read_peak_memory_is_bounded_by_the_array(tmp_path):
    # the reader holds a block of text, its tokens' arrays and the values
    # read so far, and at the end joins them into the kernel's array
    K = random_kernel(256, 128, 3, 3, seed=5, scale=0.05)
    path = tmp_path / "k.okt"
    write_kernel(path, K)
    back, peak = traced_peak(lambda: read_kernel(path))
    assert back.data.tobytes() == K.data.tobytes()
    assert peak <= 3 * K.data.nbytes + 2 ** 21


def test_write_peak_memory_is_bounded(tmp_path):
    # the writer holds one pass of `_CHUNK` entries' temporaries, whatever
    # the kernel's size (2.75 MiB here)
    K = random_kernel(256, 128, 3, 3, seed=5, scale=0.05)
    path = tmp_path / "k.okt"
    _, peak = traced_peak(lambda: write_kernel(path, K))
    assert kernel_from_json(path.read_bytes()).data.tobytes() == K.data.tobytes()
    assert peak <= 4 * 2 ** 20


def _proven(token: str) -> bool:
    """Whether the numpy parser keeps `token`, by its rule in exact
    arithmetic: the token is -?0.<F digits>, 1 <= F <= 20, with digits D,
    0 < D < 10^17; c0 = D / 10^F by the reader's two IEEE operations, u =
    ulp(c0), and one step k = round(r / (u 10^F)) of the residual r = D -
    c0 10^F gives c = c0 + k u.  c is kept when |r - k u 10^F| < (1/2 -
    2^-31) u 10^F, c is in c0's binade, and c is not a power of two unless
    its residual is 0."""
    digits = token.removeprefix("-").removeprefix("0.")
    if not (token.removeprefix("-").startswith("0.") and digits.isdigit()
            and 1 <= len(digits) <= 20 and 0 < int(digits) < 10 ** 17):
        return False
    d, scale = int(digits), 10 ** len(digits)
    c0 = float(d) / float(scale)
    u = math.ulp(c0)
    h = Fraction(u) * scale
    k = round((d - Fraction(c0) * scale) / h)
    c = c0 + k * u
    r = d - Fraction(c) * scale
    return (abs(r) < (Fraction(1, 2) - Fraction(1, 2 ** 31)) * h
            and math.frexp(c)[1] == math.frexp(c0)[1] and (math.frexp(c)[0] != 0.5 or r == 0))


def test_reader_proves_exactly_the_17_digit_values(monkeypatch):
    x = np.concatenate([0.05 * rng(1).standard_normal(3000), _decade_edges(),
                        [0.0, -0.0, 1.5, 2.0 ** -13, 3 * 2.0 ** -14]])
    tokens = ["1.5"] + [_SPELLINGS[name](s * v) for v in x.tolist() for s in (1, -1)
                        for name in sorted(_SPELLINGS)]
    slow = []
    real = kernel_io._numbers
    monkeypatch.setattr(kernel_io, "_numbers", lambda items: slow.extend(items) or real(items))
    text = writer_layout(",".join(tokens), len(tokens))
    assert_read_like_oracle(text)
    want = [json.loads(t) for t in tokens if not _proven(t)]
    assert sum(map(_proven, tokens)) > len(tokens) // 3
    assert list(map(repr, slow)) == list(map(repr, want)) * 3


def _routed(monkeypatch, tokens: list[str]) -> list:
    """The values that the reader of a writer-layout document of `tokens`
    gives `json.loads`, after checking that it reads like the oracle."""
    slow = []
    real = kernel_io._numbers
    monkeypatch.setattr(kernel_io, "_numbers", lambda items: slow.extend(items) or real(items))
    text = writer_layout(",".join(tokens), len(tokens))
    assert_read_like_oracle(text)
    # read three times: as text, as bytes and from a file
    assert len(slow) % 3 == 0
    return slow[:len(slow) // 3]


def _fixed(v: Fraction, digits: int) -> str:
    """The fraction digits of 0 <= v < 1, `digits` of them, truncated."""
    return str(v.numerator * 10 ** digits // v.denominator).zfill(digits)


def _midpoint_bank() -> tuple[list[str], list[str]]:
    """Decimal tokens at and next to the midpoints between adjacent doubles
    in the binades 2^-1 .. 2^-60: each exact midpoint, and, for 15..22
    significant digits, its two nearest spellings and one unit beyond each.
    Returns the exact midpoints and the rest."""
    exact, near = [], []
    gen = rng(8)
    for e in range(-1, -61, -1):
        for m in [0, 1, 2 ** 52 - 2] + gen.integers(0, 2 ** 52 - 1, 3).tolist():
            mid = Fraction(2 * (2 ** 52 + m) + 1, 2 ** (53 - e))
            k = mid.denominator.bit_length() - 1
            exact.append("0." + _fixed(mid, k))
            zeros = len(_fixed(mid, k)) - len(str(mid.numerator * 5 ** k))
            for n in range(15, 23):
                t = int(_fixed(mid, zeros + n))
                near += ["0." + str(v).zfill(zeros + n) for v in range(t - 1, t + 3)]
    return exact, near


def _within_the_margin() -> list[str]:
    """17- and 20-digit tokens 2^-j (in units of their last digit) from a
    midpoint between adjacent doubles, on both sides: inside the reader's
    2^-31 ulp margin, so left to `json.loads`, though rounding is not in
    doubt.  The midpoint m = odd 2^(e - 53) has m 10^F = odd 5^F / 2^j,
    with j = 53 - e - F <= 53; an odd in [2^53, 2^54) with odd 5^F = +-1
    mod 2^j puts m 10^F 2^-j from an integer."""
    tokens = []
    for f, binades in ((17, range(-1, -18, -1)), (20, range(-10, -21, -1))):
        for e in binades:
            j = 53 - e - f
            inverse = pow(5 ** f, -1, 2 ** j)
            for t in (1, 2 ** j - 1):
                odd = t * inverse % 2 ** j
                odd += 2 ** j * -(-(2 ** 53 - odd) // 2 ** j)
                d = (odd * 5 ** f + 2 ** j // 2) // 2 ** j
                assert 2 ** 53 < odd < 2 ** 54 and d < 10 ** 17
                tokens.append("0." + str(d).zfill(f))
    return tokens


def test_reader_proves_no_midpoint(monkeypatch):
    # no exact midpoint is proven: each has 54 or more fraction digits;
    # the tokens next to them, and powers of two and their neighbours, are
    # proven only by the residual rule
    exact, near = _midpoint_bank()
    near += _within_the_margin()
    powers = []
    for e in range(-1, -61, -1):
        # the ulp above 2^e; the one below is half of it
        p, ulp = 2.0 ** e, math.ulp(2.0 ** e)
        powers += [p - ulp, p - ulp / 2, p, p + ulp, p + 2 * ulp]
    near += [_SPELLINGS[name](v) for v in powers for name in sorted(_SPELLINGS)]
    tokens = exact + near + ["-" + t for t in near[::5]]
    want = [json.loads(t) for t in tokens if not _proven(t)]
    assert not any(map(_proven, exact))
    assert not any(map(_proven, _within_the_margin()))
    # most of the tokens with 20 fraction digits or fewer are proven
    short = [t for t in tokens if len(t.removeprefix("-")) <= 22]
    assert sum(map(_proven, short)) > len(short) // 2
    assert list(map(repr, _routed(monkeypatch, tokens))) == list(map(repr, want))


def test_shortest_repr_document_of_a_built_kernel_is_proven(monkeypatch):
    # a kernel written by another writer as `repr` text, 1..17 digits long
    K, _ = aoc_kernel(AocConfig(ConvSpec(c_in=32, c_out=64, k_h=3, k_w=3, stride=2), seed=1))
    tokens = list(map(repr, K.data.ravel().tolist()))
    assert len(_routed(monkeypatch, tokens)) <= len(tokens) // 100


@pytest.mark.parametrize("bad", "e:/.- E")
def test_non_digits_among_the_first_four_of_20_digits_read_as_json_does(bad):
    # of a token's last 24 bytes, the first 8 may hold only "0"s and one
    # digit before the last 16; a 17..20 digit token with another byte
    # there reads (or is refused) as `json.loads` decides
    for f in range(17, 21):
        for at in range(f - 16):
            digits = "0" * (f - 17) + "91234567890123456"
            token = "0." + digits[:at] + bad + digits[at + 1:]
            text = writer_layout("0.25," + token, 2)
            want = _outcome(kernel_io._whole_document, text)
            assert _outcome(kernel_from_json, text) == want
            assert _outcome(kernel_from_json, text.encode()) == want


def _outcome(read, text):
    try:
        K = read(text)
    except ValueError:
        return None
    return K.data.tobytes(), K.shape, K.groups


_EDITS = st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from("sid"),
                            st.sampled_from('0123456789.,-+eE []{}"tnx\t')), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKENS, min_size=1, max_size=30), _EDITS)
def test_edited_documents_read_as_the_whole_document_path(tokens, edits):
    # byte edits of a writer-layout document: accepted with the same bits,
    # or refused, exactly as `json.loads` of the whole document decides
    text = writer_layout(",".join(tokens), len(tokens))
    for at, op, c in edits:
        i = int(at * len(text))
        text = {"s": text[:i] + c + text[i + 1:], "i": text[:i] + c + text[i:],
                "d": text[:i] + text[i + 1:]}[op]
    want = _outcome(kernel_io._whole_document, text)
    assert _outcome(kernel_from_json, text) == want
    assert _outcome(kernel_from_json, text.encode()) == want
