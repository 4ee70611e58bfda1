import json

import numpy as np
import pytest

from orthokernel import KernelTensor, kernel_from_json, kernel_to_json, read_kernel, write_kernel
from conftest import random_kernel


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
