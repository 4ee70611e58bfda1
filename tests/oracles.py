"""Oracles: plain versions of library routines that must give the same bits.

`format_floats_ref` is the okt-v1 float text as one `format` call per
entry; the writer formats most entries in numpy and must give the same
bytes.  `read_floats_ref` is the "data" of an okt-v1 document as
`json.loads` and `np.asarray` read it; the reader parses most numbers in
numpy and must give the same bits.

`conv2d_scatter` and `conv2d_transpose_scatter` are the per-tap loops
`tensor_core.conv2d_ref` and `conv2d_transpose_ref` used before they took a
tap-major kernel copy and turned the adjoint's scatter into a gather: each
tap multiplies by the strided kernel slice `Kg[..., i', j']`, and the
adjoint adds its tap into the output through fancy indices.  The operators
must give the same bits.
"""

import json

import numpy as np


def format_floats_ref(values) -> str:
    """The okt-v1 text of a flat list of floats: `format(v, ".17")` each,
    joined by ","."""
    return ",".join(format(v, ".17") for v in np.asarray(values, dtype=np.float64).tolist())


def read_floats_ref(text) -> np.ndarray:
    """The "data" of an okt-v1 document, read by `json.loads` as float64."""
    return np.asarray(json.loads(text)["data"], dtype=np.float64)


def conv2d_scatter(K, x, spec):
    """`conv2d_ref` as a loop over taps with strided kernel slices."""
    x = np.asarray(x, dtype=np.float64)
    lead = x.shape[:-3]
    c_in, h, w = x.shape[-3:]
    s, d, g = spec.stride, spec.dilation, spec.groups
    kh, kw = spec.k_h, spec.k_w
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    ho, wo = h // s, w // s
    xg = x.reshape(*lead, g, c_in // g, h, w)
    Kg = K.data.reshape(g, spec.c_out // g, c_in // g, kh, kw)
    y = np.zeros((*lead, g, spec.c_out // g, ho, wo))
    I = np.arange(ho) * s
    J = np.arange(wo) * s
    for ip in range(kh):
        raw_r = I - (ip - oh) * d
        for jp in range(kw):
            raw_c = J - (jp - ow) * d
            sub = xg[..., (raw_r % h)[:, None], (raw_c % w)[None, :]]
            y += (Kg[..., ip, jp] @ sub.reshape(*lead, g, c_in // g, ho * wo)).reshape(y.shape)
    return y.reshape(*lead, spec.c_out, ho, wo)


def conv2d_transpose_scatter(K, x, spec):
    """`conv2d_transpose_ref` as a loop over taps that scatters each tap
    into the output with a fancy-index `+=`."""
    x = np.asarray(x, dtype=np.float64)
    lead = x.shape[:-3]
    s, d, g = spec.stride, spec.dilation, spec.groups
    ho, wo = x.shape[-2:]
    h, w = ho * s, wo * s
    kh, kw = spec.k_h, spec.k_w
    oh, ow = (kh - 1) // 2, (kw - 1) // 2
    xg = x.reshape(*lead, g, spec.c_out // g, ho * wo)
    Kg = K.data.reshape(g, spec.c_out // g, spec.c_in // g, kh, kw)
    y = np.zeros((*lead, g, spec.c_in // g, h, w))
    I = np.arange(ho) * s
    J = np.arange(wo) * s
    for ip in range(kh):
        raw_r = I - (ip - oh) * d
        for jp in range(kw):
            raw_c = J - (jp - ow) * d
            contrib = (Kg[..., ip, jp].transpose(0, 2, 1) @ xg).reshape(
                *lead, g, spec.c_in // g, ho, wo)
            # distinct (i, j) scatter to distinct targets within one tap,
            # so fancy += is collision-free here
            y[..., (raw_r % h)[:, None], (raw_c % w)[None, :]] += contrib
    return y.reshape(*lead, spec.c_in, h, w)
