"""Oracles: plain versions of library routines that must give the same bits.

`format_floats_ref` is the okt-v1 float text as one `format` call per
entry; the writer formats most entries in numpy and must give the same
bytes.  `read_floats_ref` is the "data" of an okt-v1 document as
`json.loads` and `np.asarray` read it; the reader parses most numbers in
numpy and must give the same bits.

`block_conv_naive` is block convolution as the literal loop over output
entries, each summing over its own group's middle channels, and
`sequential_compose` the left fold of a chain with it; `block_conv_fast`
sums in another order, batched over the groups, and must agree with them
to rounding.  `projector_kernel_ref` is the unstrided projector kernel as
that literal chain: the 1x1 channel map, then each dense 2x1 or 1x2
factor [N, I-N], N = M M^T, composed with `sequential_compose`; the
library folds each factor in closed form and must agree to rounding.

`conv2d_scatter` and `conv2d_transpose_scatter` are the per-tap loops
`tensor_core.conv2d_ref` and `conv2d_transpose_ref` used before they took a
tap-major kernel copy and turned the adjoint's scatter into a gather: each
tap multiplies by the strided kernel slice `Kg[..., i', j']`, and the
adjoint adds its tap into the output through fancy indices.  The operators
must give the same bits.

`polar_ref`, `orthogonalize_ref` and `aoc_kernel_per_group` are the
builders before groups became a stack axis of the whole build: the polar
factor from the SVD of one 2-D matrix at a time, and `aoc_kernel` as a
loop that builds each group q alone from slab q of each factor's draw
for all groups, orthogonalizing its factors one by one, folding the
projector factors with the library's own `_fold_projector` on a stack of
one kernel, fusing an ungrouped branch-"d" pair with `block_conv_fast`,
and concatenating the groups.  The stacked builders must give the same
bytes and branch tags, and refuse with the same exception type and
message.

`bjorck_ref` is Björck's iteration itself, the independent route to the
polar factor: run to convergence, it must agree with `polar_ref` to
rounding.

`impulse_stack` is the polyphase operator as `conv2d_ref` itself gives
it: its responses to the unit impulses at (c, p, q), p, q < s, which fix
the whole block-circulant operator, and `diagonal_blocks` splits such a
stack into its groups.  Their `fft2` over the output grid is what
`verify._frequency_blocks` computes from the taps, by a DFT over their
lags, and must agree to rounding.
"""

import json
import math

import numpy as np

from orthokernel import (
    KernelTensor,
    UnsupportedConfigError,
    block_conv_fast,
    cayley_rect,
    conv2d_ref,
    exp_map,
    qr_mgs,
    sample_params,
)
from orthokernel.blockconv import _require_compat
from orthokernel.construct import BranchTag, _factor_axes, _fold_projector
from orthokernel.orthogonalize import DEFAULT_SCHEME, SCHEMES
from orthokernel.verify import _impulse_matrix


def format_floats_ref(values) -> str:
    """The okt-v1 text of a flat list of floats: `format(v, ".17")` each,
    joined by ","."""
    return ",".join(format(v, ".17") for v in np.asarray(values, dtype=np.float64).tolist())


def read_floats_ref(text) -> np.ndarray:
    """The "data" of an okt-v1 document, read by `json.loads` as float64."""
    return np.asarray(json.loads(text)["data"], dtype=np.float64)


def block_conv_naive(B, A):
    """B . A as a literal quadruple loop over output entries; output
    channel m of group q sums over group q's middle channels."""
    _require_compat(A, B)
    Ad, Bd = A.data, B.data
    cm, ci, k1, k2 = Ad.shape
    co, cm_g, l1, l2 = Bd.shape
    co_g = co // A.groups
    K1, K2 = k1 + l1 - 1, k2 + l2 - 1
    out = np.zeros((co, ci, K1, K2))
    for m in range(co):
        mid = slice(m // co_g * cm_g, (m // co_g + 1) * cm_g)
        for n in range(ci):
            for i in range(K1):
                for j in range(K2):
                    acc = 0.0
                    for ip in range(max(0, i - k1 + 1), min(l1, i + 1)):
                        for jp in range(max(0, j - k2 + 1), min(l2, j + 1)):
                            acc += Bd[m, :, ip, jp] @ Ad[mid, n, i - ip, j - jp]
                    out[m, n, i, j] = acc
    return KernelTensor(out, groups=A.groups)


def sequential_compose(chain):
    """Left fold chain[n-1] . ... . chain[0] with `block_conv_naive`."""
    if len(chain) == 0:
        raise ValueError("cannot compose an empty chain")
    K = chain[0]
    for F in chain[1:]:
        K = block_conv_naive(F, K)
    return K


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


def _sweeps(W, beta, iters):
    for _ in range(iters):
        if W.shape[0] <= W.shape[1]:
            W = (1.0 + beta) * W - beta * (W @ W.T) @ W
        else:
            W = (1.0 + beta) * W - beta * W @ (W.T @ W)
    return W


def _residual(O):
    G = O @ O.T if O.shape[0] <= O.shape[1] else O.T @ O
    return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def bjorck_ref(W, beta=0.5, iters=12):
    """Björck on one 2-D matrix: divided by the square root of the largest
    absolute row sum of its smaller Gram side, `iters` sweeps, then rounds
    of 4 sweeps while the residual is above 1e-12, at most 60 more.
    Returns (O, extra sweeps)."""
    W = np.asarray(W, dtype=np.float64)
    if not np.any(W):
        raise ValueError("cannot orthogonalize the zero matrix")
    if not (0.0 < beta <= 0.5):
        raise ValueError(f"beta must lie in (0, 0.5], got {beta}")
    G = W @ W.T if W.shape[0] <= W.shape[1] else W.T @ W
    O = _sweeps(W / math.sqrt(max(np.sum(np.abs(row)) for row in G)), beta, iters)
    extra = 0
    while _residual(O) > 1e-12 and extra < 60:
        O = _sweeps(O, beta, 4)
        extra += 4
    return O, extra


def polar_ref(W):
    """The polar factor U V^T of one 2-D matrix W = U S V^T, refused when
    its smallest singular value is at most 1e-12 of its largest."""
    U, S, Vt = np.linalg.svd(np.asarray(W, dtype=np.float64), full_matrices=False)
    if S[-1] <= 1e-12 * S[0]:
        raise ValueError(f"cannot orthogonalize a rank-deficient matrix: singular values "
                         f"{S[0]:.3g} to {S[-1]:.3g}")
    return U @ Vt


def orthogonalize_ref(W, scheme=DEFAULT_SCHEME):
    """`orthogonalize_stack` on one matrix: rectangular exponential draws
    take the polar factor, as `bjorck` does."""
    W = np.asarray(W, dtype=np.float64)
    if scheme == "bjorck":
        return polar_ref(W)
    if scheme == "qr_mgs":
        return qr_mgs(W) if W.shape[0] >= W.shape[1] else qr_mgs(W.T).T
    if scheme == "cayley":
        return cayley_rect(W) if W.shape[0] >= W.shape[1] else cayley_rect(W.T).T
    if scheme == "exponential":
        return exp_map(W) if W.shape[0] == W.shape[1] else polar_ref(W)
    if scheme == "cholesky":
        return qr_mgs(W.T).T if W.shape[0] <= W.shape[1] else qr_mgs(W)
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def _orth(shape, seed, scheme, slab=(1, 0)):
    """Slab q of the draw `sample_params((g, *shape), seed)` for
    slab = (g, q), orthogonalized alone."""
    g, q = slab
    return orthogonalize_ref(sample_params((g, *shape), seed)[q], scheme)


def projector_factor_ref(M, axis):
    """The dense 2x1 (axis=2) or 1x2 (axis=3) factor [N, I-N], N = M M^T,
    of a column-orthogonal base M."""
    N = M @ M.T
    return KernelTensor(np.stack([N, np.eye(M.shape[0]) - N], axis=-1).reshape(
        (*N.shape, 2, 1) if axis == 2 else (*N.shape, 1, 2)))


def _projector_draws(c_in, c_out, k1, k2, seed, scheme, slab=(1, 0)):
    """Width c, factor axes, channel map and projector bases of one
    projector kernel (group q of g for slab = (g, q)), each orthogonalized
    alone."""
    c = max(c_in, c_out)
    axes = list(_factor_axes(k1, k2))
    if axes and c < 2:
        raise UnsupportedConfigError(
            f"channel width 1 is unsupported for a {k1}x{k2} projector kernel: "
            f"its half-rank factors need at least 2 channels, got c_in={c_in}, "
            f"c_out={c_out}"
        )
    C = _orth((c, c_in), (seed, 1), scheme, slab)
    Ms = [_orth((c, c // 2), (seed, 2 + t), scheme, slab) for t in range(len(axes))]
    return c, axes, C, Ms


def projector_kernel_ref(c_in, c_out, k1, k2, seed, scheme=DEFAULT_SCHEME):
    """`bcop_kernel` as the literal chain of dense factors composed by
    `sequential_compose`."""
    c, axes, C, Ms = _projector_draws(c_in, c_out, k1, k2, seed, scheme)
    chain = [KernelTensor(C.reshape(c, c_in, 1, 1))]
    chain += [projector_factor_ref(M, axis) for M, axis in zip(Ms, axes)]
    K = sequential_compose(chain)
    return KernelTensor(K.data[:c_out])


def _projector_kernel(c_in, c_out, k1, k2, cfg, slab):
    c, axes, C, Ms = _projector_draws(c_in, c_out, k1, k2, cfg.seed, cfg.scheme, slab)
    K = C.reshape(c, c_in, 1, 1)
    for M, axis in zip(Ms, axes):
        K = _fold_projector(K[None], M[None], axis + 1)[0]
    return KernelTensor(K[:c_out])


def _rko_kernel(c_in, c_out, s, seed, cfg, slab):
    W = _orth((c_out, c_in * s * s), seed, cfg.scheme, slab)
    return KernelTensor(W.reshape(c_out, c_in, s, s))


def _group_kernel(ci, co, k1, k2, s, cfg, slab):
    if k1 == s and k2 == s:
        return _rko_kernel(ci, co, s, cfg.seed, cfg, slab), "b", None
    if s == 1:
        return _projector_kernel(ci, co, k1, k2, cfg, slab), "a", None
    c = max(ci, co // (s * s))
    inner = _projector_kernel(ci, c, k1 - s + 1, k2 - s + 1, cfg, slab)
    outer = _rko_kernel(c, co, s, (cfg.seed, 1 << 20), cfg, slab)
    return block_conv_fast(outer, inner), "d", c


def aoc_kernel_per_group(cfg):
    """`aoc_kernel` as a loop over groups, each built alone from slab q
    of each factor's draw for all g groups."""
    spec = cfg.spec
    s, g, d = spec.stride, spec.groups, spec.dilation
    k1, k2 = spec.k_h, spec.k_w
    if s > k1 or s > k2:
        raise UnsupportedConfigError(
            f"no orthogonal kernel exists for stride {s} > kernel size {k1}x{k2}"
        )
    if s > 1 and d > 1 and math.gcd(s, d) > 1:
        raise UnsupportedConfigError(
            f"stride {s} and dilation {d} share a common factor; the strided "
            f"dilated convolution never reads part of its input and cannot "
            f"be orthogonal in both directions"
        )
    ci, co = spec.c_in // g, spec.c_out // g
    kernels = []
    for q in range(g):
        K_q, branch, width = _group_kernel(ci, co, k1, k2, s, cfg, (g, q))
        kernels.append(K_q.data)
    K = KernelTensor(np.concatenate(kernels, axis=0), groups=g)
    return K, BranchTag(branch=branch, internal_width=width)


def impulse_stack(K, spec, h, w):
    """Responses of `conv2d_ref` to the unit impulses at (c, p, q),
    p, q < s, as [c_out][h/s][w/s][(c, p, q)]."""
    s = spec.stride
    impulses = [c * h * w + p * w + q
                for c in range(spec.c_in) for p in range(s) for q in range(s)]
    T = _impulse_matrix(lambda e: conv2d_ref(K, e, spec), (spec.c_in, h, w),
                        spec.c_out * (h // s) * (w // s), impulses)
    return T.reshape(spec.c_out, h // s, w // s, -1)


def diagonal_blocks(stack, g):
    """The groups' diagonal blocks [g][h/s][w/s][c_out/g][c_in/g*s^2] of an
    impulse stack [c_out][h/s][w/s][c_in*s^2]; every off-diagonal block
    must be zero."""
    c_out, ho, wo, n = stack.shape
    blocks = stack.reshape(g, c_out // g, ho, wo, g, n // g).transpose(0, 4, 2, 3, 1, 5)
    assert not np.any(blocks[~np.eye(g, dtype=bool)])
    return blocks[np.arange(g), np.arange(g)]
