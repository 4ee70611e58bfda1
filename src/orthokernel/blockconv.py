"""Block convolution: fusing two convolution kernels into one.

`block_conv(B, A)` produces the single kernel whose convolution equals
applying A first and B second.  Entrywise,

    (B . A)[m, n, i, j] = sum_{c, i', j'} B[m, c, i', j'] * A[c, n, i-i', j-j']

with A treated as zero outside its support; the result has spatial size
(k1A + k1B - 1, k2A + k2B - 1).  Two kernels with the same g groups fuse
group by group: group q of the result is group q of B after group q of
A.  `block_conv_fast` splits the sum by the tap (u, v) of B: one matrix
product (a BLAS GEMM, batched over the groups) per tap multiplies that
tap's channel matrix with all of A, and adds the product in place into the
output at spatial offset (u, v).  It sums in a different order than the
literal loop over output entries, so the two agree to rounding (1e-12 in
the tests), not bit for bit.  That loop is the oracle of this module's
fusion, and its sequential fold over a projector chain the oracle of
`construct`'s closed-form projector fold; both live in the test suite
(`tests/oracles.py`), not in the library.
The call holds the output, one tap's channel matrix and its product; the
returned kernel is the output itself, not a copy.

Under the centred tap convention, applying the fused kernel matches the
two-step application exactly whenever at most one of the two sizes is even
per axis; an even-by-even fusion differs by a one-pixel circular shift
(which leaves singular values and orthogonality untouched).

`product_bound` bounds the operator norm of a chain at every image size
from each factor's Gram kernel, which it fuses here, all groups at once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .tensor_core import KernelTensor, kernel_transpose

def _require_compat(A: KernelTensor, B: KernelTensor):
    """Refuse unless B can be applied after A: both with the same groups,
    and B's input channels match A's output channels."""
    if A.groups != B.groups:
        raise ValueError(
            f"block convolution expects kernels with equal groups, got "
            f"{B.groups} (B) and {A.groups} (A)"
        )
    if B.c_in != A.c_out:
        raise ValueError(
            f"incompatible kernels: B expects {B.c_in} input channels, "
            f"A produces {A.c_out}"
        )


def block_conv_fast(B: KernelTensor, A: KernelTensor) -> KernelTensor:
    """Fused-kernel computation as one GEMM per tap of B and a shifted sum.

    The product of tap (u, v)'s co x cm channel matrix with the
    cm x (ci*k1*k2) flattening of A lands at out[..., u:u+k1, v:v+k2];
    with g groups, it is a batch of g products, one per group.
    """
    _require_compat(A, B)
    g = A.groups
    cm, ci, k1, k2 = A.shape
    co, _, l1, l2 = B.shape
    Bd = B.data.reshape(g, co // g, cm // g, l1, l2)
    flat = A.data.reshape(g, cm // g, ci * k1 * k2)
    out = np.zeros((g, co // g, ci, k1 + l1 - 1, k2 + l2 - 1))
    for u in range(l1):
        for v in range(l2):
            # the tap made contiguous, so it always goes to BLAS: numpy
            # multiplies a strided slice by a one-column A in its own loop,
            # which rounds differently
            out[..., u:u + k1, v:v + k2] += (np.ascontiguousarray(Bd[..., u, v]) @ flat).reshape(
                g, co // g, ci, k1, k2)
    return KernelTensor._adopt(out.reshape(co, ci, *out.shape[-2:]), groups=g)


def product_bound(factors: Sequence[KernelTensor]) -> float:
    """Upper bound on the spectral norm of a fused chain's circular
    operator at every image size, stride and dilation: the product of the
    factors' bounds, each 1 (to rounding) for an orthogonal factor.

    A factor's bound is sqrt(sum over taps (i, j) of ||G[:, :, i, j]||_2),
    with G = K . K^T its Gram kernel on the smaller channel side (K^T . K
    when c_out > c_in): ||T||^2 = ||T T^T||, and T T^T is, up to a
    circular shift, the sum of each tap's channel matrix times a shift.
    A grouped factor's operator is block-diagonal over its groups, so its
    bound is the largest group's.
    """
    if len(factors) == 0:
        raise ValueError("product bound of an empty chain")
    bound = 1.0
    for K in factors:
        Kt = kernel_transpose(K)
        G = block_conv_fast(K, Kt) if K.c_out <= K.c_in else block_conv_fast(Kt, K)
        c = G.shape[1]
        taps = G.data.reshape(K.groups, c, c, -1).transpose(0, 3, 1, 2)
        bound *= math.sqrt(np.linalg.norm(taps, 2, axis=(-2, -1)).sum(axis=1).max())
    return bound
