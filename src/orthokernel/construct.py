"""Explicit construction of orthogonal convolution kernels.

Three building blocks and one adaptive front end:

* `bcop_kernel` - compose alternating 2x1 and 1x2 projector factors
  [N, I-N] with a 1x1 orthogonal channel map into a k1 x k2 kernel that
  is orthogonal as an unstrided convolution.  Each factor's block
  convolution is evaluated in closed form, as a rank-floor(c/2) update
  of the kernel so far (`_fold_projector`).
* `rko_kernel` - orthogonalize the (c_out) x (c_in*k1*k2) flattening and
  reshape; orthogonal as a strided convolution exactly when k == s.
* `aoc_kernel` - pick the cheapest construction that is orthogonal for
  the requested stride/size (the same for every group) and fuse the
  factors into a single kernel via block convolution.  The groups are a
  stack axis of the whole build: each factor is one draw for all groups,
  orthogonalized as one stack, each projector fold and the branch-"d"
  fusion runs once over all groups, and the result is one grouped kernel.

Every builder is deterministic in its seed.  Orthogonality of the results
is established independently by the `verify` module.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .blockconv import block_conv_fast, product_bound
from .orthogonalize import DEFAULT_SCHEME, SCHEMES, orthogonalize_stack, sample_params
from .tensor_core import (
    ConvSpec,
    KernelTensor,
    UnsupportedConfigError,
    _is_int,
    kernel_transpose,
)

@dataclass(frozen=True)
class AocConfig:
    """Full recipe for an adaptive orthogonal convolution kernel."""

    spec: ConvSpec
    scheme: str = DEFAULT_SCHEME
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        _check_seed(self.seed)


def _check_seed(seed) -> None:
    # numpy splits an integer seed into 32-bit words, so a seed of 2**32
    # or more would draw the stream of a tuple of smaller seed words
    if not _is_int(seed) or not 0 <= seed < 2 ** 32:
        raise ValueError(f"seed must be an integer in [0, 2**32), got {seed!r}")


@dataclass(frozen=True)
class BranchTag:
    """Which construction the adaptive builder chose, and why.

    branch "a": unstrided projector composition (s == 1)
    branch "b": reshaped-kernel orthogonalization (k == s)
    branch "d": fusion of an s x s reshaped factor with a
                (k-s+1)-size projector factor (every other strided case)

    Channel-increasing strided groups take branch "d" too: an unstrided
    kernel applied with stride s > 1 is never orthogonal, since stride
    selection keeps a column-orthogonal operator orthogonal only if the
    rows it drops vanish for every input, which no nonzero
    translation-equivariant map does.

    `to_dict` gives the "branch" object of the build sidecar, with keys
    branch and internal_width.
    """

    branch: str
    internal_width: int | None = None

    def to_dict(self) -> dict:
        return {"branch": self.branch, "internal_width": self.internal_width}


#: the most entries an `aoc_kernel` build may hold in its kernel or in its
#: largest factor stack (512 MiB of float64); a 2048->2048 k3 layer needs
#: 37.7 M
MAX_ENTRIES = 1 << 26

def _grouped(stack: np.ndarray) -> KernelTensor:
    """The grouped kernel of a stack of per-group kernels [g][c_out/g]..."""
    return KernelTensor._adopt(stack.reshape(-1, *stack.shape[2:]), groups=len(stack))


def _factor_axes(k1: int, k2: int) -> Iterator[int]:
    """Spatial axes of the projector factors needed for a k1 x k2 kernel,
    in order: (k1-1) vertical (axis 2) and (k2-1) horizontal (axis 3)
    ones, alternating pairwise."""
    for t in range(max(k1 - 1, k2 - 1)):
        if t < k1 - 1:
            yield 2
        if t < k2 - 1:
            yield 3


def _fold_projector(K: np.ndarray, M: np.ndarray, axis: int) -> np.ndarray:
    """The block convolution [N, I-N] . K[n], N = M[n] M[n]^T, of each
    kernel of a stack K[n][c][c_in][k1][k2] by the 2x1 (axis=3) or 1x2
    (axis=4) projector factor of its column-orthogonal c x floor(c/2) base
    M[n], in closed form: K1 + M (M^T (K0 - K1)), where K0 and K1 are K
    padded by one tap after and before along `axis`.  The result is built
    in one array.  Raises ValueError if any M^T M is more than 1e-6 from I."""
    Mt = M.swapaxes(-1, -2)
    if np.max(np.abs(Mt @ M - np.eye(M.shape[-1]))) > 1e-6:
        raise ValueError("M is not column orthogonal (orthogonalize it first)")
    at = (slice(None),) * axis
    shape = list(K.shape)
    shape[axis] += 1
    out = np.empty(shape)
    # out holds K0 - K1, then N (K0 - K1), then that plus K1
    out[at + (slice(-1),)] = K
    out[at + (-1,)] = 0.0
    out[at + (slice(1, None),)] -= K
    D = out.reshape(*K.shape[:2], -1)
    np.matmul(M, Mt @ D, out=D)
    out[at + (slice(1, None),)] += K
    return out


def _projector_entries(c_in, c_out, k1, k2) -> int:
    """Entries per group of the largest array `_projector_kernels` holds:
    the kernel composed at width c, or the stack of all k1 + k2 - 2
    c x floor(c/2) projector bases."""
    c = max(c_in, c_out)
    return c * max(c_in * k1 * k2, (k1 + k2 - 2) * (c // 2))


def _projector_kernels(c_in, c_out, k1, k2, g, seed, scheme) -> KernelTensor:
    """The unstrided projector construction for g groups.

    All projector factors live at width c = max(c_in, c_out).  The 1x1
    channel map sits at the input end (applied first), and each projector
    factor, in `_factor_axes` order, is folded onto it by
    `_fold_projector`, for all groups at once.  The channel map is drawn
    from the sub-seed (seed, 1) and the base of factor t from (seed, 2 + t);
    the bases of all factors and groups are orthogonalized as one stack,
    since each `orthogonalize_stack` call has a fixed cost that dominates
    on small layers, and each base is freed after its fold.  When
    c_out < c the composed kernel is truncated to its first c_out output
    channels, which preserves row orthogonality (deleting rows of a
    row-orthogonal matrix keeps it row orthogonal).  The caller passes
    validated sizes.
    """
    c = max(c_in, c_out)
    if (k1 > 1 or k2 > 1) and c < 2:
        raise UnsupportedConfigError(
            f"channel width 1 is unsupported for a {k1}x{k2} projector kernel: "
            f"its half-rank factors need at least 2 channels, got c_in={c_in}, "
            f"c_out={c_out}"
        )
    K = orthogonalize_stack(sample_params((g, c, c_in), (seed, 1)), scheme).reshape(
        g, c, c_in, 1, 1)
    axes = list(_factor_axes(k1, k2))
    if axes:
        stack = orthogonalize_stack(np.concatenate(
            [sample_params((g, c, c // 2), (seed, 2 + t)) for t in range(len(axes))]), scheme)
        # each base is a copy, dropped after its fold: no fold holds the stack
        bases = [M.copy() for M in stack.reshape(len(axes), g, c, c // 2)]
        del stack
        for axis in axes:
            K = _fold_projector(K, bases.pop(0), axis + 1)
    # a truncated kernel is copied, so it does not hold the dropped rows
    return _grouped(K[:, :c_out].copy() if c_out < c else K)


def _rko_kernels(c_in, c_out, k1, k2, g, seed, scheme) -> KernelTensor:
    Ws = orthogonalize_stack(sample_params((g, c_out, c_in * k1 * k2), seed), scheme)
    return _grouped(Ws.reshape(g, c_out, c_in, k1, k2))


def bcop_kernel(c_in, c_out, k1, k2, seed=0, scheme=DEFAULT_SCHEME) -> KernelTensor:
    """Unstrided orthogonal kernel from alternating 2x1 / 1x2 projector
    pairs applied after a 1x1 orthogonal channel map.

    The resulting convolution (stride 1, circular padding) is row
    orthogonal when c_out <= c_in and column orthogonal otherwise.
    Sizes that `ConvSpec` refuses raise its ValueError.
    """
    ConvSpec(c_in, c_out, k1, k2)
    return _projector_kernels(c_in, c_out, k1, k2, 1, seed, scheme)


def rko_kernel(c_in, c_out, k1, k2, seed=0, scheme=DEFAULT_SCHEME) -> KernelTensor:
    """Orthogonalize the c_out x (c_in*k1*k2) flattening and reshape back.

    The strided convolution with this kernel is orthogonal precisely when
    k1 == k2 == s (non-overlapping receptive fields); for other strides it
    is 1-Lipschitz material but carries no orthogonality claim.  Sizes
    that `ConvSpec` refuses raise its ValueError.
    """
    ConvSpec(c_in, c_out, k1, k2)
    return _rko_kernels(c_in, c_out, k1, k2, 1, seed, scheme)


def _choose_branch(spec: ConvSpec) -> tuple[str, int | None]:
    """The branch `aoc_kernel` takes for `spec`, and its internal width
    (branch "d" only).  Raises UnsupportedConfigError, before anything is
    allocated, for s > k, a stride sharing a factor with the dilation, and
    a layer whose kernel or largest factor stack over all groups (the
    projector kernel composed at its full width, the stack of its projector
    bases, or the reshaped factor) would hold more than MAX_ENTRIES
    entries."""
    g, s, d = spec.groups, spec.stride, spec.dilation
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
    width = None
    if k1 == s and k2 == s:
        branch, factor = "b", co * ci * s * s
    elif s == 1:
        branch, factor = "a", _projector_entries(ci, co, k1, k2)
    else:
        branch, width = "d", max(ci, co // (s * s))
        factor = max(_projector_entries(ci, width, k1 - s + 1, k2 - s + 1),
                     co * width * s * s)
    kernel, factor = spec.c_out * ci * k1 * k2, g * factor
    if max(kernel, factor) > MAX_ENTRIES:
        raise UnsupportedConfigError(
            f"layer too large: its kernel has {kernel} entries and its largest "
            f"factor {factor}, above the budget of {MAX_ENTRIES} entries"
        )
    return branch, width


def aoc_kernel(cfg: AocConfig) -> tuple[KernelTensor, BranchTag]:
    """Build an orthogonal convolution kernel for an arbitrary valid
    (c_in, c_out, k, s, g, d) configuration.

    Groups are a stack axis: every group takes the same branch, and each
    factor is one draw `sample_params((g, *shape), sub_seed)` for all
    groups, orthogonalized in one `orthogonalize_stack` pass (one pass for
    all projector bases).  Group q is composed from slab q of each draw,
    so group 0 of a grouped layer is the ungrouped layer of its per-group
    shape at the same seed, and layers with different seeds share no
    group.  The sub-seeds are
    (seed, 1) for the channel map, (seed, 2 + t) for projector factor t,
    (seed, 1 << 20) for branch "d"'s outer factor, and `seed` itself for
    branch "b".  No sub-seed word is 0: numpy's SeedSequence ignores
    trailing zero words, so (seed, 0) would draw the stream of `seed`.
    Dilation returns the same kernel (orthogonality transfers to the
    dilated operator); the spec carries d.  Raises UnsupportedConfigError
    for configurations with no orthogonal kernel: s > k, per-group
    projector width < 2 with k > s (refused by the projector construction
    itself), and stride sharing a factor with the dilation (the read
    lattice then drops input sites, which no kernel of this shape can
    compensate); and, before anything is allocated, for a layer whose
    kernel or largest factor stack exceeds MAX_ENTRIES entries.
    """
    spec = cfg.spec
    branch, width = _choose_branch(spec)
    g, s, k1, k2 = spec.groups, spec.stride, spec.k_h, spec.k_w
    ci, co = spec.c_in // g, spec.c_out // g
    scheme = cfg.scheme
    seed = cfg.seed
    if branch == "b":
        K = _rko_kernels(ci, co, s, s, g, seed, scheme)
    elif branch == "a":
        K = _projector_kernels(ci, co, k1, k2, g, seed, scheme)
    else:
        inner = _projector_kernels(ci, width, k1 - s + 1, k2 - s + 1, g, seed, scheme)
        # disjoint sub-seed namespace from the projector factors (seed, 1..t+1)
        outer = _rko_kernels(width, co, s, s, g, (seed, 1 << 20), scheme)
        K = block_conv_fast(outer, inner)
    return K, BranchTag(branch=branch, internal_width=width)


def skew_symmetrize_kernel(K: KernelTensor) -> KernelTensor:
    """K - transpose(K), whose circular operator is exactly skew-symmetric.
    Even kernel sizes are refused: there `kernel_transpose` is the adjoint
    only up to a one-pixel shift."""
    if K.c_in != K.c_out or K.groups != 1:
        raise ValueError("skew symmetrization needs square channel counts and groups == 1")
    if K.k_h % 2 == 0 or K.k_w % 2 == 0:
        raise ValueError(f"skew symmetrization needs odd kernel sizes, got {K.k_h}x{K.k_w}")
    return KernelTensor._adopt(K.data - kernel_transpose(K).data)


def soc_explicit_kernel(K: KernelTensor, terms: int = 12) -> KernelTensor:
    """Truncated exponential series of a kernel under block convolution:

        E = I + K + K.K/2! + ... + K^(terms)/terms!

    computed by accumulating successive fused powers; all terms are
    centre-aligned, so one convolution with E equals applying the truncated
    series term by term.  The result spans terms*(k-1)+1 per axis.  For a
    skew-symmetrized odd-size kernel of operator norm <= 1, such as
    `soc_normalized_skew` gives, every singular value of the result's
    operator, at every image size, lies within the series tail
    sum_{t > terms} 1/t! of 1.
    """
    if K.c_in != K.c_out or K.groups != 1:
        raise ValueError("exponential of a kernel needs square channel counts and groups == 1")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    c, _, kh, kw = K.shape
    L1 = terms * (kh - 1) + 1
    L2 = terms * (kw - 1) + 1
    E = np.zeros((c, c, L1, L2))
    E[:, :, (L1 - 1) // 2, (L2 - 1) // 2] = np.eye(c)
    power = K
    factorial = 1.0
    for t in range(1, terms + 1):
        factorial *= t
        a = (L1 - power.k_h) // 2
        b = (L2 - power.k_w) // 2
        E[:, :, a:a + power.k_h, b:b + power.k_w] += power.data / factorial
        if t < terms:
            power = block_conv_fast(K, power)
    return KernelTensor._adopt(E)


def soc_normalized_skew(K: KernelTensor) -> KernelTensor:
    """Skew-symmetrize a square-channel kernel and divide it by its
    `product_bound`, so its circular operator has norm <= 1 at every image
    size and the truncated exponential converges fast."""
    S = skew_symmetrize_kernel(K)
    bound = product_bound([S])
    if bound == 0.0:
        return S
    return KernelTensor._adopt(S.data / bound)
