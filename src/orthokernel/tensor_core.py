"""Core tensor types and the reference convolution operators.

Everything downstream (kernel fusion, constructions, spectral checks) is
validated against the operators in this module, so they stay direct: the
convolution sums one GEMM per kernel tap over the tap's input pixels, and
the transposed convolution is its exact adjoint, the same taps added back
to the pixels they read.  Both walk the taps through one iterator,
`_taps(spec)`, which yields each tap's offset (i', j') with its stride
phase and lag, and nothing else: the convolution gathers the tap's input
from one stride phase of the image, shifted by the lag, and the adjoint
adds its product back there.  Each operator lays the kernel out for its
own GEMMs (`_tap_major`: one contiguous copy per call, or a strided view
for a matrix-vector product whose sums have more than one term).

Index convention, fixed once for the whole package
--------------------------------------------------
A kernel tap (i', j') of a (k_h, k_w) kernel sits at the spatial offset
(i' - (k_h-1)//2, j' - (k_w-1)//2), i.e. taps are centred on the kernel
midpoint (floor-centred for even sizes).  Padding is always circular: with
stride s and dilation d the forward operator reads

    y[m, i, j] = sum_{c, i', j'} K[m, c, i', j']
                 * x[c, (i*s - (i'-oh)*d) mod h, (j*s - (j'-ow)*d) mod w]

with oh = (k_h-1)//2, ow = (k_w-1)//2.  `_taps` is the one place this
map is computed, as each tap's stride phase and size-free lag (the
polyphase kernel E in sparse form): the reference operators and the tap
stack of `verify` all take it from there.  The centred origin is what
makes the kernel-level algebra self-consistent: for odd kernel sizes,
flipping a kernel spatially and swapping its channel axes yields exactly
the adjoint operator, and a kernel satisfying K = -transpose(K) induces a
skew-symmetric operator.  Neither identity holds for any uncentred origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class UnsupportedConfigError(ValueError):
    """A valid convolution configuration the library does not handle: one
    for which no orthogonal kernel exists, or one beyond a size budget (the
    build's `construct.MAX_ENTRIES`, the check's `verify.ENTRY_BUDGET`)."""


def _is_int(v) -> bool:
    """Whether v is a Python or numpy integer; bool is refused, though an
    int subclass, since JSON true/false parse as bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _as_f64(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


@dataclass(frozen=True)
class KernelTensor:
    """Convolution kernel, indexed [c_out][c_in_per_group][k_h][k_w].

    `groups` partitions channels into contiguous blocks: output channels
    [q*c_out/g, (q+1)*c_out/g) read input channels [q*c_in/g, (q+1)*c_in/g).
    Immutable after construction.
    """

    data: np.ndarray
    groups: int = 1

    def __post_init__(self):
        # the caller keeps its array, so the kernel freezes a copy of it
        self._freeze(_as_f64(self.data, "kernel").copy())

    @classmethod
    def _adopt(cls, data: np.ndarray, groups: int = 1) -> KernelTensor:
        """The kernel of an array that the calling builder made and drops:
        frozen in place, where the constructor would freeze a copy."""
        K = object.__new__(cls)
        object.__setattr__(K, "groups", groups)
        K._freeze(np.ascontiguousarray(_as_f64(data, "kernel")))
        return K

    def _freeze(self, data: np.ndarray):
        if data.ndim != 4:
            raise ValueError(f"kernel must have 4 axes, got {data.ndim}")
        if min(data.shape) < 1:
            raise ValueError(f"kernel extents must be >= 1, got {data.shape}")
        if not _is_int(self.groups) or self.groups < 1:
            raise ValueError(f"groups must be a positive integer, got {self.groups!r}")
        if data.shape[0] % self.groups != 0:
            raise ValueError(
                f"c_out={data.shape[0]} not divisible by groups={self.groups}"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def c_out(self) -> int:
        return self.data.shape[0]

    @property
    def c_in(self) -> int:
        return self.data.shape[1] * self.groups

    @property
    def k_h(self) -> int:
        return self.data.shape[2]

    @property
    def k_w(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True)
class ConvSpec:
    """Contract of a circularly padded convolution: channel counts, kernel
    size, stride, groups and dilation."""

    c_in: int
    c_out: int
    k_h: int
    k_w: int
    stride: int = 1
    groups: int = 1
    dilation: int = 1

    def __post_init__(self):
        for name in ("c_in", "c_out", "k_h", "k_w", "stride", "groups", "dilation"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.c_in % self.groups != 0 or self.c_out % self.groups != 0:
            raise ValueError(
                f"c_in={self.c_in}, c_out={self.c_out} must be divisible by "
                f"groups={self.groups}"
            )


def spec_for_kernel(K: KernelTensor, stride: int = 1, dilation: int = 1) -> ConvSpec:
    """ConvSpec matching a kernel's shape and group count."""
    return ConvSpec(
        c_in=K.c_in, c_out=K.c_out, k_h=K.k_h, k_w=K.k_w,
        stride=stride, groups=K.groups, dilation=dilation,
    )


def identity_kernel(c: int, k_h: int = 1, k_w: int = 1) -> KernelTensor:
    """Kernel acting as the identity map: delta at the centre tap, identity
    across channels.  Exact identity operator for odd extents."""
    data = np.zeros((c, c, k_h, k_w))
    data[np.arange(c), np.arange(c), (k_h - 1) // 2, (k_w - 1) // 2] = 1.0
    return KernelTensor._adopt(data)


def _check_image(x, c_expected: int, name: str = "x") -> np.ndarray:
    x = _as_f64(x, name)
    if x.ndim not in (3, 4):
        raise ValueError(
            f"{name} must have 3 axes [c][h][w] or 4 axes [n][c][h][w], got {x.ndim}")
    if x.shape[-3] != c_expected:
        raise ValueError(f"{name} has {x.shape[-3]} channels, expected {c_expected}")
    if min(x.shape) < 1:
        raise ValueError(f"{name} extents must be >= 1")
    return x


def _check_kernel_spec(K: KernelTensor, spec: ConvSpec):
    if not isinstance(K, KernelTensor):
        raise TypeError("K must be a KernelTensor")
    if K.groups != spec.groups or K.shape != (
            spec.c_out, spec.c_in // spec.groups, spec.k_h, spec.k_w):
        raise ValueError(
            f"kernel shape {K.shape} x groups={K.groups} does not match spec "
            f"(c_in={spec.c_in}, c_out={spec.c_out}, k={spec.k_h}x{spec.k_w}, "
            f"groups={spec.groups})"
        )


def _tap_major(K: KernelTensor, spec: ConvSpec, adjoint: bool, n_cols: int) -> np.ndarray:
    """The kernel as [k_h][k_w][g][rows][cols], one GEMM operand per tap:
    rows c_out/g and cols c_in/g, or the transposed blocks if `adjoint`.

    A tap's product has `n_cols` columns.  The blocks are copied once to a
    contiguous array, so no tap makes `matmul` copy a strided slice, unless
    the product is a matrix-vector product (one row or one column) whose
    sums have more than one term: numpy sends a strided and a contiguous
    matrix through different vector kernels there, which round differently.
    """
    g = spec.groups
    Kt = K.data.reshape(g, spec.c_out // g, spec.c_in // g, spec.k_h, spec.k_w)
    Kt = Kt.transpose(3, 4, 0, 2, 1) if adjoint else Kt.transpose(3, 4, 0, 1, 2)
    rows, terms = Kt.shape[-2:]
    if terms == 1 or (rows > 1 and n_cols > 1):
        Kt = np.ascontiguousarray(Kt)
    return Kt


def _strided_size(spec: ConvSpec, h: int, w: int) -> tuple[int, int]:
    """Output grid (h/s, w/s) of an h x w image; h and w must be positive
    and divisible by the stride."""
    s = spec.stride
    if h < 1 or w < 1:
        raise ValueError(f"image size {h}x{w} must be positive")
    if h % s != 0 or w % s != 0:
        raise ValueError(f"image size {h}x{w} not divisible by stride {s}")
    return h // s, w // s


def _taps(spec: ConvSpec):
    """Walk the kernel taps in the order the reference operators sum them,
    (i', j') row-major, with each tap's stride phase (p, q) and lag
    (t1, t2): with t1, p = divmod(-(i'-oh)*d, s), output row i reads input
    row i*s - (i'-oh)*d = s*(i + t1) + p, so block row (i + t1) mod h/s of
    phase p, and likewise t2, q for columns.  Tap (i', j') is the block of
    the polyphase kernel E at (p, q) and (t1, t2), one slot per tap.  An
    image size only wraps the lags, in Python ints: a lag may pass int64."""
    s, d = spec.stride, spec.dilation
    oh, ow = (spec.k_h - 1) // 2, (spec.k_w - 1) // 2
    for ip in range(spec.k_h):
        t1, p = divmod(-(ip - oh) * d, s)
        for jp in range(spec.k_w):
            t2, q = divmod(-(jp - ow) * d, s)
            yield (ip, jp), (p, q), (t1, t2)


def conv2d_ref(K: KernelTensor, x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Reference 2-D convolution, direct summation over kernel taps.

    Input x is one image [c_in][h][w] or a batch [n][c_in][h][w]; output
    is [c_out][h/s][w/s], with the same leading batch axis if x has one.
    Each image of a batch gives the same bits as on its own.  Indices wrap
    modulo (h, w) (circular padding).  h and w must be divisible by the
    stride.
    """
    _check_kernel_spec(K, spec)
    x = _check_image(x, spec.c_in)
    lead = x.shape[:-3]
    c_in, h, w = x.shape[-3:]
    ho, wo = _strided_size(spec, h, w)
    s, g = spec.stride, spec.groups
    # the input as [..., block row, row phase, block column, column phase]
    x_phases = x.reshape(*lead, g, c_in // g, ho, s, wo, s)
    i, j = np.arange(ho)[:, None], np.arange(wo)
    Kt = _tap_major(K, spec, adjoint=False, n_cols=ho * wo)
    y = np.zeros((*lead, g, spec.c_out // g, ho, wo))
    for tap, (p, q), (t1, t2) in _taps(spec):
        sub = x_phases[..., (i + t1 % ho) % ho, p, (j + t2 % wo) % wo, q]
        y += (Kt[tap] @ sub.reshape(*lead, g, c_in // g, ho * wo)).reshape(y.shape)
    return y.reshape(*lead, spec.c_out, ho, wo)


def conv2d_transpose_ref(K: KernelTensor, x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Transposed convolution: the exact adjoint of `conv2d_ref`.

    Realizes multiplication by the transpose of the (strided) operator
    matrix: <conv2d_ref(K, z), x> == <z, conv2d_transpose_ref(K, x)> holds
    to rounding error for every spec.  Input is one image [c_out][h/s][w/s]
    or a batch [n][c_out][h/s][w/s]; output is [c_in][h][w], with the same
    leading batch axis if x has one.  Each image of a batch gives the same
    bits as on its own.

    Per tap, the transposed kernel block times x gives one value per
    output pixel (i, j) of the forward operator, which read the input
    pixel at block (i + t1, j + t2) of the tap's phase (p, q) (`_taps`).
    So the tap's values, rolled by its lag, are added into that phase of
    the output by basic slicing, in the same tap order as a scatter would
    add them.
    """
    _check_kernel_spec(K, spec)
    x = _check_image(x, spec.c_out)
    lead = x.shape[:-3]
    s, g = spec.stride, spec.groups
    ho, wo = x.shape[-2:]
    xg = x.reshape(*lead, g, spec.c_out // g, ho * wo)
    y = np.zeros((*lead, g, spec.c_in // g, ho * s, wo * s))
    # the output as [..., block row, row phase, block column, column phase]
    y_phases = y.reshape(*lead, g, spec.c_in // g, ho, s, wo, s)
    Kt = _tap_major(K, spec, adjoint=True, n_cols=ho * wo)
    for tap, (p, q), (t1, t2) in _taps(spec):
        contrib = (Kt[tap] @ xg).reshape(*lead, g, spec.c_in // g, ho, wo)
        y_phases[..., p, :, q] += np.roll(contrib, (t1 % ho, t2 % wo), axis=(-2, -1))
    return y.reshape(*lead, spec.c_in, ho * s, wo * s)


def kernel_transpose(K: KernelTensor) -> KernelTensor:
    """Swap channel axes within each group and reverse both spatial axes.

    At stride 1 and odd kernel sizes the transposed kernel realizes exactly
    the adjoint operator under the centred circular convention; for even
    sizes the two differ by a one-pixel circular shift (singular values are
    unaffected).  At a stride above 1 it is no adjoint: the adjoint of a
    strided convolution is `conv2d_transpose_ref`.
    The result has the same group count, with c_out/g inputs per group.
    """
    g = K.groups
    c_out, ci, kh, kw = K.shape
    data = K.data.reshape(g, c_out // g, ci, kh, kw).transpose(0, 2, 1, 3, 4)
    return KernelTensor(data.reshape(g * ci, c_out // g, kh, kw)[:, :, ::-1, ::-1], groups=g)
