"""Independent orthogonality verification.

`check_orthogonality` takes the operator's exact spectrum by the
block-circulant (polyphase) route.  A circular convolution with stride s
commutes with input shifts by s, so its operator is block-circulant over
the (h/s)x(w/s) output grid: the response to the impulse at (c, s*a + p,
s*b + q) is the response to the impulse at (c, p, q) shifted by (a, b).
The c_in*s^2 responses to the impulses with p, q < s therefore determine
the whole operator, and the DFT over the output grid block-diagonalizes
it: its singular values are those of one c_out x c_in*s^2 complex matrix
per frequency (Sedghi, Gupta & Long, ICLR 2019).  That matrix is
block-diagonal over groups, so only each group's c_out/g x c_in/g*s^2
block is built, the groups a batch axis.  No response is computed: each
block is the DFT of the polyphase kernel E of Su et al. (ICML 2022) over
its lags, every kernel tap weighted by its lag's phase factor in the
column of the input phase it reads (`_frequency_blocks`).  Those slots
come from `tensor_core._taps`, shared with the reference operators: E in
sparse, size-free form.  The kernel is real, so the block at (-f1, -f2)
is the conjugate of the block at (f1, f2): the blocks are built at one
frequency of each conjugate pair only (`_representatives`), a chunk of
frequencies at a time, and SVDs batched over groups and a chunk give the
whole spectrum.  Before a chunk's SVD, a guard compares each block times
the DFT of a fixed random input with the DFT of the reference
convolution `conv2d_ref` of that input, at the same frequency, so the
phase and lag placement of the taps and the shift structure are checked
against the operator itself, groups and dilation included, on exactly
the blocks the SVD reads, rather than assumed.  The index convention
the two share through `_taps` is checked by the tests, against scatter
oracles with their own index arithmetic (`tests/oracles.py`).  The route
is budgeted at `ENTRY_BUDGET` entries, c_out*c_in*h*w/g, the size of the
per-group stack of impulse responses, though a chunk holds far fewer.  A
convolution passes when its whole spectrum lies within `tolerance` of 1
(default 1e-4).

The dense operator matrix stays only as the test oracle: column (c, i, j)
of `toeplitz_from_kernel` is the flattened response of `conv2d_ref` to the
unit impulse e_{c,i,j}, `toeplitz_of_transpose` is built the same way from
`conv2d_transpose_ref`, and `singular_values` takes a full SVD of either.
No check of the library calls them.  Their unit impulses go through the
reference operator stacked as batches [n][c][h][w] of at most 2^18 input
entries (2 MB; `_IMPULSE_BATCH_ENTRIES`), so a matrix takes a few calls,
not one per column; a batched call gives each image the same bits as a
single one.

The grid at the bottom mirrors a unit-test bank over convolution
configurations: common CNN shapes, extended strided ones, even kernel
sizes, depthwise with k = s, kernel-size-equals-stride, grouped, dilated,
and transposed operators, all exercised on small images where the kernel
size is not negligible against the image.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .construct import AocConfig, aoc_kernel
from .orthogonalize import DEFAULT_SCHEME
from .tensor_core import (
    ConvSpec,
    KernelTensor,
    UnsupportedConfigError,
    _check_kernel_spec,
    _strided_size,
    _taps,
    conv2d_ref,
    conv2d_transpose_ref,
)

ENTRY_BUDGET = 1 << 24
DEFAULT_TOLERANCE = 1e-4
# input entries per batch of impulses (2 MB of float64): enough to cut the
# calls per impulse matrix to a few, small enough to keep peak memory flat
_IMPULSE_BATCH_ENTRIES = 1 << 18
# real entries of one group's frequency blocks per chunk (8 MB of float64),
# built, checked and factored before the next chunk, so that the blocks
# of a wide layer are never all held at once
_FREQUENCY_CHUNK_ENTRIES = 1 << 20


def default_image_side(stride: int) -> int:
    """s*ceil(8/s): the side of the smallest square image of at least 8x8
    that the stride s divides, the default size of a check."""
    return stride * math.ceil(8 / stride)


def _grid(spec: ConvSpec, h: int | None = None, w: int | None = None) -> tuple[int, int, int, int]:
    """(h, w, h/s, w/s): the image size, `default_image_side(spec.stride)`
    on a side left None, and its output grid (`_strided_size`)."""
    side = default_image_side(spec.stride)
    h, w = (side if h is None else h), (side if w is None else w)
    return (h, w, *_strided_size(spec, h, w))


@dataclass(frozen=True)
class SpectrumReport:
    """Singular-value extremes and verdict of one orthogonality check.

    `freq_min` and `freq_max` are the frequencies (f1, f2), as `fft2`
    indices on the (h/s)x(w/s) output grid, at which `sigma_min` and
    `sigma_max` occur."""

    sigma_max: float
    sigma_min: float
    freq_max: tuple[int, int]
    freq_min: tuple[int, int]
    n_rows: int
    n_cols: int
    passed: bool
    tolerance: float

    def to_dict(self, config: dict | None = None) -> dict:
        doc = {
            "sigma_min": self.sigma_min,
            "sigma_max": self.sigma_max,
            "freq_min": list(self.freq_min),
            "freq_max": list(self.freq_max),
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }
        if config is not None:
            doc["config"] = config
        return doc

    def to_json(self, config: dict | None = None) -> str:
        return json.dumps(self.to_dict(config), sort_keys=True)


def _impulse_matrix(apply, in_shape: tuple[int, int, int], n_rows: int,
                    impulses: Sequence[int]) -> np.ndarray:
    """Matrix whose column j is `apply(e)` flattened, for the unit impulse
    e at flat index `impulses[j]` of an image of `in_shape` (channel-major).

    The impulses go through `apply` as batches [n][c][h][w] of at most
    `_IMPULSE_BATCH_ENTRIES` input entries (at least one impulse per
    batch), so the matrix takes a few calls rather than one per column.
    Refused above the entry budget."""
    n_cols = len(impulses)
    if n_rows * n_cols > ENTRY_BUDGET:
        raise ValueError(
            f"impulse-response matrix {n_rows}x{n_cols} exceeds the entry "
            f"budget ({ENTRY_BUDGET}); use a smaller image or fewer channels"
        )
    size = math.prod(in_shape)
    batch = max(1, _IMPULSE_BATCH_ENTRIES // size)
    T = np.empty((n_rows, n_cols))
    for start in range(0, n_cols, batch):
        at = impulses[start:start + batch]
        e = np.zeros((len(at), size))
        e[np.arange(len(at)), at] = 1.0
        T[:, start:start + len(at)] = apply(e.reshape(-1, *in_shape)).reshape(len(at), n_rows).T
    return T


def toeplitz_from_kernel(K: KernelTensor, spec: ConvSpec, h: int, w: int) -> np.ndarray:
    """Dense matrix of the strided circular convolution, built from the
    impulse responses of every input entry (see `_impulse_matrix`).

    Shape is (c_out*h*w/s^2) x (c_in*h*w); rows/columns are ordered
    channel-major.  Guarded by an entry-count budget.
    """
    ho, wo = _strided_size(spec, h, w)
    return _impulse_matrix(lambda e: conv2d_ref(K, e, spec), (spec.c_in, h, w),
                           spec.c_out * ho * wo, range(spec.c_in * h * w))


def toeplitz_of_transpose(K: KernelTensor, spec: ConvSpec, h: int, w: int) -> np.ndarray:
    """Dense matrix of the transposed operator, built independently from
    impulse responses of `conv2d_transpose_ref` (not by transposing the
    forward matrix)."""
    ho, wo = _strided_size(spec, h, w)
    return _impulse_matrix(lambda e: conv2d_transpose_ref(K, e, spec), (spec.c_out, ho, wo),
                           spec.c_in * h * w, range(spec.c_out * ho * wo))


def singular_values(Mx: np.ndarray) -> np.ndarray:
    """Full singular spectrum, descending."""
    Mx = np.asarray(Mx, dtype=np.float64)
    if Mx.ndim != 2:
        raise ValueError("expected a matrix")
    if min(Mx.shape) > 2048:
        raise ValueError("matrix exceeds the 2048 spectrum budget")
    if not np.all(np.isfinite(Mx)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(Mx, compute_uv=False)


def _representatives(ho: int, wo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f1, f2, index): one frequency of each conjugate pair {f, -f} of the
    ho x wo output grid, the one first in row-major order, and the
    [ho][wo] position of each frequency's representative in (f1, f2).
    There are (ho*wo + n)/2 of them, n the self-conjugate frequencies."""
    f1, f2 = np.divmod(np.arange(ho * wo), wo)
    conj = (-f1 % ho) * wo + (-f2 % wo)
    rep = np.flatnonzero(np.arange(ho * wo) <= conj)
    index = np.empty(ho * wo, dtype=np.intp)
    index[rep] = index[conj[rep]] = np.arange(rep.size)
    return f1[rep], f2[rep], index.reshape(ho, wo)


def _frequency_blocks(K: KernelTensor, spec: ConvSpec, f1: np.ndarray, f2: np.ndarray,
                      ho: int, wo: int):
    """Yield the operator's c_out/g x c_in/g*s^2 complex block of each group
    at each frequency (f1, f2) of the ho x wo output grid, in order, a
    chunk of frequencies at a time, each chunk a view
    [f][g][c_out/g][(c, p, q)]: the DFT of the polyphase kernel E over its
    lags, sum over taps of K_tap * exp(2 pi i (f1*t1/ho + f2*t2/wo)), each
    tap in the column of its phase (p, q) (`_taps`).

    A chunk is one real GEMM per group of the kernel, [c_out/g*c_in/g][taps]
    as it is stored, against the taps' phase factors [taps][(p, q, f,
    re/im)], so a group gets the bits it gets alone; a tap's factor is 0
    outside its own phase.  The product's re/im pairs are its complex
    entries, so no complex copy is made.  The product and the factors of a
    chunk hold at most `_FREQUENCY_CHUNK_ENTRIES` entries per group.  A
    factor is the product of one tabulated root of unity per axis, at
    f1*t1 mod ho and f2*t2 mod wo, each lag reduced modulo the grid in
    Python ints first, as a lag may pass int64."""
    s, g = spec.stride, spec.groups
    p, q, t1, t2 = np.array([(p, q, t1 % ho, t2 % wo) for _, (p, q), (t1, t2) in _taps(spec)]).T
    Kg = K.data.reshape(g, -1, p.size)
    roots1 = np.exp(2j * np.pi / ho * np.arange(ho))
    roots2 = np.exp(2j * np.pi / wo * np.arange(wo))
    step = max(1, _FREQUENCY_CHUNK_ENTRIES // (2 * s * s * max(Kg.shape[1:])))
    for at in range(0, f1.size, step):
        a, b = f1[at:at + step], f2[at:at + step]
        factors = np.zeros((p.size, s, s, a.size, 2))
        phase = roots1[np.outer(t1, a) % ho] * roots2[np.outer(t2, b) % wo]
        factors[np.arange(p.size), p, q] = phase.view(np.float64).reshape(p.size, a.size, 2)
        E = (Kg @ factors.reshape(p.size, -1)).view(np.complex128)
        yield E.reshape(g, spec.c_out // g, -1, a.size).transpose(3, 0, 1, 2)


def _guard_reference(K: KernelTensor, spec: ConvSpec, h: int, w: int, f1: np.ndarray,
                     f2: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """What the block-circulant guard compares the blocks with: the DFTs at
    (f1, f2) of one fixed random input x, as its phases [g][(c, p, q)][f],
    which hold x[c, s*a + p, s*b + q] at [a][b], and of `conv2d_ref(K, x)`,
    as [g][c_out/g][f]; and the largest error allowed, 1e-9 of the DFT's
    scale.  A kernel so large that the scale overflows cannot be checked
    and is refused before any arithmetic on it."""
    s, g = spec.stride, spec.groups
    x = np.random.Generator(np.random.PCG64(0)).standard_normal((spec.c_in, h, w))
    scale = float(np.sum(np.abs(K.data))) * float(np.max(np.abs(x)))
    if not math.isfinite(scale):
        raise ValueError("kernel entries too large to check: the block-circulant guard's "
                         "scale sum|K| * max|x| overflows")
    y = conv2d_ref(K, x, spec)
    ho, wo = y.shape[-2:]
    X = x.reshape(g, -1, ho, s, wo, s).transpose(0, 1, 3, 5, 2, 4).reshape(g, -1, ho, wo)
    Y = y.reshape(g, -1, ho, wo)
    # a DFT entry sums ho*wo terms of the spatial output, each at most scale
    return np.fft.fft2(X)[..., f1, f2], np.fft.fft2(Y)[..., f1, f2], 1e-9 * scale * ho * wo


def polyphase_spectrum(K: KernelTensor, spec: ConvSpec, h: int | None = None,
                       w: int | None = None) -> np.ndarray:
    """Exact singular spectrum of the strided circular operator, by
    frequency: entry [f1, f2] holds the singular values (descending) of
    the c_out x c_in*s^2 block at `fft2` frequency (f1, f2) of the
    (h/s)x(w/s) output grid.  Together they are the spectrum of the dense
    `toeplitz_from_kernel` matrix.

    The blocks come from the taps (`_frequency_blocks`) at one frequency
    of each conjugate pair (`_representatives`), whose other member has
    the same singular values, a chunk of frequencies at a time; each chunk
    passes the block-circulant guard (`_guard_reference`) before its SVD.
    A grouped block's singular values are the union of its groups'.
    Refused when the per-group stack, c_out*c_in*h*w/g entries, exceeds
    `ENTRY_BUDGET`.  A side left None is `default_image_side(spec.stride)`.
    """
    h, w, ho, wo = _grid(spec, h, w)
    _check_kernel_spec(K, spec)
    g = spec.groups
    if spec.c_out * spec.c_in * h * w // g > ENTRY_BUDGET:
        raise UnsupportedConfigError(
            f"per-group block array {g}x{spec.c_out // g}x{spec.c_in // g * h * w} exceeds "
            f"the entry budget ({ENTRY_BUDGET}); use a smaller image or fewer channels")
    f1, f2, index = _representatives(ho, wo)
    X, Y, bound = _guard_reference(K, spec, h, w, f1, f2)
    sv, at = [], 0
    for blocks in _frequency_blocks(K, spec, f1, f2, ho, wo):
        chunk = slice(at, at + len(blocks))
        BX = np.einsum("fgmn,gnf->gmf", blocks, X[..., chunk])
        err = float(np.max(np.abs(BX - Y[..., chunk])))
        if not err <= bound:
            raise ValueError(
                f"operator is not block-circulant under stride {spec.stride}: the "
                f"frequency blocks reproduce conv2d_ref only to {err:.3e}")
        sv.append(np.linalg.svd(blocks, compute_uv=False))
        at += len(blocks)
    return np.sort(np.concatenate(sv).reshape(f1.size, -1), axis=-1)[index, ::-1]


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")


def check_orthogonality(K: KernelTensor, spec: ConvSpec, h: int | None = None,
                        w: int | None = None,
                        tolerance: float = DEFAULT_TOLERANCE) -> SpectrumReport:
    """Take the operator's exact spectrum by the polyphase route
    (`polyphase_spectrum`, at `default_image_side(spec.stride)` on a side
    left None) and report its extremes and where they occur.

    Passes iff every singular value lies within `tolerance` of 1; a
    tolerance that is negative or not finite raises ValueError.  The
    spectral residual ||G - I||_2 on the smaller Gram side G follows from
    the extremes: max(|sigma_max^2 - 1|, |sigma_min^2 - 1|).  n_rows and
    n_cols are the shape of the dense operator, (c_out*h*w/s^2) x
    (c_in*h*w), which is never built.
    """
    _check_tolerance(tolerance)
    sv = polyphase_spectrum(K, spec, h, w)
    top, bottom = sv[..., 0], sv[..., -1]
    f_max = np.unravel_index(np.argmax(top), top.shape)
    f_min = np.unravel_index(np.argmin(bottom), bottom.shape)
    smax, smin = float(top[f_max]), float(bottom[f_min])
    passed = max(abs(smax - 1.0), abs(smin - 1.0)) <= tolerance
    return SpectrumReport(
        sigma_max=smax, sigma_min=smin,
        freq_max=tuple(map(int, f_max)), freq_min=tuple(map(int, f_min)),
        n_rows=spec.c_out * top.size, n_cols=spec.c_in * spec.stride ** 2 * top.size,
        passed=passed, tolerance=tolerance,
    )


def roundtrip_check(K: KernelTensor, spec: ConvSpec, h: int | None = None,
                    w: int | None = None, n_trials: int = 5,
                    direction: str | None = None, seed: int = 0) -> float:
    """Max over trials of the identity-composition error.

    direction "row": conv(K, convT(K, x)) vs x for x in output space
    (valid when the strided operator is row orthogonal).
    direction "column": convT(K, conv(K, x)) vs x for x in input space.
    None takes the side an orthogonal operator is orthogonal on: "row"
    iff c_out <= c_in*s^2.  A side left None is `default_image_side`.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    h, w, ho, wo = _grid(spec, h, w)
    if direction is None:
        direction = "row" if spec.c_out <= spec.c_in * spec.stride ** 2 else "column"
    rng = np.random.Generator(np.random.PCG64(seed))
    if direction == "row":
        x = rng.standard_normal((n_trials, spec.c_out, ho, wo))
        back = conv2d_ref(K, conv2d_transpose_ref(K, x, spec), spec)
    elif direction == "column":
        x = rng.standard_normal((n_trials, spec.c_in, h, w))
        back = conv2d_transpose_ref(K, conv2d_ref(K, x, spec), spec)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return float(np.max(np.abs(back - x)))


# ---------------------------------------------------------------------------
# verification grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridEntry:
    """One configuration of the self-test bank.  Its `check` follows from
    its category: "roundtrip" for a "transposed" entry, else "spectrum"."""

    category: str
    c_in: int
    c_out: int
    kernel: int
    stride: int = 1
    groups: int = 1
    dilation: int = 1

    @property
    def check(self) -> str:
        return "roundtrip" if self.category == "transposed" else "spectrum"

    def key(self) -> str:
        return (f"{self.category}/ci{self.c_in}-co{self.c_out}-k{self.kernel}"
                f"-s{self.stride}-g{self.groups}-d{self.dilation}-{self.check}")

    def to_config(self, scheme: str = DEFAULT_SCHEME, seed: int = 0) -> AocConfig:
        spec = ConvSpec(c_in=self.c_in, c_out=self.c_out, k_h=self.kernel,
                        k_w=self.kernel, stride=self.stride, groups=self.groups,
                        dilation=self.dilation)
        return AocConfig(spec=spec, scheme=scheme, seed=seed)


def grid_entries() -> list[GridEntry]:
    """The full verification bank: 70 configurations in 8 categories, each
    spectrum-checked, the transposed ones round-tripped as well."""
    E = GridEntry
    entries = [
        # common CNN shapes, stride 1
        E("common", 1, 1, 1), E("common", 2, 2, 1), E("common", 16, 8, 1),
        E("common", 3, 16, 3), E("common", 16, 16, 3), E("common", 8, 4, 3),
        E("common", 4, 8, 3), E("common", 5, 7, 3), E("common", 7, 5, 3),
        E("common", 2, 4, 3), E("common", 4, 8, 5), E("common", 8, 3, 5),
        E("common", 1, 8, 3), E("common", 8, 1, 3), E("common", 6, 6, 5),
        # extended strided
        E("strided", 4, 8, 3, 2), E("strided", 8, 4, 3, 2), E("strided", 2, 8, 3, 2),
        E("strided", 8, 2, 3, 2), E("strided", 4, 16, 5, 2), E("strided", 16, 4, 5, 2),
        E("strided", 3, 12, 3, 2), E("strided", 6, 6, 3, 2), E("strided", 1, 8, 3, 2),
        E("strided", 4, 1, 3, 2), E("strided", 2, 12, 3, 2), E("strided", 5, 10, 3, 2),
        E("strided", 2, 9, 5, 3), E("strided", 4, 4, 5, 3), E("strided", 9, 2, 5, 3),
        E("strided", 2, 18, 5, 3),
        # even kernel sizes
        E("even_kernel", 4, 6, 2), E("even_kernel", 6, 4, 2), E("even_kernel", 3, 3, 2),
        E("even_kernel", 4, 4, 2), E("even_kernel", 2, 8, 2), E("even_kernel", 8, 8, 2),
        # depthwise, k = s
        E("depthwise", 2, 2, 2, 2, 2), E("depthwise", 4, 4, 2, 2, 4),
        E("depthwise", 4, 4, 3, 3, 4),
        # kernel size = stride
        E("k_equals_s", 2, 8, 2, 2), E("k_equals_s", 3, 12, 2, 2),
        E("k_equals_s", 4, 4, 2, 2), E("k_equals_s", 8, 8, 2, 2),
        E("k_equals_s", 1, 1, 2, 2), E("k_equals_s", 1, 9, 3, 3),
        E("k_equals_s", 2, 18, 3, 3), E("k_equals_s", 2, 2, 3, 3),
        E("k_equals_s", 6, 16, 2, 2),
        # grouped
        E("grouped", 8, 4, 3, 2, 2), E("grouped", 8, 8, 3, 1, 4),
        E("grouped", 4, 8, 2, 2, 2), E("grouped", 8, 16, 3, 1, 2),
        E("grouped", 16, 8, 3, 2, 4), E("grouped", 4, 4, 3, 1, 2),
        E("grouped", 12, 6, 3, 1, 2), E("grouped", 6, 12, 2, 2, 2),
        # dilated
        E("dilated", 4, 4, 3, 1, 1, 2), E("dilated", 8, 4, 3, 1, 1, 2),
        E("dilated", 2, 6, 5, 1, 1, 2), E("dilated", 4, 8, 2, 1, 1, 2),
        E("dilated", 4, 2, 5, 3, 1, 2), E("dilated", 2, 8, 3, 3, 1, 2),
        E("dilated", 8, 8, 3, 1, 4, 2),
        # transposed operators (spectrum + roundtrip + adjoint identity)
        E("transposed", 4, 8, 3, 2), E("transposed", 8, 4, 3, 2),
        E("transposed", 2, 8, 2, 2), E("transposed", 4, 4, 3, 1),
        E("transposed", 6, 2, 3, 1), E("transposed", 4, 8, 3, 2, 2),
    ]
    return entries


def _adjoint_gap(K: KernelTensor, spec: ConvSpec) -> float:
    """max |<conv2d_ref(z), x> - <z, conv2d_transpose_ref(x)>| / (|z| |x|)
    over three fixed-seed pairs (z, x) at the default image size: rounding
    when `conv2d_transpose_ref` is the adjoint of `conv2d_ref`, about 0.1
    for an adjoint off by one pixel."""
    h, w, ho, wo = _grid(spec)
    rng = np.random.Generator(np.random.PCG64(0))
    z = rng.standard_normal((3, spec.c_in, h, w))
    x = rng.standard_normal((3, spec.c_out, ho, wo))
    forward = np.sum(conv2d_ref(K, z, spec) * x, axis=(1, 2, 3))
    adjoint = np.sum(z * conv2d_transpose_ref(K, x, spec), axis=(1, 2, 3))
    norms = np.linalg.norm(z.reshape(3, -1), axis=1) * np.linalg.norm(x.reshape(3, -1), axis=1)
    return float(np.max(np.abs(forward - adjoint) / norms))


def run_grid_entry(entry: GridEntry, scheme: str = DEFAULT_SCHEME, seed: int = 0,
                   tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Build the kernel for one grid entry and check its spectrum at the
    default image size.  A "roundtrip" entry also needs its round trip
    within 1e-8 of the identity and `conv2d_transpose_ref` to be the
    adjoint of `conv2d_ref` (`_adjoint_gap` within 1e-12)."""
    cfg = entry.to_config(scheme=scheme, seed=seed)
    K, tag = aoc_kernel(cfg)
    report = check_orthogonality(K, cfg.spec, tolerance=tolerance)
    result = {"key": entry.key(), "category": entry.category, "branch": tag.branch,
              "passed": report.passed, "sigma_min": report.sigma_min,
              "sigma_max": report.sigma_max}
    if entry.check == "roundtrip":
        err = roundtrip_check(K, cfg.spec, n_trials=3)
        adjoint_err = _adjoint_gap(K, cfg.spec)
        result["passed"] = report.passed and err <= 1e-8 and adjoint_err <= 1e-12
        result["roundtrip_err"] = err
        result["adjoint_err"] = adjoint_err
    return result


def run_grid(scheme: str = DEFAULT_SCHEME, seed: int = 0,
             tolerance: float = DEFAULT_TOLERANCE,
             categories: Sequence[str] | None = None) -> list[dict]:
    """Run the whole bank (optionally restricted to some categories) in
    one thread; results come back sorted by configuration key."""
    entries = [e for e in grid_entries()
               if categories is None or e.category in categories]
    results = [run_grid_entry(e, scheme=scheme, seed=seed, tolerance=tolerance)
               for e in entries]
    return sorted(results, key=lambda r: r["key"])
