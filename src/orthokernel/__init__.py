"""orthokernel: explicit orthogonal 2-D convolution kernels.

Construct convolution kernels whose strided circular operators are exactly
orthogonal -- with native stride, groups, dilation and transposition --
and verify them independently: the exact spectrum per frequency, taken
from the kernel taps and checked against the reference convolution
`conv2d_ref` before it is trusted, by a batched SVD.
"""

from .tensor_core import (
    ConvSpec,
    KernelTensor,
    UnsupportedConfigError,
    conv2d_ref,
    conv2d_transpose_ref,
    identity_kernel,
    kernel_transpose,
    spec_for_kernel,
)
from .kernel_io import read_kernel, write_kernel, kernel_to_json, kernel_from_json
from .blockconv import block_conv_fast, product_bound
from .orthogonalize import (
    cayley_rect,
    exp_map,
    orthogonalize_stack,
    qr_mgs,
    sample_params,
)
from .construct import (
    AocConfig,
    BranchTag,
    aoc_kernel,
    bcop_kernel,
    rko_kernel,
    skew_symmetrize_kernel,
    soc_explicit_kernel,
    soc_normalized_skew,
)
from .verify import (
    SpectrumReport,
    check_orthogonality,
    grid_entries,
    polyphase_spectrum,
    roundtrip_check,
    run_grid,
    singular_values,
    toeplitz_from_kernel,
    toeplitz_of_transpose,
)

__version__ = "0.1.0"
