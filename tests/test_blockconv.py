import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokernel import (
    KernelTensor,
    block_conv_fast,
    conv2d_ref,
    identity_kernel,
    kernel_transpose,
    spec_for_kernel,
)
from conftest import random_kernel, rng, traced_peak
from oracles import block_conv_naive


def test_identity_left_factor_is_neutral():
    A = random_kernel(4, 3, 2, 2, seed=0)
    out = block_conv_naive(identity_kernel(4), A)
    np.testing.assert_allclose(out.data, A.data, atol=0)
    out = block_conv_fast(identity_kernel(4), A)
    np.testing.assert_allclose(out.data, A.data, atol=1e-15)


def test_shape_law():
    A = random_kernel(4, 3, 2, 2, seed=1)
    B = random_kernel(5, 4, 3, 3, seed=2)
    assert block_conv_naive(B, A).shape == (5, 3, 4, 4)
    assert block_conv_fast(B, A).shape == (5, 3, 4, 4)


def test_incompatible_channels_rejected():
    A = random_kernel(4, 3, 2, 2, seed=1)
    B = random_kernel(5, 3, 3, 3, seed=2)
    with pytest.raises(ValueError, match="incompatible"):
        block_conv_naive(B, A)
    with pytest.raises(ValueError):
        block_conv_fast(B, A)


def test_unequal_groups_rejected():
    # grouped kernels fuse group by group, so both factors need the same
    # groups; a grouped factor is never read as an ungrouped one
    G = KernelTensor(rng(8).standard_normal((4, 1, 3, 3)), groups=2)  # 2 -> 4
    for fuse in (block_conv_naive, block_conv_fast):
        with pytest.raises(ValueError, match=r"equal groups, got 1 \(B\) and 2 \(A\)"):
            fuse(random_kernel(3, 4, 1, 1, seed=9), G)
        with pytest.raises(ValueError, match=r"equal groups, got 2 \(B\) and 1 \(A\)"):
            fuse(G, random_kernel(2, 3, 1, 1, seed=10))


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_grouped_fusion_is_per_group_fusion(seed):
    # group q of the grouped fusion is the ungrouped fusion of group q's
    # factors, bit for bit, and the literal loop to rounding
    r = rng(seed)
    g = int(r.integers(1, 5))
    cm, ci, co = r.integers(1, 9, 3)
    k1, k2, l1, l2 = r.integers(1, 5, 4)
    Ad = r.standard_normal((g * cm, ci, k1, k2))
    Bd = r.standard_normal((g * co, cm, l1, l2))
    fused = block_conv_fast(KernelTensor(Bd, groups=g), KernelTensor(Ad, groups=g))
    assert fused.groups == g
    per_group = [block_conv_fast(KernelTensor(Bd[q * co:(q + 1) * co]),
                                 KernelTensor(Ad[q * cm:(q + 1) * cm])).data for q in range(g)]
    np.testing.assert_array_equal(fused.data, np.concatenate(per_group))
    naive = block_conv_naive(KernelTensor(Bd, groups=g), KernelTensor(Ad, groups=g))
    assert naive.groups == g
    np.testing.assert_allclose(fused.data, naive.data, atol=1e-12, rtol=0)


def test_fused_kernel_equals_sequential_convs():
    # oracle: two sequential reference convolutions (circular, 8x8)
    g = rng(3)
    for trial in range(10):
        kA, kB = g.integers(1, 4, 2)
        # avoid even-by-even pairs: those fuse up to a circular shift
        if kA % 2 == 0 and kB % 2 == 0:
            kB += 1
        A = random_kernel(4, 3, kA, kA, seed=100 + trial)
        B = random_kernel(2, 4, kB, kB, seed=200 + trial)
        x = g.standard_normal((3, 8, 8))
        fused = block_conv_naive(B, A)
        lhs = conv2d_ref(fused, x, spec_for_kernel(fused))
        rhs = conv2d_ref(B, conv2d_ref(A, x, spec_for_kernel(A)), spec_for_kernel(B))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_fused_kernel_strided_application():
    # (B . A) *_s x == B *_s (A *_1 x)
    g = rng(4)
    for trial, s in [(0, 2), (1, 2), (2, 4)]:
        A = random_kernel(4, 3, 3, 3, seed=300 + trial)
        B = random_kernel(2, 4, s, s, seed=400 + trial)
        x = g.standard_normal((3, 8, 8))
        fused = block_conv_naive(B, A)
        lhs = conv2d_ref(fused, x, spec_for_kernel(fused, stride=s))
        rhs = conv2d_ref(B, conv2d_ref(A, x, spec_for_kernel(A)), spec_for_kernel(B, stride=s))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_even_by_even_fusion_is_shift_equivalent():
    # both factors even: the fused kernel applies the same map composed
    # with a one-pixel circular shift (spectra unchanged)
    A = random_kernel(3, 3, 2, 2, seed=5)
    B = random_kernel(3, 3, 2, 2, seed=6)
    x = rng(7).standard_normal((3, 8, 8))
    fused = block_conv_naive(B, A)
    lhs = conv2d_ref(fused, x, spec_for_kernel(fused))
    rhs = conv2d_ref(B, conv2d_ref(A, x, spec_for_kernel(A)), spec_for_kernel(B))
    np.testing.assert_allclose(lhs, np.roll(rhs, (-1, -1), axis=(1, 2)), atol=1e-12)


@given(st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_fast_equals_naive(seed):
    g = rng(seed)
    cm, ci, co = g.integers(1, 7, 3)
    k1, k2, l1, l2 = g.integers(1, 5, 4)
    A = KernelTensor(g.standard_normal((cm, ci, k1, k2)))
    B = KernelTensor(g.standard_normal((co, cm, l1, l2)))
    np.testing.assert_allclose(
        block_conv_fast(B, A).data, block_conv_naive(B, A).data, atol=1e-12
    )


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_associativity(seed):
    g = rng(seed)
    c1, c2, c3, c4 = g.integers(1, 4, 4)
    A = KernelTensor(g.standard_normal((c2, c1, 2, 2)))
    B = KernelTensor(g.standard_normal((c3, c2, 2, 3)))
    C = KernelTensor(g.standard_normal((c4, c3, 3, 2)))
    left = block_conv_fast(C, block_conv_fast(B, A))
    right = block_conv_fast(block_conv_fast(C, B), A)
    np.testing.assert_allclose(left.data, right.data, atol=1e-11)


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_bilinearity(seed):
    g = rng(seed)
    lam1, lam2 = g.standard_normal(2)
    C = KernelTensor(g.standard_normal((3, 2, 2, 2)))
    A = KernelTensor(g.standard_normal((4, 3, 2, 3)))
    B = KernelTensor(g.standard_normal((4, 3, 2, 3)))
    mix = KernelTensor(lam1 * A.data + lam2 * B.data)
    lhs = block_conv_fast(mix, C).data
    rhs = lam1 * block_conv_fast(A, C).data + lam2 * block_conv_fast(B, C).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


# pinned witness pair: fusion order matters by a wide margin
NONCOMMUT_SEED = 2


def test_non_commutativity_witness():
    g = rng(NONCOMMUT_SEED)
    A = KernelTensor(g.standard_normal((3, 3, 2, 2)))
    B = KernelTensor(g.standard_normal((3, 3, 2, 2)))
    gap = np.max(np.abs(block_conv_fast(A, B).data - block_conv_fast(B, A).data))
    assert gap > 0.1


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_transpose_antihomomorphism(seed):
    g = rng(seed)
    c1, c2, c3 = g.integers(1, 4, 3)
    A = KernelTensor(g.standard_normal((c2, c1, 2, 3)))
    B = KernelTensor(g.standard_normal((c3, c2, 3, 2)))
    lhs = kernel_transpose(block_conv_fast(B, A))
    rhs = block_conv_fast(kernel_transpose(A), kernel_transpose(B))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-11)


def test_block_conv_fast_holds_the_product_and_the_output():
    # one tap's product (1 MiB here) at a time beside the output, and none
    # when the output is copied into its KernelTensor
    B, A = random_kernel(256, 128, 2, 2, seed=1), random_kernel(128, 128, 2, 2, seed=2)
    K, peak = traced_peak(lambda: block_conv_fast(B, A))
    assert peak <= 2 * K.data.nbytes + 2 ** 18
