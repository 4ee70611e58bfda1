import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthokernel import (
    ConvSpec,
    KernelTensor,
    conv2d_ref,
    conv2d_transpose_ref,
    identity_kernel,
    kernel_transpose,
    spec_for_kernel,
    toeplitz_from_kernel,
)
from orthokernel.tensor_core import _tap_major, _taps
from conftest import gram_residual, random_kernel, rng
from oracles import conv2d_scatter, conv2d_transpose_scatter


def test_kernel_tensor_validation():
    with pytest.raises(ValueError):
        KernelTensor(np.zeros((2, 2, 3)))  # wrong rank
    with pytest.raises(ValueError):
        KernelTensor(np.full((2, 2, 1, 1), np.nan))
    with pytest.raises(ValueError):
        KernelTensor(np.zeros((3, 2, 1, 1)), groups=2)  # c_out not divisible
    K = KernelTensor(np.ones((4, 2, 3, 3)), groups=2)
    assert K.c_out == 4 and K.c_in == 4 and K.k_h == 3
    # groups=2.0 once gave c_in == 2.0, which broke kernel_transpose
    for groups in (2.0, True):
        with pytest.raises(ValueError, match=f"groups must be a positive integer, got {groups}"):
            KernelTensor(np.ones((4, 2, 3, 3)), groups=groups)
    with pytest.raises(ValueError):
        K.data[0, 0, 0, 0] = 2.0  # immutable


def test_kernel_freezes_a_copy_of_a_callers_array_and_adopts_a_builders():
    a = rng(2).standard_normal((2, 2, 3, 3))
    K = KernelTensor(a)
    a[0, 0, 0, 0] = 5.0
    assert K.data[0, 0, 0, 0] != 5.0
    assert a.flags.writeable and not K.data.flags.writeable
    # a builder's fresh array becomes the kernel's, checked and frozen
    b = rng(3).standard_normal((4, 2, 3, 3))
    K = KernelTensor._adopt(b, groups=2)
    assert K.data is b and not b.flags.writeable and K.c_in == 4
    with pytest.raises(ValueError, match="not divisible"):
        KernelTensor._adopt(np.zeros((3, 2, 1, 1)), groups=2)
    with pytest.raises(ValueError, match="non-finite"):
        KernelTensor._adopt(np.full((1, 1, 1, 1), np.inf))


def test_conv_spec_validation():
    with pytest.raises(ValueError):
        ConvSpec(c_in=3, c_out=4, k_h=3, k_w=3, groups=2)
    with pytest.raises(ValueError):
        ConvSpec(c_in=2, c_out=2, k_h=0, k_w=1)
    # bool is an int subclass, and JSON true parses as one: c_in=True once
    # gave a 1-channel spec
    for field in ("c_in", "c_out", "k_h", "k_w", "stride", "groups", "dilation"):
        for value in (True, 2.0):
            with pytest.raises(ValueError, match=f"{field} must be a positive integer, got {value}"):
                ConvSpec(**{"c_in": 2, "c_out": 2, "k_h": 2, "k_w": 2, field: value})
    assert ConvSpec(*map(np.int64, (2, 2, 2, 2))).c_in == 2


def test_identity_kernel_is_identity():
    x = rng(0).standard_normal((3, 8, 8))
    K = identity_kernel(3)
    y = conv2d_ref(K, x, spec_for_kernel(K))
    np.testing.assert_array_equal(y, x)
    # odd larger extents still act as the identity
    K5 = identity_kernel(3, 5, 5)
    y5 = conv2d_ref(K5, x, spec_for_kernel(K5))
    np.testing.assert_allclose(y5, x, atol=0)


def test_scalar_kernel_scales():
    K = KernelTensor(2.0 * np.ones((1, 1, 1, 1)))
    x = rng(1).standard_normal((1, 6, 6))
    y = conv2d_ref(K, x, spec_for_kernel(K))
    np.testing.assert_allclose(y, 2.0 * x, atol=0)


def test_conv_matches_toeplitz_product():
    # oracle: the explicit dense operator built from impulse responses
    K = random_kernel(2, 3, 3, 3, seed=11)
    spec = spec_for_kernel(K)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    x = rng(12).standard_normal((3, 8, 8))
    y = conv2d_ref(K, x, spec)
    np.testing.assert_allclose(y.ravel(), T @ x.ravel(), atol=1e-12)


@pytest.mark.parametrize("stride,groups,dilation", [
    (1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2),
])
def test_conv_matches_toeplitz_product_all_specs(stride, groups, dilation):
    K = KernelTensor(rng((13, stride, groups, dilation)).standard_normal(
        (4, 4 // groups, 3, 3)), groups=groups)
    spec = spec_for_kernel(K, stride=stride, dilation=dilation)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    x = rng(14).standard_normal((4, 8, 8))
    np.testing.assert_allclose(conv2d_ref(K, x, spec).ravel(), T @ x.ravel(), atol=1e-12)


@pytest.mark.parametrize("stride,dilation,groups", [(1, 1, 1), (2, 1, 1), (2, 2, 2), (1, 2, 1)])
def test_conv_linearity(stride, dilation, groups):
    K = KernelTensor(rng(5).standard_normal((4, 4 // groups, 3, 3)), groups=groups)
    spec = spec_for_kernel(K, stride=stride, dilation=dilation)
    g = rng(6)
    x, z = g.standard_normal((2, 4, 8, 8))
    a, b = 0.37, -1.61
    lhs = conv2d_ref(K, a * x + b * z, spec)
    rhs = a * conv2d_ref(K, x, spec) + b * conv2d_ref(K, z, spec)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("stride,dilation,groups,k", [
    (1, 1, 1, 3), (2, 1, 1, 3), (2, 1, 2, 2), (1, 2, 1, 5), (2, 2, 1, 3), (4, 1, 1, 4),
])
def test_transpose_is_exact_adjoint(stride, dilation, groups, k):
    K = KernelTensor(rng(7).standard_normal((4, 6 // groups, k, k)), groups=groups)
    spec = spec_for_kernel(K, stride=stride, dilation=dilation)
    g = rng(8)
    x = g.standard_normal((6, 8, 8))
    y = g.standard_normal((4, 8 // stride, 8 // stride))
    lhs = float(np.sum(conv2d_ref(K, x, spec) * y))
    rhs = float(np.sum(x * conv2d_transpose_ref(K, y, spec)))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_transpose_is_adjoint_at_real_width():
    # 128 -> 256 k3 s2, the widest layer of a ResNet-style check, 5 trials
    K = KernelTensor(rng(11).standard_normal((256, 128, 3, 3)))
    spec = spec_for_kernel(K, stride=2)
    g = rng(12)
    x = g.standard_normal((5, 128, 8, 8))
    y = g.standard_normal((5, 256, 4, 4))
    fx, ty = conv2d_ref(K, x, spec), conv2d_transpose_ref(K, y, spec)
    for t in range(5):
        lhs, rhs = float(np.sum(fx[t] * y[t])), float(np.sum(x[t] * ty[t]))
        # relative to the Cauchy-Schwarz bound on both sides
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(fx[t]) * np.linalg.norm(y[t])


def test_transpose_matches_dense_transpose():
    K = random_kernel(4, 2, 2, 2, seed=9)
    spec = spec_for_kernel(K, stride=2)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    y = rng(10).standard_normal((4, 4, 4))
    out = conv2d_transpose_ref(K, y, spec)
    np.testing.assert_allclose(out.ravel(), T.T @ y.ravel(), atol=1e-12)


def test_transpose_identity_kernel():
    K = identity_kernel(3)
    x = rng(2).standard_normal((3, 6, 6))
    np.testing.assert_array_equal(conv2d_transpose_ref(K, x, spec_for_kernel(K)), x)


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_kernel_transpose_involution(co, ci, k1, k2, g, seed):
    # co and ci per group
    K = KernelTensor(random_kernel(g * co, ci, k1, k2, seed=seed).data, groups=g)
    Kt = kernel_transpose(K)
    np.testing.assert_array_equal(kernel_transpose(Kt).data, K.data)
    # a grouped kernel transposes group by group
    assert Kt.groups == g and Kt.shape == (g * ci, co, k1, k2)
    for q in range(g):
        part = kernel_transpose(KernelTensor(K.data[q * co:(q + 1) * co]))
        np.testing.assert_array_equal(Kt.data[q * ci:(q + 1) * ci], part.data)


def test_kernel_transpose_symmetric_1x1_unchanged():
    S = rng(3).standard_normal((4, 4))
    S = S + S.T
    K = KernelTensor(S.reshape(4, 4, 1, 1))
    np.testing.assert_array_equal(kernel_transpose(K).data, K.data)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_flipped_kernel_equals_adjoint_odd_sizes(k):
    # centred convention: for odd sizes the flipped kernel IS the adjoint
    K = random_kernel(3, 4, k, k, seed=20 + k)
    spec = spec_for_kernel(K)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    Kt = kernel_transpose(K)
    Tt = toeplitz_from_kernel(Kt, spec_for_kernel(Kt), 8, 8)
    np.testing.assert_allclose(Tt, T.T, atol=1e-12)
    x = rng(21).standard_normal((3, 8, 8))
    np.testing.assert_allclose(
        conv2d_ref(Kt, x, spec_for_kernel(Kt)),
        conv2d_transpose_ref(K, x, spec),
        atol=1e-12,
    )


def test_flipped_kernel_even_size_is_shifted_adjoint():
    # even sizes differ from the adjoint by exactly a one-pixel circular shift
    K = random_kernel(3, 3, 2, 2, seed=33)
    spec = spec_for_kernel(K)
    x = rng(34).standard_normal((3, 8, 8))
    flipped = conv2d_ref(kernel_transpose(K), x, spec_for_kernel(kernel_transpose(K)))
    adjoint = conv2d_transpose_ref(K, x, spec)
    np.testing.assert_allclose(flipped, np.roll(adjoint, (1, 1), axis=(1, 2)), atol=1e-12)


def test_stride_divisibility_error():
    K = random_kernel(2, 2, 3, 3, seed=0)
    spec = spec_for_kernel(K, stride=3)
    with pytest.raises(ValueError, match="divisible"):
        conv2d_ref(K, np.zeros((2, 8, 8)), spec)


def test_shape_mismatch_errors():
    K = random_kernel(2, 3, 3, 3, seed=0)
    spec = spec_for_kernel(K)
    with pytest.raises(ValueError):
        conv2d_ref(K, np.zeros((4, 8, 8)), spec)  # wrong channels
    bad_spec = ConvSpec(c_in=3, c_out=2, k_h=5, k_w=5)
    with pytest.raises(ValueError):
        conv2d_ref(K, np.zeros((3, 8, 8)), bad_spec)  # kernel/spec mismatch
    with pytest.raises(ValueError, match="x extents"):
        conv2d_ref(K, np.zeros((3, 0, 8)), spec)
    with pytest.raises(TypeError, match="KernelTensor"):
        conv2d_ref(K.data, np.zeros((3, 8, 8)), spec)  # a bare array
    with pytest.raises(ValueError, match="kernel extents"):
        KernelTensor(np.zeros((2, 3, 0, 3)))
    with pytest.raises(ValueError, match="groups must be a positive integer, got 0"):
        KernelTensor(np.zeros((2, 3, 3, 3)), groups=0)
    for shape in ((3, 8), (1, 1, 3, 8, 8)):  # one image or one batch only
        with pytest.raises(ValueError, match="axes"):
            conv2d_ref(K, np.zeros(shape), spec)
        with pytest.raises(ValueError, match="axes"):
            conv2d_transpose_ref(K, np.zeros(shape), spec)


@st.composite
def batched_configs(draw):
    g = draw(st.sampled_from([1, 2, 3]))
    c_in = g * draw(st.integers(1, 6 // g))
    c_out = g * draw(st.integers(1, 6 // g))
    k, s, d = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    h, w = s * draw(st.integers(1, 4)), s * draw(st.integers(1, 4))
    return n, c_in, c_out, k, s, g, d, h, w, draw(st.integers(0, 1000))


@given(batched_configs())
# k5 d3 on a 2x2 output grid, at s = 1 and s = 2: lags that wrap more than once
@example((3, 2, 4, 5, 1, 2, 3, 2, 2, 4))
@example((2, 3, 2, 5, 2, 1, 3, 4, 4, 5))
@settings(max_examples=60, deadline=None)
def test_batch_axis_matches_per_image_calls(config):
    n, c_in, c_out, k, s, g, d, h, w, seed = config
    r = rng(seed)
    K = KernelTensor(r.standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s, dilation=d)
    x = r.standard_normal((n, c_in, h, w))
    z = r.standard_normal((n, c_out, h // s, w // s))
    y, yt = conv2d_ref(K, x, spec), conv2d_transpose_ref(K, z, spec)
    assert y.shape == z.shape and yt.shape == x.shape
    for i in range(n):
        np.testing.assert_array_equal(y[i], conv2d_ref(K, x[i], spec))
        np.testing.assert_array_equal(yt[i], conv2d_transpose_ref(K, z[i], spec))


@given(batched_configs())
# n, c_in, c_out, k, s, g, d, h, w, seed: products with one row or one
# column (c_out/g = 1, c_in/g = 1, ho*wo = 1), where matmul takes other paths
@example((2, 4, 2, 3, 1, 2, 1, 4, 4, 0))
@example((3, 3, 6, 3, 2, 3, 2, 2, 2, 1))
@example((2, 6, 5, 2, 3, 1, 1, 3, 3, 2))
@example((1, 2, 2, 2, 1, 2, 1, 1, 1, 3))
# k5 d3 on a 2x2 output grid, at s = 1 and s = 2: lags that wrap more than once
@example((3, 2, 4, 5, 1, 2, 3, 2, 2, 4))
@example((2, 3, 2, 5, 2, 1, 3, 4, 4, 5))
@settings(max_examples=80, deadline=None)
def test_operators_equal_scatter_oracles(config):
    n, c_in, c_out, k, s, g, d, h, w, seed = config
    r = rng(seed)
    K = KernelTensor(r.standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s, dilation=d)
    x = r.standard_normal((n, c_in, h, w))
    z = r.standard_normal((n, c_out, h // s, w // s))
    for xb, zb in ((x, z), (x[0], z[0])):
        np.testing.assert_array_equal(conv2d_ref(K, xb, spec), conv2d_scatter(K, xb, spec))
        np.testing.assert_array_equal(conv2d_transpose_ref(K, zb, spec),
                                      conv2d_transpose_scatter(K, zb, spec))


@pytest.mark.parametrize("adjoint", [False, True])
def test_taps_yield_the_phase_and_lag_of_each_offset(adjoint):
    # tap (i', j') reads input row i*s + off at output row i, with
    # off = -(i' - (k_h-1)//2)*d, so off = p + s*t with 0 <= p < s; each
    # operator's GEMM operand for the tap is its tap-major block [i', j']
    r = rng(60)
    for k_h, k_w, s, d in itertools.product((1, 2, 5), (1, 4), (1, 2, 3), (1, 3)):
        K = KernelTensor(r.standard_normal((2, 3, k_h, k_w)))
        spec = spec_for_kernel(K, stride=s, dilation=d)
        taps = list(_taps(spec))
        assert [tap for tap, _, _ in taps] == list(np.ndindex(k_h, k_w))
        Kt = _tap_major(K, spec, adjoint, n_cols=6)
        for (ip, jp), (p, q), (t1, t2) in taps:
            for phase, lag, off in ((p, t1, -(ip - (k_h - 1) // 2) * d),
                                    (q, t2, -(jp - (k_w - 1) // 2) * d)):
                assert 0 <= phase < s and phase + s * lag == off
            tap = K.data[:, :, ip, jp]
            np.testing.assert_array_equal(Kt[ip, jp, 0], tap.T if adjoint else tap)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.integers(1, 2 ** 70))
@example(5, 5, 3, 2 ** 70)
@example(5, 4, 2, 2 ** 63 + 1)
@settings(max_examples=200, deadline=None)
def test_taps_hold_distinct_slots_with_lags_monotone_in_the_tap(k_h, k_w, s, d):
    # each tap is its own block of the polyphase kernel E, and the lag never
    # grows along an axis: so wrapping E's slots onto a grid in tap order adds
    # the taps that collide in the order conv2d_ref sums them
    taps = list(_taps(ConvSpec(1, 1, k_h, k_w, stride=s, dilation=d)))
    assert len({(phase, lag) for _, phase, lag in taps}) == k_h * k_w
    lags = {tap: lag for tap, _, lag in taps}
    for (ip, jp), (t1, t2) in lags.items():
        assert ip + 1 == k_h or lags[ip + 1, jp][0] <= t1
        assert jp + 1 == k_w or lags[ip, jp + 1][1] <= t2


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("d", [2 ** 62 + 1, 2 ** 63 + 1, 2 ** 64 + 5, 2 ** 70 + 7])
def test_operators_at_dilations_beyond_int64(s, d):
    # only d mod lcm(h, w) reaches the image: both operators equal, bit for
    # bit, the ones at that dilation, with no lag overflowing an int64
    h, w = 4 * s, 3 * s
    K = KernelTensor(rng(61).standard_normal((4, 3, 3, 5)))
    reduced = d % math.lcm(h, w) or math.lcm(h, w)
    spec, small = spec_for_kernel(K, s, d), spec_for_kernel(K, s, reduced)
    x, z = rng(62).standard_normal((2, 3, h, w)), rng(63).standard_normal((2, 4, h // s, w // s))
    np.testing.assert_array_equal(conv2d_ref(K, x, spec), conv2d_ref(K, x, small))
    np.testing.assert_array_equal(conv2d_transpose_ref(K, z, spec),
                                  conv2d_transpose_ref(K, z, small))


def test_grouped_channel_blocks_are_contiguous():
    # group q reads input channels [q*c_in/g, (q+1)*c_in/g)
    g = 2
    K = KernelTensor(rng(50).standard_normal((4, 2, 1, 1)), groups=g)
    spec = spec_for_kernel(K)
    x = rng(51).standard_normal((4, 4, 4))
    y = conv2d_ref(K, x, spec)
    for q in range(g):
        Kq = KernelTensor(K.data[q * 2:(q + 1) * 2])
        yq = conv2d_ref(Kq, x[q * 2:(q + 1) * 2], spec_for_kernel(Kq))
        np.testing.assert_allclose(y[q * 2:(q + 1) * 2], yq, atol=1e-13)
