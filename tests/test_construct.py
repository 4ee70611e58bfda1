import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthokernel import construct
from orthokernel import (
    AocConfig,
    ConvSpec,
    KernelTensor,
    UnsupportedConfigError,
    aoc_kernel,
    bcop_kernel,
    check_orthogonality,
    conv2d_ref,
    conv2d_transpose_ref,
    identity_kernel,
    kernel_transpose,
    polyphase_spectrum,
    rko_kernel,
    roundtrip_check,
    sample_params,
    skew_symmetrize_kernel,
    soc_explicit_kernel,
    soc_normalized_skew,
    spec_for_kernel,
    toeplitz_from_kernel,
)
from orthokernel.orthogonalize import SCHEMES
from conftest import blas_core, perfbench_module, random_kernel, rng, traced_peak
from oracles import aoc_kernel_per_group, block_conv_naive, projector_kernel_ref


def spectrum_ok(K, spec, h=8, w=8, tol=1e-4):
    return check_orthogonality(K, spec, h, w, tolerance=tol)


# --- projector compositions ---------------------------------------------------

def test_bcop_k1_is_channel_map_only():
    K = bcop_kernel(4, 4, 1, 1, seed=3)
    assert K.shape == (4, 4, 1, 1)
    M = K.data[:, :, 0, 0]
    assert np.max(np.abs(M @ M.T - np.eye(4))) <= 1e-9


def test_bcop_square_spectrum_flat():
    K = bcop_kernel(4, 4, 3, 3, seed=0)
    rep = spectrum_ok(K, spec_for_kernel(K))
    assert rep.passed
    assert abs(rep.sigma_min - 1.0) <= 1e-4 and abs(rep.sigma_max - 1.0) <= 1e-4


def test_bcop_row_orthogonal_fused_identity():
    # row orthogonality at the kernel level: K . K^T equals the identity
    # kernel (delta at the centre tap of the doubled support)
    K = bcop_kernel(6, 2, 3, 3, seed=1)
    fused = block_conv_naive(K, kernel_transpose(K))
    expected = identity_kernel(2, 5, 5)
    np.testing.assert_allclose(fused.data, expected.data, atol=1e-8)


@pytest.mark.parametrize("ci,co,k1,k2", [(2, 6, 3, 3), (4, 8, 5, 5), (3, 5, 2, 2),
                                         (1, 4, 3, 3), (4, 1, 3, 3), (4, 4, 3, 2)])
def test_bcop_spectrum_various_shapes(ci, co, k1, k2):
    K = bcop_kernel(ci, co, k1, k2, seed=7)
    assert K.shape == (co, ci, k1, k2)
    assert spectrum_ok(K, spec_for_kernel(K)).passed


def test_bcop_rejects_width_one_spatial():
    with pytest.raises(UnsupportedConfigError):
        bcop_kernel(1, 1, 3, 3)
    with pytest.raises(ValueError, match="k_h must be a positive integer, got 0"):
        bcop_kernel(2, 2, 0, 3)
    with pytest.raises(ValueError, match="c_in must be a positive integer, got 0"):
        bcop_kernel(0, 2, 3, 3)


def test_rko_refuses_what_conv_spec_refuses():
    # c_in = 0 once failed inside numpy ("cannot reshape array of size 0")
    with pytest.raises(ValueError, match="c_in must be a positive integer, got 0"):
        rko_kernel(0, 4, 3, 3)
    with pytest.raises(ValueError, match="k_w must be a positive integer, got True"):
        rko_kernel(4, 4, 3, True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(SCHEMES), st.integers(0, 2 ** 32 - 1))
def test_bcop_kernel_equals_literal_projector_chain(c_in, c_out, k1, k2, scheme, seed):
    # each [N, I-N] factor folded in closed form against the dense factors
    # composed by the naive block convolution
    assume(max(c_in, c_out) >= 2 or k1 == k2 == 1)
    K = bcop_kernel(c_in, c_out, k1, k2, seed=seed, scheme=scheme)
    ref = projector_kernel_ref(c_in, c_out, k1, k2, seed, scheme)
    assert K.shape == ref.shape == (c_out, c_in, k1, k2)
    np.testing.assert_allclose(K.data, ref.data, rtol=0, atol=1e-12)


# --- reshaped-kernel orthogonalization -----------------------------------------

def test_rko_1x1_stride1_orthogonal():
    K = rko_kernel(3, 3, 1, 1, seed=4)
    rep = spectrum_ok(K, spec_for_kernel(K))
    assert rep.passed


def test_rko_k_equals_s_orthogonal():
    K = rko_kernel(3, 12, 2, 2, seed=5)
    rep = spectrum_ok(K, spec_for_kernel(K, stride=2))
    assert rep.passed


RKO_WITNESS_SEED = 6


def test_rko_k3_s1_not_orthogonal_witness():
    # pinned witness: sharpness of the k == s condition
    K = rko_kernel(4, 4, 3, 3, seed=RKO_WITNESS_SEED)
    rep = spectrum_ok(K, spec_for_kernel(K))
    assert not rep.passed
    assert rep.sigma_min < 1.0 - 1e-2


# --- adaptive construction ------------------------------------------------------

def make_cfg(ci, co, k, s=1, g=1, d=1, **kw):
    spec = ConvSpec(c_in=ci, c_out=co, k_h=k, k_w=k, stride=s, groups=g, dilation=d)
    return AocConfig(spec=spec, **kw)


def test_aoc_branch_a():
    cfg = make_cfg(4, 8, 3, s=1, seed=1)
    K, tag = aoc_kernel(cfg)
    assert tag.branch == "a"
    assert K.shape == (8, 4, 3, 3)
    assert spectrum_ok(K, cfg.spec).passed


def test_aoc_branch_b_square_operator():
    cfg = make_cfg(2, 8, 2, s=2, seed=1)
    K, tag = aoc_kernel(cfg)
    assert tag.branch == "b"
    rep = spectrum_ok(K, cfg.spec)
    assert rep.passed
    # square operator: both roundtrip directions hold
    assert roundtrip_check(K, cfg.spec, direction="row") <= 1e-8
    assert roundtrip_check(K, cfg.spec, direction="column") <= 1e-8


def test_aoc_branch_d_grouped():
    cfg = make_cfg(8, 4, 3, s=2, g=2, seed=1)
    K, tag = aoc_kernel(cfg)
    assert tag.branch == "d"
    assert K.shape == (4, 4, 3, 3) and K.groups == 2
    assert tag.internal_width == 4  # max(c_in_pg, floor(c_out_pg / s^2)) = max(4, 0)
    assert spectrum_ok(K, cfg.spec).passed


def test_aoc_channel_increasing_strided_uses_fusion():
    # an unstrided kernel applied with stride is never orthogonal, so the
    # channel-increasing strided case goes straight to the fused branch
    cfg = make_cfg(2, 8, 3, s=2, seed=1)
    K, tag = aoc_kernel(cfg)
    assert tag.branch == "d"
    assert tag.internal_width == 2  # max(c_in, floor(c_out / s^2)) = max(2, 2)
    assert spectrum_ok(K, cfg.spec).passed


def test_aoc_wide_channel_increasing_strided():
    # 256->512 k3 s2: the widest resnet-style layer, built through fusion
    cfg = make_cfg(256, 512, 3, s=2, seed=0)
    K, tag = aoc_kernel(cfg)
    assert tag.branch == "d"
    assert tag.internal_width == 256  # max(256, floor(512 / 4))
    assert roundtrip_check(K, cfg.spec, direction="row") <= 1e-8


def test_construct_imports_nothing_from_verify():
    # verify imports construct; the reverse would be an import cycle
    tree = ast.parse(Path(construct.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [getattr(n, "module", None) or "" for n in imports]
    names += [alias.name for n in imports for alias in n.names]
    assert not any(name.split(".")[-1] == "verify" for name in names)
    assert all(n in tree.body for n in imports)  # no function-level imports


def test_aoc_internal_width_law():
    # the fused branch uses c = max(c_in, floor(c_out / s^2)), the largest
    # width for which both factors share an orthogonality orientation
    for (ci, co, s, expect) in [(4, 2, 2, 4), (2, 16, 2, 4), (3, 10, 2, 3), (2, 18, 3, 2)]:
        cfg = make_cfg(ci, co, 5 if s == 3 else 3, s=s, seed=2)
        K, tag = aoc_kernel(cfg)
        assert tag.branch == "d"
        assert tag.internal_width == expect
        lo = min(ci, co / s**2)
        hi = max(ci, co / s**2)
        assert lo - 1 < tag.internal_width <= max(hi, ci)


def test_aoc_group_seeds_distinct():
    # the groups are slabs of one draw per factor, so they differ, and the
    # tag names no per-group seed: the config's seed is the whole recipe
    K, tag = aoc_kernel(make_cfg(8, 8, 3, s=1, g=2, seed=10))
    assert tag.to_dict() == {"branch": "a", "internal_width": None}
    assert np.max(np.abs(K.data[:4] - K.data[4:])) > 1e-3


@pytest.mark.parametrize("spec, group", [
    (ConvSpec(8, 8, 3, 3, groups=4), ConvSpec(2, 2, 3, 3)),
    (ConvSpec(8, 8, 2, 2, stride=2, groups=4), ConvSpec(2, 2, 2, 2, stride=2)),
    (ConvSpec(8, 16, 3, 3, stride=2, groups=2), ConvSpec(4, 8, 3, 3, stride=2)),
], ids=["a", "b", "d"])
def test_sample_params_calls_independent_of_groups(monkeypatch, spec, group):
    # one draw per factor for all groups, the draws an ungrouped layer of
    # the per-group shape makes; group 0 is slab 0 of each, so it is that
    # layer's kernel
    seeds = []
    draw = construct.sample_params
    monkeypatch.setattr(construct, "sample_params",
                        lambda shape, seed: seeds.append(seed) or draw(shape, seed))
    K, tag = aoc_kernel(AocConfig(spec=spec, scheme="qr_mgs", seed=5))
    grouped, seeds[:] = list(seeds), []
    K0, tag0 = aoc_kernel(AocConfig(spec=group, scheme="qr_mgs", seed=5))
    assert grouped == seeds
    assert tag == tag0
    assert K.data[:group.c_out].tobytes() == K0.data.tobytes()


def test_draw_streams_never_coincide(monkeypatch):
    # numpy's SeedSequence ignores trailing zero words and splits an integer
    # into 32-bit words, so distinct seed words can name one stream: every
    # draw of one layer, and of these layers at seeds 0-50, has its own
    seen = []
    draw = construct.sample_params
    monkeypatch.setattr(construct, "sample_params",
                        lambda shape, seed: seen.append(seed) or draw(shape, seed))
    specs = [ConvSpec(4, 8, 3, 3), ConvSpec(3, 12, 2, 2, stride=2), ConvSpec(4, 8, 3, 3, stride=2),
             ConvSpec(8, 8, 3, 3, groups=2), ConvSpec(4, 8, 2, 2, stride=2, groups=2),
             ConvSpec(8, 16, 3, 3, stride=2, groups=2)]
    for seed in range(51):
        for spec in specs:
            start = len(seen)
            aoc_kernel(AocConfig(spec=spec, seed=seed))
            assert len(set(seen[start:])) == len(seen) - start
    words = set(seen)
    assert len({tuple(sample_params(4, w)) for w in words}) == len(words)


@pytest.mark.parametrize("g", [2, 4])
def test_aoc_groups_differ_across_seeds(g):
    # with per-group seeds seed+q, group 1 at seed s equalled group 0 at s+1
    co = 8 // g
    groups = []
    for seed in range(4):
        K, _ = aoc_kernel(make_cfg(8, 8, 3, s=1, g=g, seed=seed))
        groups += [K.data[q * co:(q + 1) * co] for q in range(g)]
    for i, a in enumerate(groups):
        for b in groups[i + 1:]:
            assert not np.array_equal(a, b)


def test_aoc_determinism():
    cfg = make_cfg(4, 8, 3, s=2, seed=123)
    K1, _ = aoc_kernel(cfg)
    K2, _ = aoc_kernel(cfg)
    np.testing.assert_array_equal(K1.data, K2.data)


def test_aoc_rejects_stride_exceeding_kernel():
    with pytest.raises(UnsupportedConfigError, match="stride"):
        aoc_kernel(make_cfg(4, 4, 2, s=3))


def test_aoc_rejects_depthwise_spatial():
    with pytest.raises(UnsupportedConfigError, match="unsupported"):
        aoc_kernel(make_cfg(4, 4, 3, s=1, g=4))


def test_aoc_depthwise_k_equals_s_supported():
    cfg = make_cfg(4, 4, 2, s=2, g=4, seed=3)
    K, tag = aoc_kernel(cfg)
    assert tag.branch == "b"
    assert spectrum_ok(K, cfg.spec).passed


def test_aoc_rejects_stride_dilation_common_factor():
    with pytest.raises(UnsupportedConfigError, match="dilation"):
        aoc_kernel(make_cfg(4, 4, 3, s=2, d=2))


def test_size_budget_admits_workload_layers_and_2048_wide_k3():
    # the budget is checked from the spec alone: nothing is built here
    workloads = perfbench_module("workloads").WORKLOADS
    specs = [layer.spec() for layers in workloads.values() for layer in layers()]
    for spec in specs + [ConvSpec(2048, 2048, 3, 3)]:
        construct._choose_branch(spec)


@pytest.mark.parametrize("spec, kernel, factor", [
    (ConvSpec(65536, 65536, 3, 3), 65536 * 65536 * 9, 65536 * 65536 * 9),
    (ConvSpec(4, 8, 2 ** 40, 2 ** 40), 8 * 4 * 2 ** 80, 8 * 4 * 2 ** 80),
    # a small kernel with large projector bases (two of 16384 x 8192,
    # orthogonalized as one stack)
    (ConvSpec(1, 16384, 2, 2), 16384 * 4, 2 * 16384 * 8192),
    # a small kernel composed at its input width before truncation
    (ConvSpec(16384, 1, 3, 3), 16384 * 9, 16384 * 16384 * 9),
    # branch "d": the 16384 x 4096*4 outer factor
    (ConvSpec(1, 16384, 3, 3, stride=2), 16384 * 9, 16384 * 16384),
])
def test_size_budget_refuses_from_the_spec(spec, kernel, factor):
    with pytest.raises(UnsupportedConfigError,
                       match=f"kernel has {kernel} entries and its largest factor {factor},"):
        construct._choose_branch(spec)


def test_aoc_dilated_same_kernel():
    base = make_cfg(4, 4, 3, s=1, d=1, seed=4)
    dil = make_cfg(4, 4, 3, s=1, d=2, seed=4)
    K1, _ = aoc_kernel(base)
    K2, _ = aoc_kernel(dil)
    np.testing.assert_array_equal(K1.data, K2.data)
    assert spectrum_ok(K2, dil.spec).passed


def test_aoc_grouped_blockdiag_toeplitz():
    cfg = make_cfg(8, 4, 3, s=2, g=2, seed=5)
    K, _ = aoc_kernel(cfg)
    T = toeplitz_from_kernel(K, cfg.spec, 8, 8)
    # assemble per-group operators into a block diagonal and compare exactly
    blocks = []
    for q in range(2):
        Kq = KernelTensor(K.data[q * 2:(q + 1) * 2])
        blocks.append(toeplitz_from_kernel(Kq, spec_for_kernel(Kq, stride=2), 8, 8))
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    D = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        D[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    np.testing.assert_allclose(T, D, atol=1e-12)


# --- transposition ---------------------------------------------------------------

def test_transpose_roundtrip_row_orthogonal():
    cfg = make_cfg(8, 4, 3, s=2, seed=6)
    K, _ = aoc_kernel(cfg)
    x = rng(7).standard_normal((4, 4, 4))
    back = conv2d_ref(K, conv2d_transpose_ref(K, x, cfg.spec), cfg.spec)
    np.testing.assert_allclose(back, x, atol=1e-8)


def test_square_operator_invertibility_both_directions():
    # c_out = c_in * s^2: the strided operator is square, conv and its
    # transpose invert each other in both compositions
    cfg = make_cfg(2, 8, 2, s=2, seed=9)
    K, _ = aoc_kernel(cfg)
    g = rng(10)
    y = g.standard_normal((8, 4, 4))
    x = g.standard_normal((2, 8, 8))
    np.testing.assert_allclose(
        conv2d_ref(K, conv2d_transpose_ref(K, y, cfg.spec), cfg.spec), y, atol=1e-8)
    np.testing.assert_allclose(
        conv2d_transpose_ref(K, conv2d_ref(K, x, cfg.spec), cfg.spec), x, atol=1e-8)


# --- explicit exponential ---------------------------------------------------------

def test_soc_terms_one_is_identity_plus_kernel():
    K = random_kernel(3, 3, 3, 3, seed=11)
    E = soc_explicit_kernel(K, terms=1)
    expected = identity_kernel(3, 3, 3).data + K.data
    np.testing.assert_allclose(E.data, expected, atol=0)


def test_soc_kernel_size_growth():
    K = random_kernel(2, 2, 3, 3, seed=12)
    E = soc_explicit_kernel(K, terms=5)
    assert E.shape == (2, 2, 11, 11)  # terms*(k-1)+1


def test_soc_fused_equals_iterated_series():
    # oracle: apply the truncated series term by term with the reference conv
    K = skew_symmetrize_kernel(random_kernel(2, 2, 3, 3, seed=13))
    terms = 12
    x = rng(14).standard_normal((2, 8, 8))
    acc = x.copy()
    term = x.copy()
    factorial = 1.0
    for t in range(1, terms + 1):
        factorial *= t
        term = conv2d_ref(K, term, spec_for_kernel(K))
        acc = acc + term / factorial
    E = soc_explicit_kernel(K, terms)
    fused = conv2d_ref(E, x, spec_for_kernel(E))
    np.testing.assert_allclose(fused, acc, atol=1e-8)


def test_soc_skew_operator_is_skew():
    K = skew_symmetrize_kernel(random_kernel(2, 2, 3, 3, seed=15))
    T = toeplitz_from_kernel(K, spec_for_kernel(K), 8, 8)
    assert np.max(np.abs(T + T.T)) <= 1e-12


def test_soc_18_terms_spectrum_flat():
    S = soc_normalized_skew(random_kernel(2, 2, 3, 3, seed=16))
    E = soc_explicit_kernel(S, terms=18)
    rep = spectrum_ok(E, spec_for_kernel(E))
    assert rep.passed


@pytest.mark.parametrize("size", [8, 16, 32])
def test_soc_normalized_skew_norm_at_most_one(size):
    S = soc_normalized_skew(random_kernel(4, 4, 5, 5, seed=1))
    assert polyphase_spectrum(S, spec_for_kernel(S), size, size).max() <= 1.0


@pytest.mark.parametrize("size", [8, 16, 32])
def test_soc_six_terms_within_series_tail(size):
    # exp(S) is orthogonal for a skew S, and ||S|| <= 1 bounds the rest of
    # the series by its tail
    S = soc_normalized_skew(random_kernel(4, 4, 5, 5, seed=1))
    E = soc_explicit_kernel(S, terms=6)
    tail = sum(1.0 / math.factorial(t) for t in range(7, 30))
    sv = polyphase_spectrum(E, spec_for_kernel(E), size, size)
    assert np.max(np.abs(sv - 1.0)) <= tail


@pytest.mark.parametrize("k_h,k_w", [(2, 2), (4, 4), (3, 2), (2, 5)])
def test_skew_refuses_even_kernel_sizes(k_h, k_w):
    # at even sizes kernel_transpose is the adjoint only up to a one-pixel
    # shift, so the exponential of K - transpose(K) is not orthogonal
    K = random_kernel(4, 4, k_h, k_w, seed=1)
    for make in (skew_symmetrize_kernel, soc_normalized_skew):
        with pytest.raises(ValueError, match=f"odd kernel sizes, got {k_h}x{k_w}"):
            make(K)


def test_soc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        soc_explicit_kernel(random_kernel(2, 3, 3, 3, seed=0), terms=3)
    with pytest.raises(ValueError):
        soc_explicit_kernel(random_kernel(2, 2, 3, 3, seed=0), terms=0)
    # square channel counts, but 2 groups of 2 -> 2: refused before any fusion
    grouped = KernelTensor(0.1 * rng(0).standard_normal((4, 2, 3, 3)), groups=2)
    for make in (soc_explicit_kernel, skew_symmetrize_kernel):
        with pytest.raises(ValueError, match="square channel counts and groups == 1"):
            make(grouped)
    with pytest.raises(ValueError, match="square channel counts and groups == 1"):
        skew_symmetrize_kernel(random_kernel(2, 4, 3, 3, seed=0))


def test_soc_normalized_skew_of_a_symmetric_kernel_is_zero():
    # the identity is its own transpose, so its skew part and bound are 0
    S = soc_normalized_skew(identity_kernel(3, 3, 3))
    assert S.shape == (3, 3, 3, 3) and not np.any(S.data)


def test_soc_default_term_count():
    K = skew_symmetrize_kernel(random_kernel(2, 2, 3, 3, seed=17))
    assert soc_explicit_kernel(K).shape == soc_explicit_kernel(K, terms=12).shape


def test_aoc_config_validation():
    spec = ConvSpec(c_in=4, c_out=4, k_h=3, k_w=3)
    with pytest.raises(ValueError):
        AocConfig(spec=spec, scheme="qr")
    with pytest.raises(ValueError):
        AocConfig(spec=spec, seed=-1)
    # numpy splits larger seeds into 32-bit words: 2**32 draws what (0, 1) draws
    with pytest.raises(ValueError, match="seed"):
        AocConfig(spec=spec, seed=2 ** 32)
    with pytest.raises(ValueError, match="seed must be an integer in \\[0, 2\\*\\*32\\), got True"):
        AocConfig(spec=spec, seed=True)
    AocConfig(spec=spec, seed=2 ** 32 - 1)


# --- groups as a batch axis ----------------------------------------------------

@st.composite
def aoc_configs(draw):
    c_in, c_out = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    g = draw(st.sampled_from([q for q in range(1, 9) if c_in % q == 0 and c_out % q == 0]))
    spec = ConvSpec(c_in=c_in, c_out=c_out, k_h=draw(st.integers(1, 4)),
                    k_w=draw(st.integers(1, 4)), stride=draw(st.integers(1, 3)), groups=g,
                    dilation=draw(st.integers(1, 3)))
    return AocConfig(spec=spec, scheme=draw(st.sampled_from(SCHEMES)),
                     seed=draw(st.integers(0, 2 ** 32 - 1)))


def _outcome(build, cfg):
    """The kernel bytes and branch tag `build` gives, or its refusal."""
    try:
        K, tag = build(cfg)
    except ValueError as exc:
        return type(exc), str(exc)
    return K.data.dtype, K.data.shape, K.groups, K.data.tobytes(), tag


@settings(max_examples=300, deadline=None)
@given(aoc_configs())
# a layer whose 2x1 projector bases have one column, under cholesky
@example(AocConfig(spec=ConvSpec(2, 4, 3, 3, groups=2), scheme="cholesky", seed=1))
@example(AocConfig(spec=ConvSpec(8, 8, 3, 3, stride=2, groups=4)))
@example(AocConfig(spec=ConvSpec(8, 8, 4, 2, groups=2), scheme="exponential", seed=3))
def test_aoc_kernel_equals_per_group_oracle(cfg):
    assert _outcome(aoc_kernel, cfg) == _outcome(aoc_kernel_per_group, cfg)


def test_cholesky_builds_and_verifies_at_every_seed():
    # this layer's 2x1 projector bases have one column: every seed must
    # build them, and the kernel must be orthogonal to rounding
    spec = ConvSpec(2, 4, 3, 3, groups=2)
    for seed in range(200):
        K, _ = aoc_kernel(AocConfig(spec=spec, scheme="cholesky", seed=seed))
        report = check_orthogonality(K, spec, 8, 8)
        assert report.passed, seed
        assert max(1.0 - report.sigma_min, report.sigma_max - 1.0) <= 1e-12, seed


# --- byte determinism ---------------------------------------------------------

# sha256 of the kernel's dtype, shape, groups and array bytes (`_sha256`),
# pinned so that a change of kernel bytes is deliberate: a change that moves
# them updates these and says why.  They hash the array, not the okt-v1 text,
# so a change to the file's float text leaves them in place.  The bytes are
# those of one OpenBLAS CPU kernel (`blas_core`; `OPENBLAS_CORETYPE` forces
# another one), since each core rounds its products in its own order: a
# core with no row fails the pinned tests by name.  The aoc_kernel layers
# are built at seed 3 with the default scheme
PINNED_LAYERS = {
    "a": (ConvSpec(4, 8, 3, 3), "a"),
    "b": (ConvSpec(3, 12, 2, 2, stride=2), "b"),
    "d": (ConvSpec(4, 8, 3, 3, stride=2), "d"),
    "grouped": (ConvSpec(8, 16, 3, 3, stride=2, groups=2), "d"),
    "dilated": (ConvSpec(4, 2, 5, 5, stride=3, dilation=2), "d"),
}
PINNED_SHA256 = {
    "SkylakeX": {
        "a": "279e3d7b953368ea9707aeacb5a626d2b4c2f719f6c17f425c68c8ea780177d5",
        "b": "f9c6ebf7ef17f651f6a65c3b05ba637f941c6e40bb66122f3d17c64a0d4952b2",
        "d": "7b05206108aa83009899fc0a6af6f03ff4053818eae888e6e945c0dc36da74c3",
        "grouped": "a27947897bde9d91e54c45c29a9190a0e99d5b9e0845ca23aeda96b85ed49ad4",
        "dilated": "4e9c85c104e0134342b2ca802f68ba73d6de08c5989c8d0a7588950390037294",
        "soc_normalized_skew": "d0cec0f679b70747a4e8e273bec595425cb646afe5dfe484f133bfb77115919b",
        "soc_explicit_kernel": "9cd16ebe00238b556b9f7e1c992731d466e300be47f67b316262349b88aae69b",
    },
    "Haswell": {
        "a": "91f3fd50612bf1203fd3afc661729e0a968a7def0b6b5a42cf76a20224958413",
        "b": "4f7df4a40f48c97605577949fdaa7e09e4d1d6aba3dcce8da561ff02b6617773",
        "d": "28e51b7c4d40fbe975df774907a0df0d7c07b52b4e32f6dfcb180a3c268b0969",
        "grouped": "6db18e657650cc85161a0ee2246b301ae80e9008989e3a03a339027697b20974",
        "dilated": "71255688a8358ac6ce7039b00a2191d6a09dc7e813a8632656a70801b9514baf",
        "soc_normalized_skew": "d0cec0f679b70747a4e8e273bec595425cb646afe5dfe484f133bfb77115919b",
        "soc_explicit_kernel": "9cd16ebe00238b556b9f7e1c992731d466e300be47f67b316262349b88aae69b",
    },
    "Sandybridge": {
        "a": "2faf4ffe3a165e7c107682e4e9cc6126361708f969f74e03daa2caef4473cdec",
        "b": "62c18cb6daf7db9a8a531564bf1ad6693ab23a6ede9316d6fa286421313031ff",
        "d": "a795b9cb51c1695ebeb5f9e2c70a3b454f2361022b05964fa47c8cd59bb63ba0",
        "grouped": "ba3224e6614b5ee4b05b45ffb626f8311c97c9ca402fa6f8274d72935ee6d840",
        "dilated": "2b57d952ea26945f4f1c5ff3c0c8ef41acbb2663168f8077c0da8e580bd6bbd9",
        "soc_normalized_skew": "d0cec0f679b70747a4e8e273bec595425cb646afe5dfe484f133bfb77115919b",
        "soc_explicit_kernel": "6744513324fda71f35d3b5a69b47c3154af15578920a232aa739a1af76cc9b12",
    },
}


def _pins() -> dict:
    """This BLAS core's row of `PINNED_SHA256`."""
    core = blas_core()
    if core not in PINNED_SHA256:
        pytest.fail(f"no pinned kernel digests for the BLAS core {core!r}: compute its row "
                    f"of PINNED_SHA256 from `_pinned_digests()` on that core")
    return PINNED_SHA256[core]


def _sha256(K: KernelTensor) -> str:
    head = f"{K.data.dtype.str} {K.data.shape} {K.groups}\n".encode()
    return hashlib.sha256(head + K.data.tobytes()).hexdigest()


def test_aoc_kernel_peak_memory_on_a_wide_unstrided_layer():
    # 512->512 k3 s1 is branch "a": its peak (40 MiB once warm) is the last
    # projector fold, whose output (18 MiB) becomes the kernel without a
    # copy, beside the kernel it folds (12 MiB), the half-width product
    # M^T D (9 MiB) and that fold's own base (1 MiB); each base is copied
    # out of the orthogonalized stack and dropped after its fold, and the
    # earlier bases and folds' outputs are gone by then.  The bound fails
    # the stack of all four bases kept alive through the last fold, which
    # peaks at 43 MiB (2.39x)
    (K, tag), peak = traced_peak(lambda: aoc_kernel(AocConfig(ConvSpec(512, 512, 3, 3))))
    assert tag.branch == "a"
    assert peak <= 2.3 * K.data.nbytes


def test_aoc_kernel_peak_memory_on_a_wide_strided_layer():
    # 128->256 k3 s2 is branch "d": its peak (5.0 MiB once warm) comes
    # during the final fusion, whose output becomes the kernel (2.25 MiB)
    # without a copy; copying it on return would peak at 6.0 MiB.  The
    # grouped fusion's output is the layer's kernel, reshaped, not copied
    (K, tag), peak = traced_peak(lambda: aoc_kernel(AocConfig(ConvSpec(128, 256, 3, 3, stride=2))))
    assert tag.branch == "d"
    assert peak <= 2.6 * K.data.nbytes


def _soc_skew() -> KernelTensor:
    # the scale is `product_bound`, the Gram-kernel bound
    return soc_normalized_skew(random_kernel(4, 4, 3, 3, seed=2))


def _soc_explicit() -> KernelTensor:
    # an even, rectangular kernel: the identity sits at tap ((L1-1)/2,
    # (L2-1)/2) and each power in its centred slice of the 6x11 result
    return soc_explicit_kernel(random_kernel(3, 3, 2, 3, seed=21), terms=5)


@pytest.mark.parametrize("case", sorted(PINNED_LAYERS))
def test_aoc_kernel_bytes_pinned(case):
    spec, branch = PINNED_LAYERS[case]
    K, tag = aoc_kernel(AocConfig(spec=spec, seed=3))
    assert tag.branch == branch
    assert _sha256(K) == _pins()[case]


def test_soc_normalized_skew_bytes_pinned():
    assert _sha256(_soc_skew()) == _pins()["soc_normalized_skew"]


def test_soc_explicit_kernel_bytes_pinned():
    E = _soc_explicit()
    assert E.shape == (3, 3, 6, 11)
    assert _sha256(E) == _pins()["soc_explicit_kernel"]


def _pinned_digests() -> dict:
    """Digests of the pinned kernels, computed in this process."""
    digests = {case: _sha256(aoc_kernel(AocConfig(spec=spec, seed=3))[0])
               for case, (spec, _) in PINNED_LAYERS.items()}
    digests["soc_normalized_skew"] = _sha256(_soc_skew())
    digests["soc_explicit_kernel"] = _sha256(_soc_explicit())
    return digests


def _wide_digests() -> dict:
    """Digests of kernels too wide to pin by hand, computed in this process:
    `aoc_kernel` of the benchmark's `resnet_wide` and `verify_dense` layers
    at seed 1, with `qr_mgs` (the default) and `cholesky` (LAPACK's QR);
    512->512 k3 with the default scheme at seeds 0 and 1; and a 12-term
    exponential with a 49x49 result.  `bjorck` is left out: its polar
    factor is an SVD, whose bytes depend on the thread count (3 of the 14
    `resnet_wide` layers under OPENBLAS_CORETYPE=Haswell)."""
    workloads = perfbench_module("workloads").WORKLOADS
    digests = {f"{name}/{scheme}": [
        _sha256(aoc_kernel(AocConfig(spec=layer.spec(), scheme=scheme, seed=1))[0])
        for layer in workloads[name]()]
        for name in ("resnet_wide", "verify_dense") for scheme in ("qr_mgs", "cholesky")}
    digests["512x512 k3/default"] = [
        _sha256(aoc_kernel(AocConfig(spec=ConvSpec(512, 512, 3, 3), seed=seed))[0])
        for seed in (0, 1)]
    skew = skew_symmetrize_kernel(KernelTensor(0.1 * rng(0).standard_normal((6, 6, 5, 5))))
    digests["soc_explicit_kernel"] = _sha256(soc_explicit_kernel(skew, terms=12))
    return digests


@pytest.fixture(scope="module")
def wide_digests():
    return _wide_digests()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pinned_bytes_independent_of_blas_threads(threads, wide_digests):
    # OpenBLAS reads its thread count when numpy is imported, so each count
    # needs a fresh interpreter; the wide kernels must equal this process's,
    # whatever its count
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = ("import json, test_construct as t; "
            "print(json.dumps([t._pinned_digests(), t._wide_digests()]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    pinned, wide = json.loads(out)
    assert pinned == _pins()
    assert wide == wide_digests


# the ISA each forced OpenBLAS core needs, as /proc/cpuinfo names it
FORCED_CORE_ISA = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}


def _cross_core_layers() -> tuple[dict, dict]:
    """The pinned kernels and 128->256 k3 s2 (seed 3), computed in this
    process: their arrays, and [branch tag, `check_orthogonality` verdict]
    of each (no tag for the exponential's kernels)."""
    layers = {case: spec for case, (spec, _) in PINNED_LAYERS.items()}
    layers["128x256 k3 s2"] = ConvSpec(128, 256, 3, 3, stride=2)
    built = {case: (*aoc_kernel(AocConfig(spec=spec, seed=3)), spec)
             for case, spec in layers.items()}
    for case, K in (("soc_normalized_skew", _soc_skew()),
                    ("soc_explicit_kernel", _soc_explicit())):
        built[case] = (K, None, spec_for_kernel(K))
    kernels = {case: K.data for case, (K, _, _) in built.items()}
    verdicts = {case: [tag and tag.branch, check_orthogonality(K, spec).passed]
                for case, (K, tag, spec) in built.items()}
    return kernels, verdicts


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in text.splitlines()
                 if line.startswith("flags")), set())


@pytest.fixture(scope="module")
def cross_core_layers():
    return _cross_core_layers()


@pytest.mark.parametrize("core", sorted(FORCED_CORE_ISA))
def test_kernels_agree_across_blas_cores(core, cross_core_layers, tmp_path):
    # OPENBLAS_CORETYPE forces another CPU's kernel in a fresh interpreter:
    # there the pinned kernels have that core's row of PINNED_SHA256, and
    # every kernel differs from this process's by rounding only, with the
    # same branches and verdicts
    if blas_core() == "unknown":
        pytest.skip("the BLAS names no core, so OPENBLAS_CORETYPE cannot be forced")
    if not FORCED_CORE_ISA[core] <= _cpu_flags():
        pytest.skip(f"this CPU lacks the {core} kernel's ISA {sorted(FORCED_CORE_ISA[core])}")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = ("import json, sys, numpy as np, test_construct as t; "
            "from conftest import blas_core; "
            "kernels, verdicts = t._cross_core_layers(); np.savez(sys.argv[1], **kernels); "
            "print(json.dumps([blas_core(), t._pinned_digests(), verdicts]))")
    path = tmp_path / "kernels.npz"
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    child_core, pinned, verdicts = json.loads(out)
    assert child_core == core
    assert pinned == PINNED_SHA256[core]
    kernels, ours = cross_core_layers
    assert verdicts == ours
    with np.load(path) as theirs:
        assert sorted(theirs.files) == sorted(kernels)
        for case, data in kernels.items():
            assert np.max(np.abs(theirs[case] - data)) <= 1e-14, case
