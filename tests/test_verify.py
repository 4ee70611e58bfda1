import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orthokernel import (
    AocConfig,
    ConvSpec,
    KernelTensor,
    aoc_kernel,
    bcop_kernel,
    block_conv_fast,
    check_orthogonality,
    conv2d_ref,
    conv2d_transpose_ref,
    identity_kernel,
    polyphase_spectrum,
    product_bound,
    roundtrip_check,
    singular_values,
    spec_for_kernel,
    toeplitz_from_kernel,
    toeplitz_of_transpose,
)
from orthokernel import verify
from conftest import random_kernel, rng, traced_peak
from oracles import diagonal_blocks, impulse_stack, sequential_compose


# --- operator matrix -------------------------------------------------------------

def test_toeplitz_identity_kernel():
    K = identity_kernel(2)
    T = toeplitz_from_kernel(K, spec_for_kernel(K), 4, 4)
    np.testing.assert_array_equal(T, np.eye(32))


def test_toeplitz_columns_are_impulse_responses():
    K = KernelTensor(rng(0).standard_normal((3, 2, 3, 2)), groups=1)
    spec = spec_for_kernel(K, stride=2)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    g = rng(1)
    for _ in range(5):
        c, a, b = g.integers(0, 2), g.integers(0, 8), g.integers(0, 8)
        e = np.zeros((2, 8, 8))
        e[c, a, b] = 1.0
        col = T[:, c * 64 + a * 8 + b]
        np.testing.assert_array_equal(col, conv2d_ref(K, e, spec).ravel())


def test_toeplitz_matvec_matches_conv():
    K = random_kernel(2, 3, 3, 3, seed=2)
    spec = spec_for_kernel(K)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    g = rng(3)
    for _ in range(20):
        x = g.standard_normal((3, 8, 8))
        np.testing.assert_allclose(T @ x.ravel(), conv2d_ref(K, x, spec).ravel(), atol=1e-12)


def test_toeplitz_dimensions():
    K = KernelTensor(rng(4).standard_normal((6, 2, 3, 3)), groups=2)
    spec = spec_for_kernel(K, stride=2)
    T = toeplitz_from_kernel(K, spec, 8, 8)
    assert T.shape == (6 * 16, 4 * 64)  # c_out*h*w/s^2 x c_in*h*w


def test_toeplitz_stride_selection_structure():
    K = KernelTensor(np.ones((1, 1, 1, 1)))
    spec = spec_for_kernel(K, stride=2)
    T = toeplitz_from_kernel(K, spec, 4, 4)
    assert T.shape == (4, 16)
    assert np.all(T.sum(axis=1) == 1.0)
    assert set(np.unique(T)) == {0.0, 1.0}


def test_toeplitz_budget_guard():
    K = random_kernel(8, 8, 1, 1, seed=0)
    with pytest.raises(ValueError, match="budget"):
        toeplitz_from_kernel(K, spec_for_kernel(K), 64, 64)
    with pytest.raises(ValueError, match="budget"):  # c_out*c_in*h*w impulse stack
        polyphase_spectrum(K, spec_for_kernel(K), 1024, 512)
    with pytest.raises(ValueError, match="2048 spectrum budget"):  # a view: no 33 MB array
        singular_values(np.broadcast_to(0.0, (2049, 2049)))


def test_impulse_batches_match_per_impulse_calls(monkeypatch):
    # 9 x 8 x 8 = 576 impulses of 576 entries each, 455 per batch: two batches
    K = random_kernel(9, 9, 3, 3, seed=12)
    spec = spec_for_kernel(K)
    assert verify._IMPULSE_BATCH_ENTRIES // 576 < 576
    T, Tt = toeplitz_from_kernel(K, spec, 8, 8), toeplitz_of_transpose(K, spec, 8, 8)
    for col in range(576):
        e = np.zeros(576)
        e[col] = 1.0
        e = e.reshape(9, 8, 8)
        np.testing.assert_array_equal(T[:, col], conv2d_ref(K, e, spec).ravel())
        np.testing.assert_array_equal(Tt[:, col], conv2d_transpose_ref(K, e, spec).ravel())
    # the frequency blocks are the DFT of the impulse stack built with one
    # impulse per call
    K = random_kernel(6, 4, 3, 3, seed=13)
    spec = spec_for_kernel(K, stride=2)
    monkeypatch.setattr(verify, "_IMPULSE_BATCH_ENTRIES", 1)
    assert_blocks_are_impulse_stack_dft(K, spec, 8, 8)


def test_transpose_matrix_is_forward_transpose():
    K = random_kernel(3, 2, 3, 3, seed=5)
    spec = spec_for_kernel(K, stride=1)
    T = toeplitz_from_kernel(K, spec, 6, 6)
    Tt = toeplitz_of_transpose(K, spec, 6, 6)
    np.testing.assert_allclose(Tt, T.T, atol=1e-13)


# --- singular values ---------------------------------------------------------------

def test_singular_values_identity_and_diag():
    np.testing.assert_allclose(singular_values(np.eye(5)), np.ones(5), atol=0)
    np.testing.assert_allclose(singular_values(np.diag([3.0, 2.0, 1.0])), [3, 2, 1], atol=0)


def power_deflation_spectrum(M, count, iters=3000):
    """Independent oracle: square-root eigenvalues of M^T M by power
    iteration with deflation."""
    G = M.T @ M
    vals = []
    for _ in range(count):
        v = np.ones(G.shape[0]) / np.sqrt(G.shape[0])
        lam = 0.0
        for _ in range(iters):
            w = G @ v
            lam_next = float(v @ w)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam_next = 0.0
                break
            v = w / nw
            if abs(lam_next - lam) <= 1e-14 * max(abs(lam_next), 1.0):
                lam = lam_next
                break
            lam = lam_next
        vals.append(max(lam, 0.0))
        G = G - lam * np.outer(v, v)
    return np.sqrt(np.array(vals))


def test_singular_values_against_power_deflation():
    M = rng(6).standard_normal((50, 30))
    sv = singular_values(M)
    oracle = power_deflation_spectrum(M, count=6)
    np.testing.assert_allclose(sv[:6], oracle, atol=1e-6, rtol=1e-6)


def singular_values_gram(Mx):
    """Independent spectrum route: square roots of the eigenvalues of the
    smaller Gram matrix.  Cross-checks `singular_values`."""
    G = Mx @ Mx.T if Mx.shape[0] <= Mx.shape[1] else Mx.T @ Mx
    eig = np.linalg.eigvalsh(G)
    return np.sqrt(np.clip(eig, 0.0, None))[::-1]


def test_two_spectrum_routes_agree():
    for seed in range(5):
        M = rng(seed).standard_normal((40, 25))
        a = singular_values(M)
        b = singular_values_gram(M)
        np.testing.assert_allclose(a, b, atol=1e-6)


def test_singular_values_guards():
    with pytest.raises(ValueError):
        singular_values(np.zeros((3,)))
    with pytest.raises(ValueError):
        singular_values(np.full((2, 2), np.inf))


# --- orthogonality report ------------------------------------------------------------

def test_check_orthogonality_identity_exact():
    K = identity_kernel(2)
    rep = check_orthogonality(K, spec_for_kernel(K), 4, 4)
    assert rep.passed
    assert rep.sigma_min == 1.0 and rep.sigma_max == 1.0


def test_check_orthogonality_fails_on_random_kernel():
    K = random_kernel(2, 2, 3, 3, seed=7)
    rep = check_orthogonality(K, spec_for_kernel(K), 8, 8)
    assert not rep.passed


def test_report_json_schema():
    K = identity_kernel(2)
    rep = check_orthogonality(K, spec_for_kernel(K), 4, 4)
    doc = json.loads(rep.to_json({"note": "identity"}))
    assert set(doc) == {"sigma_min", "sigma_max", "freq_min", "freq_max", "pass",
                        "tolerance", "n_rows", "n_cols", "config"}
    assert doc["pass"] is True
    assert doc["freq_min"] == [0, 0] and doc["freq_max"] == [0, 0]


def test_report_locates_the_extremes():
    # the single-channel 1x2 kernel [1, a] has the symbol 1 + a*exp(-2*pi*i*f2/w):
    # largest at f2 = 0, smallest at the Nyquist frequency f2 = w/2
    K = KernelTensor(np.array([[[[1.0, 0.5]]]]))
    rep = check_orthogonality(K, spec_for_kernel(K), 4, 6)
    assert rep.freq_max[1] == 0 and rep.freq_min[1] == 3
    assert rep.sigma_max == pytest.approx(1.5) and rep.sigma_min == pytest.approx(0.5)


# --- polyphase spectrum ----------------------------------------------------------

def oracle_blocks(K, spec, h, w):
    """Frequency blocks [h/s][w/s][c_out][c_in*s^2] from the columns of the
    dense oracle at the impulses (c, p, q), p, q < s."""
    s = spec.stride
    T = toeplitz_from_kernel(K, spec, h, w)
    cols = [c * h * w + p * w + q
            for c in range(spec.c_in) for p in range(s) for q in range(s)]
    stack = T[:, cols].reshape(spec.c_out, h // s, w // s, len(cols))
    return np.fft.fft2(stack, axes=(1, 2)).transpose(1, 2, 0, 3)


def assert_blocks_are_impulse_stack_dft(K, spec, h, w):
    """`_frequency_blocks` at the representatives equal `fft2` of the
    groups' impulse stacks there, to 1e-12 of their largest entry."""
    ho, wo = h // spec.stride, w // spec.stride
    f1, f2, _ = verify._representatives(ho, wo)
    dft = np.fft.fft2(diagonal_blocks(impulse_stack(K, spec, h, w), spec.groups), axes=(1, 2))
    want = dft[:, f1, f2].transpose(1, 0, 2, 3)
    blocks = np.concatenate(list(verify._frequency_blocks(K, spec, f1, f2, ho, wo)))
    np.testing.assert_allclose(blocks, want, rtol=0, atol=1e-12 * np.abs(want).max())


@st.composite
def conv_configs(draw):
    g = draw(st.sampled_from([1, 2, 3, 4]))
    c_in = g * draw(st.integers(1, 6 // g))
    c_out = g * draw(st.integers(1, 6 // g))
    k, s, d = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = draw(st.integers(1, 4))
    b = draw(st.sampled_from([v for v in range(1, 5) if v != a]))
    seed = draw(st.integers(0, 1000))
    return c_in, c_out, k, s, g, d, s * a, s * b, seed


@given(conv_configs())
@example((2, 9, 5, 3, 1, 1, 9, 9, 0))  # s = 3 at 9x9: odd w/s
@example((3, 4, 3, 1, 1, 1, 6, 5, 1))  # odd w/s, h != w
@settings(max_examples=60, deadline=None)
def test_polyphase_spectrum_equals_dense_oracle(config):
    c_in, c_out, k, s, g, d, h, w, seed = config
    K = KernelTensor(rng(seed).standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s, dilation=d)
    dense = singular_values(toeplitz_from_kernel(K, spec, h, w))
    poly = np.sort(polyphase_spectrum(K, spec, h, w), axis=None)[::-1]
    assert poly.shape == dense.shape
    np.testing.assert_allclose(poly, dense, rtol=0, atol=1e-12 * dense[0])


@given(conv_configs())
@example((2, 3, 5, 2, 1, 3, 2, 4, 7))  # extent 13 wraps around a 2x4 image
@example((2, 3, 3, 2, 1, 1, 2, 2, 0))  # a 1x1 grid
@example((3, 2, 3, 2, 1, 1, 4, 4, 1))  # a 2x2 grid: every frequency is its own conjugate
@example((2, 3, 3, 2, 1, 2 ** 64 + 1, 4, 6, 3))  # lags past int64
@settings(max_examples=60, deadline=None)
def test_frequency_blocks_equal_impulse_stack_dft(config):
    c_in, c_out, k, s, g, d, h, w, seed = config
    K = KernelTensor(rng(seed).standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s, dilation=d)
    assert_blocks_are_impulse_stack_dft(K, spec, h, w)


@pytest.mark.parametrize("c_in,c_out,k,s,g,h,w", [
    (2, 3, 3, 1, 1, 6, 5), (4, 6, 3, 2, 2, 8, 6), (2, 9, 5, 3, 1, 9, 9), (3, 3, 2, 1, 3, 4, 4)])
def test_blocks_in_chunks_of_one_frequency(c_in, c_out, k, s, g, h, w, monkeypatch):
    # a chunk per frequency gives the same spectrum to rounding, and the
    # guard checks every chunk: a fault in the last one is caught
    K = KernelTensor(rng(c_in + c_out).standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s)
    whole = polyphase_spectrum(K, spec, h, w)
    monkeypatch.setattr(verify, "_FREQUENCY_CHUNK_ENTRIES", 1)
    f1, f2, _ = verify._representatives(h // s, w // s)
    assert len(list(verify._frequency_blocks(K, spec, f1, f2, h // s, w // s))) == f1.size
    assert_blocks_are_impulse_stack_dft(K, spec, h, w)
    np.testing.assert_allclose(polyphase_spectrum(K, spec, h, w), whole,
                               rtol=0, atol=1e-12 * whole.max())
    frequency_blocks = verify._frequency_blocks

    def last_chunk_off(K, spec, f1, f2, ho, wo):
        chunks = list(frequency_blocks(K, spec, f1, f2, ho, wo))
        chunks[-1] = chunks[-1] * (1 + 1e-6)
        return iter(chunks)

    monkeypatch.setattr(verify, "_frequency_blocks", last_chunk_off)
    with pytest.raises(ValueError, match="block-circulant"):
        polyphase_spectrum(K, spec, h, w)


@pytest.mark.parametrize("ho,wo", [(1, 1), (2, 2), (1, 5), (3, 3), (4, 4), (8, 8),
                                   (4, 3), (5, 6), (6, 1)])
def test_representatives_take_one_frequency_of_each_conjugate_pair(ho, wo):
    f1, f2, index = verify._representatives(ho, wo)
    a, b = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    self_conjugate = np.count_nonzero((-a % ho == a) & (-b % wo == b))
    assert f1.size == (ho * wo + self_conjugate) // 2
    assert np.array_equal(index[f1, f2], np.arange(f1.size))
    # every frequency maps to itself or to its conjugate
    r1, r2 = f1[index], f2[index]
    assert np.all(((r1 == a) & (r2 == b)) | ((r1 == -a % ho) & (r2 == -b % wo)))


@given(conv_configs())
@example((4, 6, 3, 2, 2, 1, 4, 6, 5))
@settings(max_examples=60, deadline=None)
def test_grouped_spectrum_is_union_of_group_spectra(config):
    c_in, c_out, k, s, g, d, h, w, seed = config
    assume(g > 1)
    K = KernelTensor(rng(seed).standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s, dilation=d)
    parts = []
    for data in np.split(K.data, g):
        Kq = KernelTensor(data)
        parts.append(polyphase_spectrum(Kq, spec_for_kernel(Kq, stride=s, dilation=d), h, w))
    union = np.sort(np.concatenate(parts, axis=-1), axis=-1)[..., ::-1]
    assert np.array_equal(polyphase_spectrum(K, spec, h, w), union)


def test_check_orthogonality_peak_is_one_chunk_of_blocks():
    # 128->256 k3 s2 at 8x8: 10 representative blocks of 256x512 complex
    # entries (20 MiB) in chunks of 4 (8 MiB), each checked and factored
    # before the next is built; the peak is one chunk and the SVD's work
    # arrays (16.3 MiB), where the full stack and its fft2 took 80 MiB
    K = random_kernel(256, 128, 3, 3, seed=5)
    spec = spec_for_kernel(K, stride=2)
    _, peak = traced_peak(lambda: check_orthogonality(K, spec, 8, 8))
    assert peak <= 2.5 * 8 * verify._FREQUENCY_CHUNK_ENTRIES


def test_tap_stack_refuses_mismatched_spec():
    K = random_kernel(4, 2, 3, 3, seed=0)
    for spec in (ConvSpec(c_in=3, c_out=4, k_h=3, k_w=3), ConvSpec(c_in=2, c_out=4, k_h=1, k_w=9)):
        with pytest.raises(ValueError, match="does not match"):
            polyphase_spectrum(K, spec, 9, 9)


@pytest.mark.parametrize("fault", ["phase", "lag"])
def test_guard_rejects_misplaced_tap(fault, monkeypatch):
    K = random_kernel(3, 2, 3, 3, seed=11)
    spec = spec_for_kernel(K, stride=2)
    h, w = 8, 6
    frequency_blocks = verify._frequency_blocks

    def misplaced(K, spec, f1, f2, ho, wo):
        # column (c, p, q) = (1, 0, 0) of row 0: only the centre tap reads
        # phase (0, 0), at lag (0, 0), so its factor is 1 at every frequency
        blocks, = frequency_blocks(K, spec, f1, f2, ho, wo)
        blocks = blocks.copy()
        tap = K.data[0, 1, 1, 1]
        assert np.all(blocks[:, 0, 0, 4] == tap)
        blocks[:, 0, 0, 4] = 0.0
        if fault == "phase":
            blocks[:, 0, 0, 6] += tap  # phase (1, 0)
        else:
            blocks[:, 0, 0, 4] += tap * np.exp(-2j * np.pi * f1 / ho)  # lag (-1, 0)
        yield blocks

    check_orthogonality(K, spec, h, w)
    monkeypatch.setattr(verify, "_frequency_blocks", misplaced)
    with pytest.raises(ValueError, match="block-circulant"):
        check_orthogonality(K, spec, h, w)


@pytest.mark.parametrize("c_in,c_out,k,s,h,w", [
    (3, 4, 3, 1, 6, 5),   # odd w/s, h != w
    (2, 9, 5, 3, 9, 9),   # s = 3 at 9x9: a 3x3 grid
    (4, 6, 3, 2, 8, 6),
    (2, 3, 2, 3, 9, 12),
    (5, 2, 3, 1, 4, 7),
])
def test_half_spectrum_mirrors_conjugate_blocks(c_in, c_out, k, s, h, w):
    K = random_kernel(c_out, c_in, k, k, seed=c_in + 7 * c_out)
    spec = spec_for_kernel(K, stride=s)
    ho, wo = h // s, w // s
    sv = polyphase_spectrum(K, spec, h, w)
    assert sv.shape == (ho, wo, min(c_out, c_in * s * s))
    for f1 in range(ho):
        for f2 in range(wo // 2 + 1, wo):
            np.testing.assert_array_equal(sv[f1, f2], sv[-f1 % ho, -f2 % wo])
    # every entry, mirrored or not, is the spectrum of its own block
    blocks = np.linalg.svd(oracle_blocks(K, spec, h, w), compute_uv=False)
    np.testing.assert_allclose(sv, blocks, rtol=0, atol=1e-12 * blocks.max())


@pytest.mark.parametrize("c_in,c_out,k,s,h,w", [
    (2, 3, 3, 1, 6, 5), (3, 2, 3, 1, 4, 7), (2, 5, 3, 2, 8, 6), (2, 4, 5, 3, 9, 9)])
def test_reported_frequencies_hold_the_extremes(c_in, c_out, k, s, h, w):
    K = random_kernel(c_out, c_in, k, k, seed=3 * c_in + c_out)
    spec = spec_for_kernel(K, stride=s)
    rep = check_orthogonality(K, spec, h, w)
    blocks = oracle_blocks(K, spec, h, w)
    top = np.linalg.svd(blocks[rep.freq_max], compute_uv=False)[0]
    bottom = np.linalg.svd(blocks[rep.freq_min], compute_uv=False)[-1]
    assert abs(top - rep.sigma_max) <= 1e-12 * rep.sigma_max
    assert abs(bottom - rep.sigma_min) <= 1e-12 * rep.sigma_max


def test_guard_rejects_inconsistent_impulse_stack(monkeypatch):
    K = random_kernel(3, 2, 3, 3, seed=11)
    spec = spec_for_kernel(K, stride=2)
    h, w = 8, 6
    # the blocks from the dense oracle's columns at (c, p, q), p, q < 2,
    # in place of the taps' DFT
    blocks = oracle_blocks(K, spec, h, w)
    with monkeypatch.context() as m:
        m.setattr(verify, "_frequency_blocks",
                  lambda K, spec, f1, f2, ho, wo: iter([blocks[f1, f2][:, None]]))
        check_orthogonality(K, spec, h, w)
        # (1, 2) is the representative of its pair on the 4x3 grid
        blocks[1, 2, 0, 5] += 1e-3
        with pytest.raises(ValueError, match="block-circulant"):
            check_orthogonality(K, spec, h, w)

    # a reference operator that ignores the last input row is not
    # shift-invariant, so its corner impulses do not describe it
    def masked(K, x, spec):
        x = np.array(x)
        x[:, -1, :] = 0.0
        return conv2d_ref(K, x, spec)

    monkeypatch.setattr(verify, "conv2d_ref", masked)
    with pytest.raises(ValueError, match="block-circulant"):
        check_orthogonality(K, spec, h, w)


def test_guard_refuses_an_overflowing_kernel(monkeypatch):
    # one entry of 1e308 overflows the guard's scale sum|K| * max|x|; the
    # check refuses it before any numpy warning, not with sigma_min 0
    spec = ConvSpec(4, 4, 3, 3)
    data = aoc_kernel(AocConfig(spec=spec))[0].data.copy()
    data[1, 2, 0, 1] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too large to check"):
            check_orthogonality(KernelTensor(data), spec)
    # a NaN error fails the guard: it is not below the bound
    K = random_kernel(3, 2, 3, 3, seed=11)
    monkeypatch.setattr(verify, "conv2d_ref", lambda K, x, spec: np.nan * conv2d_ref(K, x, spec))
    with pytest.raises(ValueError, match="block-circulant"):
        check_orthogonality(K, spec_for_kernel(K))


def test_wide_layer_verifies():
    cfg = AocConfig(spec=ConvSpec(c_in=64, c_out=64, k_h=3, k_w=3), seed=0)
    K, _ = aoc_kernel(cfg)
    rep = check_orthogonality(K, cfg.spec, 8, 8)
    assert rep.passed
    assert (rep.n_rows, rep.n_cols) == (4096, 4096)


# --- roundtrip -------------------------------------------------------------------

def test_roundtrip_identity_kernel_exact():
    K = identity_kernel(3)
    assert roundtrip_check(K, spec_for_kernel(K), n_trials=2) == 0.0


def test_roundtrip_detects_non_orthogonal():
    K = random_kernel(3, 3, 3, 3, seed=8)
    assert roundtrip_check(K, spec_for_kernel(K), n_trials=2) > 1e-2


@pytest.mark.parametrize("direction", ["row", "column"])
def test_roundtrip_refuses_size_not_divisible_by_stride(direction):
    K = identity_kernel(2)
    spec = ConvSpec(c_in=2, c_out=2, k_h=1, k_w=1, stride=2)
    with pytest.raises(ValueError, match="divisible"):
        roundtrip_check(K, spec, 7, 7, direction=direction)


@pytest.mark.parametrize("direction,stride", [("row", 2), ("column", 1)])
def test_roundtrip_is_worst_of_sequential_trials(direction, stride):
    # one batch of trials draws and computes what one call per trial did
    K = random_kernel(3, 2, 3, 3, seed=8)
    spec = spec_for_kernel(K, stride=stride)
    r, worst = rng(4), 0.0
    for _ in range(3):
        if direction == "row":
            x = r.standard_normal((3, 8 // stride, 8 // stride))
            back = conv2d_ref(K, conv2d_transpose_ref(K, x, spec), spec)
        else:
            x = r.standard_normal((2, 8, 8))
            back = conv2d_transpose_ref(K, conv2d_ref(K, x, spec), spec)
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert roundtrip_check(K, spec, n_trials=3, direction=direction, seed=4) == worst
    with pytest.raises(ValueError, match="n_trials"):
        roundtrip_check(K, spec, n_trials=0, direction=direction)
    with pytest.raises(ValueError, match="unknown direction 'diagonal'"):
        roundtrip_check(K, spec, direction="diagonal")


def test_grid_kernels_pass_both_checks_at_their_defaults():
    # no size and no direction: the size comes from the stride (9x9 at
    # stride 3) and the roundtrip runs on the side the operator is
    # orthogonal on (the column side of a layer with c_out > c_in*s^2)
    for entry in verify.grid_entries():
        cfg = entry.to_config(seed=0)
        K, _ = aoc_kernel(cfg)
        assert check_orthogonality(K, cfg.spec).passed, entry.key()
        assert roundtrip_check(K, cfg.spec) <= 1e-8, entry.key()


# --- product bound ---------------------------------------------------------------

def test_product_bound_single_factor_is_norm():
    # a bound at every size, so only near the norm at 8x8
    K = random_kernel(2, 2, 3, 3, seed=9)
    bound = product_bound([K])
    sv = singular_values(toeplitz_from_kernel(K, spec_for_kernel(K), 8, 8))
    assert sv[0] <= bound <= 2.5 * sv[0]


@given(conv_configs())
@settings(max_examples=60, deadline=None)
def test_product_bound_upper_bounds_norm_at_every_size(config):
    c_in, c_out, k, s, g, d, h, w, seed = config
    K = KernelTensor(rng(seed).standard_normal((c_out, c_in // g, k, k)), groups=g)
    spec = spec_for_kernel(K, stride=s, dilation=d)
    bound = product_bound([K])
    for size in ((h, w), (8 * s, 8 * s)):
        assert polyphase_spectrum(K, spec, *size).max() <= bound * (1 + 1e-12)


@pytest.mark.parametrize("spec", [ConvSpec(4, 8, 3, 3), ConvSpec(8, 4, 3, 3),
                                  ConvSpec(3, 16, 5, 5), ConvSpec(16, 16, 2, 2),
                                  ConvSpec(8, 16, 3, 3, groups=2)])
def test_product_bound_is_one_for_orthogonal_kernels(spec):
    K, _ = aoc_kernel(AocConfig(spec=spec, seed=3))
    assert abs(product_bound([K]) - 1.0) <= 1e-12


@pytest.mark.parametrize("c_in, c_out, g", [(8, 4, 2), (6, 12, 3), (4, 4, 4), (3, 6, 1)])
def test_product_bound_of_grouped_kernel_is_largest_group_bound(c_in, c_out, g):
    # one grouped Gram fusion gives each group's bound bit for bit
    data = rng(c_in + c_out + g).standard_normal((c_out, c_in // g, 3, 2))
    data *= np.repeat(1.0 + np.arange(g), c_out // g)[:, None, None, None]
    per_group = [product_bound([KernelTensor(part)]) for part in np.split(data, g)]
    assert product_bound([KernelTensor(data, groups=g)]) == max(per_group)


def test_product_bound_orthogonal_chain_tight():
    factors = [bcop_kernel(4, 4, 2, 2, seed=s) for s in (1, 2, 3)]
    bound = product_bound(factors)
    assert 1.0 - 1e-6 <= bound <= 1.0 + 1e-3


def test_product_bound_homogeneity():
    K = random_kernel(2, 2, 3, 3, seed=10)
    K2 = KernelTensor(2.0 * K.data)
    b1 = product_bound([K])
    b2 = product_bound([K2])
    assert abs(b2 - 2.0 * b1) <= 1e-5 * b2


def test_product_bound_upper_bounds_fused_norm():
    factors = [bcop_kernel(4, 4, 2, 2, seed=s) for s in (4, 5)]
    fused = block_conv_fast(factors[1], factors[0])
    sigma_fused = polyphase_spectrum(fused, spec_for_kernel(fused)).max()
    assert product_bound(factors) >= sigma_fused - 1e-6


def test_product_bound_empty_chain():
    with pytest.raises(ValueError):
        product_bound([])
    with pytest.raises(ValueError, match="cannot compose an empty chain"):
        sequential_compose([])


# --- verification grid -------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["bjorck", "qr_mgs", "cayley", "exponential"])
def test_grid_passes_under_other_schemes(scheme):
    results = verify.run_grid(scheme=scheme, seed=0)
    assert len(results) == len(verify.grid_entries())
    assert [r["key"] for r in results if not r["passed"]] == []


def test_grid_builds_no_dense_operator(monkeypatch, capsys):
    from orthokernel.cli import main

    def dense(*args, **kwargs):
        raise AssertionError("the grid built a dense operator")

    for name in ("toeplitz_from_kernel", "toeplitz_of_transpose", "singular_values",
                 "_impulse_matrix"):
        monkeypatch.setattr(verify, name, dense)
    results = verify.run_grid()
    assert len(results) == 70 and all(r["passed"] for r in results)
    assert main(["selftest"]) == 0
    assert "total 70 configurations" in capsys.readouterr().out


def test_grid_fails_an_adjoint_rolled_by_one_pixel(monkeypatch):
    want = verify.run_grid(categories=["transposed"])
    adjoint = verify.conv2d_transpose_ref
    monkeypatch.setattr(verify, "conv2d_transpose_ref",
                        lambda K, x, spec: np.roll(adjoint(K, x, spec), 1, axis=-1))
    got = verify.run_grid(categories=["transposed"])
    assert len(got) == 6
    for r, w in zip(got, want):
        # the spectrum does not see the adjoint; its identity does
        assert (r["sigma_min"], r["sigma_max"]) == (w["sigma_min"], w["sigma_max"])
        assert w["adjoint_err"] <= 1e-12 < 1e-3 < r["adjoint_err"]
        assert not r["passed"]


# sha256 of the sorted grid keys, one per line: they name the grid's layers in
# the benchmark, so a key must not move
GRID_KEYS_SHA256 = "e7721be00b7457ff3f09f01a66b5047e915400d386b60392e182669fac6e66cc"


def test_grid_keys_pinned_and_checks_follow_the_category():
    entries = verify.grid_entries()
    keys = "\n".join(sorted(e.key() for e in entries))
    assert hashlib.sha256(keys.encode()).hexdigest() == GRID_KEYS_SHA256
    assert len(entries) == 70
    roundtrip = [e.key() for e in entries if e.check == "roundtrip"]
    transposed = [e.key() for e in entries if e.category == "transposed"]
    assert len(roundtrip) == 6 and roundtrip == transposed
    assert all(e.check == "spectrum" for e in entries if e.category != "transposed")


@pytest.mark.parametrize("scheme", ["bjorck", "cholesky"])
@pytest.mark.parametrize("seed", [0, 3])
def test_transposed_entries_match_the_dense_oracle(scheme, seed):
    # the check the transposed entries took before: the forward and adjoint
    # matrices from every impulse response, and a full SVD of the adjoint
    for entry in verify.grid_entries():
        if entry.category != "transposed":
            continue
        r = verify.run_grid_entry(entry, scheme=scheme, seed=seed)
        cfg = entry.to_config(scheme=scheme, seed=seed)
        K, _ = aoc_kernel(cfg)
        hw = verify.default_image_side(entry.stride)
        Tt = toeplitz_of_transpose(K, cfg.spec, hw, hw)
        adjoint_err = np.max(np.abs(Tt - toeplitz_from_kernel(K, cfg.spec, hw, hw).T))
        sv = singular_values(Tt)
        passed = (r["roundtrip_err"] <= 1e-8 and adjoint_err <= 1e-12
                  and max(abs(sv[0] - 1.0), abs(sv[-1] - 1.0)) <= verify.DEFAULT_TOLERANCE)
        assert r["passed"] == passed
        assert abs(r["sigma_max"] - sv[0]) <= 1e-12
        assert abs(r["sigma_min"] - sv[-1]) <= 1e-12
