"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import json
import time
from statistics import median

import numpy as np
import pytest

from orthokernel import (
    KernelTensor,
    bcop_kernel,
    block_conv_fast,
    check_orthogonality,
    conv2d_ref,
    kernel_transpose,
    rko_kernel,
    roundtrip_check,
    soc_explicit_kernel,
    soc_normalized_skew,
    spec_for_kernel,
    skew_symmetrize_kernel,
    toeplitz_from_kernel,
    orthogonalize_stack,
)
from orthokernel.cli import main as cli_main
from orthokernel.verify import grid_entries
from conftest import gram_residual, random_kernel, rng
from oracles import bjorck_ref, block_conv_naive, projector_kernel_ref


def report(num, name, ok, detail=""):
    line = f"criterion {num:>2} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def built_grid():
    """Build every grid configuration once; reused by criteria 1, 2 and 6."""
    from orthokernel import aoc_kernel

    t0 = time.perf_counter()
    built = []
    for entry in grid_entries():
        cfg = entry.to_config(seed=0)
        K, tag = aoc_kernel(cfg)
        built.append((entry, cfg, K, tag))
    return built, time.perf_counter() - t0


def test_criterion_1_spectrum_flatness(built_grid):
    built, build_time = built_grid
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for entry, cfg, K, _ in built:
        if entry.check != "spectrum":
            continue
        rep = check_orthogonality(K, cfg.spec, tolerance=1e-4)
        worst = max(worst, abs(rep.sigma_max - 1.0), abs(rep.sigma_min - 1.0))
        assert rep.passed, f"{entry.key()}: sv=[{rep.sigma_min}, {rep.sigma_max}]"
        checked += 1
    elapsed = build_time + (time.perf_counter() - t0)
    ok = checked >= 60 and elapsed <= 300.0
    report(1, "spectrum flatness", ok,
           f"{checked} configs, worst |sigma-1|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_rko_boundary(built_grid):
    built, _ = built_grid
    keq = [(e, cfg, K) for e, cfg, K, _ in built if e.category == "k_equals_s"]
    assert len(keq) >= 5
    for e, cfg, K in keq:
        assert check_orthogonality(K, cfg.spec, tolerance=1e-4).passed
    # pinned witness: the same construction with k=3, s=1 is NOT orthogonal
    W = rko_kernel(4, 4, 3, 3, seed=6)
    rep = check_orthogonality(W, spec_for_kernel(W), 8, 8, tolerance=1e-4)
    ok = (not rep.passed) and rep.sigma_min <= 0.99
    report(2, "reshaped-kernel boundary", ok,
           f"{len(keq)} k=s configs pass; witness sigma_min={rep.sigma_min:.3f}")


def test_criterion_3_fusion_correctness():
    g = rng(300)
    worst = 0.0
    for trial in range(100):
        # at most one even size per axis: even-even pairs fuse only up to a
        # one-pixel circular shift under the centred convention
        kA = int(g.integers(1, 4))
        kB = int(g.integers(1, 4))
        if kA % 2 == 0 and kB % 2 == 0:
            kB += 1
        s = int(g.choice([1, 1, 2]))
        if s > kA + kB - 1:
            s = 1
        cm, ci, co = (int(v) for v in g.integers(1, 5, 3))
        A = KernelTensor(g.standard_normal((cm, ci, kA, kA)))
        B = KernelTensor(g.standard_normal((co, cm, kB, kB)))
        x = g.standard_normal((ci, 8, 8))
        fused = block_conv_fast(B, A)
        lhs = conv2d_ref(fused, x, spec_for_kernel(fused, stride=s))
        rhs = conv2d_ref(B, conv2d_ref(A, x, spec_for_kernel(A)),
                         spec_for_kernel(B, stride=s))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-11
    report(3, "fusion correctness", ok, f"100 draws, worst={worst:.2e}")


def test_criterion_4_fast_equals_naive():
    g = rng(400)
    worst_pair = 0.0
    for _ in range(200):
        cm, ci, co = (int(v) for v in g.integers(1, 5, 3))
        k1, k2, l1, l2 = (int(v) for v in g.integers(1, 4, 4))
        A = KernelTensor(g.standard_normal((cm, ci, k1, k2)))
        B = KernelTensor(g.standard_normal((co, cm, l1, l2)))
        d = np.max(np.abs(block_conv_fast(B, A).data - block_conv_naive(B, A).data))
        worst_pair = max(worst_pair, float(d))
    # projector chains: the closed-form fold against the literal chain of
    # dense [N, I-N] factors composed with the naive operator
    worst_chain = 0.0
    for seed in range(8):
        ci, co = (int(v) for v in g.integers(2, 5, 2))
        k1, k2 = (int(v) for v in g.integers(1, 5, 2))
        d = np.max(np.abs(bcop_kernel(ci, co, k1, k2, seed=seed).data
                          - projector_kernel_ref(ci, co, k1, k2, seed).data))
        worst_chain = max(worst_chain, float(d))
    ok = worst_pair <= 1e-12 and worst_chain <= 1e-11
    report(4, "fast path = naive path", ok,
           f"pairs worst={worst_pair:.2e}, chains worst={worst_chain:.2e}")


def test_criterion_5_algebraic_laws():
    g = rng(500)
    worst_assoc = worst_lin = worst_anti = 0.0
    for _ in range(25):
        c1, c2, c3, c4 = (int(v) for v in g.integers(1, 4, 4))
        A = KernelTensor(g.standard_normal((c2, c1, 2, 2)))
        B = KernelTensor(g.standard_normal((c3, c2, 3, 2)))
        C = KernelTensor(g.standard_normal((c4, c3, 2, 3)))
        left = block_conv_fast(C, block_conv_fast(B, A)).data
        right = block_conv_fast(block_conv_fast(C, B), A).data
        worst_assoc = max(worst_assoc, float(np.max(np.abs(left - right))))
        lam1, lam2 = g.standard_normal(2)
        P = KernelTensor(g.standard_normal((c3, c2, 3, 2)))
        mix = KernelTensor(lam1 * B.data + lam2 * P.data)
        lin = block_conv_fast(mix, A).data - (
            lam1 * block_conv_fast(B, A).data + lam2 * block_conv_fast(P, A).data)
        worst_lin = max(worst_lin, float(np.max(np.abs(lin))))
        anti = kernel_transpose(block_conv_fast(B, A)).data - block_conv_fast(
            kernel_transpose(A), kernel_transpose(B)).data
        worst_anti = max(worst_anti, float(np.max(np.abs(anti))))
    gw = rng(2)
    A = KernelTensor(gw.standard_normal((3, 3, 2, 2)))
    B = KernelTensor(gw.standard_normal((3, 3, 2, 2)))
    gap = float(np.max(np.abs(block_conv_fast(A, B).data - block_conv_fast(B, A).data)))
    ok = worst_assoc <= 1e-11 and worst_lin <= 1e-11 and worst_anti <= 1e-11 and gap > 0.1
    report(5, "algebraic laws", ok,
           f"assoc={worst_assoc:.2e} bilin={worst_lin:.2e} "
           f"anti={worst_anti:.2e} noncommut gap={gap:.2f}")


def test_criterion_6_transpose_inverse_identities(built_grid):
    built, _ = built_grid
    worst_row = worst_both = 0.0
    n_row = n_square = 0
    for entry, cfg, K, _ in built:
        s = cfg.spec.stride
        if cfg.spec.c_out <= cfg.spec.c_in * s * s:
            err = roundtrip_check(K, cfg.spec, n_trials=2, direction="row")
            worst_row = max(worst_row, err)
            n_row += 1
        if cfg.spec.c_out == cfg.spec.c_in * s * s:
            err = roundtrip_check(K, cfg.spec, n_trials=2, direction="column")
            worst_both = max(worst_both, err)
            n_square += 1
    ok = worst_row <= 1e-8 and worst_both <= 1e-8 and n_row >= 30 and n_square >= 3
    report(6, "transpose/inverse identities", ok,
           f"{n_row} row roundtrips worst={worst_row:.2e}; "
           f"{n_square} square both-direction worst={worst_both:.2e}")


def test_criterion_7_grouped_dilated_structure():
    from orthokernel import AocConfig, ConvSpec, aoc_kernel

    cfg = AocConfig(spec=ConvSpec(c_in=8, c_out=4, k_h=3, k_w=3, stride=2, groups=2), seed=5)
    K, _ = aoc_kernel(cfg)
    T = toeplitz_from_kernel(K, cfg.spec, 8, 8)
    blocks = []
    for q in range(2):
        Kq = KernelTensor(K.data[q * 2:(q + 1) * 2])
        blocks.append(toeplitz_from_kernel(Kq, spec_for_kernel(Kq, stride=2), 8, 8))
    D = np.zeros_like(T)
    r = c = 0
    for b in blocks:
        D[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    block_err = float(np.max(np.abs(T - D)))

    # dilation d=2, stride 1: output interleaves the undilated convolutions
    # of the four parity subsampled images
    K2 = random_kernel(3, 2, 3, 3, seed=70)
    spec_d = spec_for_kernel(K2, dilation=2)
    x = rng(71).standard_normal((2, 8, 8))
    dilated = conv2d_ref(K2, x, spec_d)
    rec = np.zeros_like(dilated)
    for m in range(2):
        for n in range(2):
            sub = conv2d_ref(K2, x[:, m::2, n::2], spec_for_kernel(K2))
            rec[:, m::2, n::2] = sub
    dil_err = float(np.max(np.abs(rec - dilated)))
    ok = block_err <= 1e-12 and dil_err <= 1e-12
    report(7, "grouped/dilated structure", ok,
           f"block-diagonal err={block_err:.2e}, dilation reconstruction err={dil_err:.2e}")


def test_criterion_8_orthogonalizers(tmp_path):
    tolerances = {"bjorck": 1e-6, "qr_mgs": 1e-6, "cayley": 1e-6,
                  "exponential": 1e-6, "cholesky": 1e-6}
    worst = {}
    for scheme, tol in tolerances.items():
        res = 0.0
        for shape in [(6, 6), (4, 9), (9, 4)]:
            W = rng((8, *shape)).standard_normal(shape)
            res = max(res, gram_residual(orthogonalize_stack(W[None], scheme=scheme)[0]))
        worst[scheme] = res
        assert res <= tol, f"{scheme}: residual {res:.2e} > {tol}"
    # Björck's iteration, the independent route to the `bjorck` scheme's
    # polar factor, from 12 sweeps on the factory shape grid (aspect away
    # from 1)
    bjorck12 = 0.0
    for shape in [(8, 4), (4, 8), (16, 8), (3, 27), (12, 6), (9, 18)]:
        for seed in range(4):
            W = rng((seed, *shape)).standard_normal(shape)
            bjorck12 = max(bjorck12, gram_residual(
                bjorck_ref(W, beta=0.5, iters=12)[0]))
    # full stacks built with the cholesky scheme verify at the default tolerance
    from orthokernel import AocConfig, ConvSpec, aoc_kernel

    stacks_ok = True
    for (ci, co, k, s) in [(4, 4, 3, 1), (4, 8, 3, 2), (8, 4, 3, 2)]:
        cfg = AocConfig(spec=ConvSpec(c_in=ci, c_out=co, k_h=k, k_w=k, stride=s),
                        scheme="cholesky", seed=2)
        K, _ = aoc_kernel(cfg)
        stacks_ok &= check_orthogonality(K, cfg.spec, 8, 8).passed
    ok = bjorck12 <= 1e-4 and stacks_ok
    report(8, "orthogonalizers", ok,
           f"scheme residuals={ {k: f'{v:.1e}' for k, v in worst.items()} }, "
           f"12-sweep worst={bjorck12:.2e}, cholesky stacks: {stacks_ok}")


def test_criterion_9_explicit_exponential():
    K = skew_symmetrize_kernel(random_kernel(2, 2, 3, 3, seed=90))
    x = rng(91).standard_normal((2, 8, 8))
    terms = 12
    acc = x.copy()
    term = x.copy()
    factorial = 1.0
    for t in range(1, terms + 1):
        factorial *= t
        term = conv2d_ref(K, term, spec_for_kernel(K))
        acc = acc + term / factorial
    E = soc_explicit_kernel(K, terms)
    series_err = float(np.max(np.abs(conv2d_ref(E, x, spec_for_kernel(E)) - acc)))

    S = soc_normalized_skew(random_kernel(2, 2, 3, 3, seed=92))
    E18 = soc_explicit_kernel(S, terms=18)
    rep = check_orthogonality(E18, spec_for_kernel(E18), 8, 8, tolerance=1e-4)
    ok = series_err <= 1e-8 and rep.passed
    report(9, "explicit exponential", ok,
           f"fused-vs-iterated={series_err:.2e}, 18-term spectrum "
           f"sv=[{rep.sigma_min:.6f},{rep.sigma_max:.6f}]")


def test_criterion_10_build_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"c_in": 4, "c_out": 8, "kernel": [3, 3],
                                    "stride": 2, "seed": 11}))
    a, b = tmp_path / "a.okt", tmp_path / "b.okt"
    assert cli_main(["build", str(cfg_path), str(a)]) == 0
    assert cli_main(["build", str(cfg_path), str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    report(10, "build determinism", ok, f"{len(a.read_bytes())} bytes, identical")


def test_criterion_11_relative_performance():
    C, k, reps = 16, 3, 3
    A = KernelTensor(rng(110).standard_normal((C, C, k, k)))
    B = KernelTensor(rng(111).standard_normal((C, C, k, k)))

    def timed(fn):
        out = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return median(out)

    t_naive = timed(lambda: block_conv_naive(B, A))
    t_fast = timed(lambda: block_conv_fast(B, A))
    # reported, not asserted: the criterion is qualitative
    faster = t_fast < t_naive
    report(11, "relative performance", True,
           f"naive={t_naive * 1e3:.1f}ms fused={t_fast * 1e3:.2f}ms "
           f"fused_faster={faster} speedup={t_naive / max(t_fast, 1e-9):.0f}x")
