import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokernel import (
    cayley_rect,
    exp_map,
    UnsupportedConfigError,
    bcop_kernel,
    orthogonalize_stack,
    qr_mgs,
    sample_params,
)
from orthokernel.construct import _fold_projector
from conftest import gram_residual, rng
from oracles import bjorck_ref, orthogonalize_ref, polar_ref, projector_factor_ref

# shapes drawn by the kernel factories: aspect-2 projector bases, channel
# maps, reshaped-kernel flattenings
WELL_CONDITIONED_GRID = [(8, 4), (4, 8), (16, 8), (3, 27), (12, 6), (6, 12), (9, 18), (4, 12)]


# --- Bjorck: the polar factor ------------------------------------------------

def test_bjorck_orthogonal_input_is_fixed_point():
    Q = np.linalg.qr(rng(1).standard_normal((6, 6)))[0]
    out = orthogonalize_stack(Q[None], "bjorck")[0]
    np.testing.assert_allclose(out, Q, atol=1e-12)


def test_bjorck_ref_25_sweeps_reaches_1e6():
    W = rng(2).standard_normal((8, 4))
    out = bjorck_ref(W, iters=25)[0]
    assert np.max(np.abs(out.T @ out - np.eye(4))) <= 1e-6


@pytest.mark.parametrize("shape", WELL_CONDITIONED_GRID)
def test_bjorck_12_iters_reaches_1e4(shape):
    # the oracle `bjorck_ref`, Björck's iteration, is the independent route
    # to the polar factor: from 12 sweeps on, it must agree with the
    # library's SVD to rounding
    for seed in range(5):
        W = rng((seed, *shape)).standard_normal(shape)
        O = bjorck_ref(W, iters=12)[0]
        assert gram_residual(O) <= 1e-4
        assert np.max(np.abs(O - orthogonalize_stack(W[None], "bjorck")[0])) <= 1e-12


def test_bjorck_rejects_rank_deficient():
    # the zero matrix, and a 4x4 of rank 3, alone or beside a full-rank
    # matrix; rectangular exponential factors are polar factors too
    W = rng(13).standard_normal((4, 4))
    rank3 = W @ np.diag([1.0, 1.0, 1.0, 0.0]) @ W.T
    for scheme, M in (("bjorck", np.zeros((4, 4))), ("bjorck", rank3),
                      ("exponential", np.zeros((4, 3)))):
        for Ws in (M[None], np.stack([W[:, :M.shape[1]], M])):
            with pytest.raises(ValueError, match="rank-deficient"):
                orthogonalize_stack(Ws, scheme)


# --- QR -----------------------------------------------------------------------

def test_qr_identity_and_diagonal():
    np.testing.assert_allclose(qr_mgs(np.eye(4)), np.eye(4), atol=0)
    np.testing.assert_allclose(qr_mgs(np.diag([2.0, 3.0])), np.eye(2), atol=0)


def test_qr_reconstruction():
    W = rng(3).standard_normal((6, 6))
    Q = qr_mgs(W)
    R = Q.T @ W
    assert np.max(np.abs(Q.T @ Q - np.eye(6))) <= 1e-10
    np.testing.assert_allclose(Q @ R, W, atol=1e-10)
    assert np.allclose(R, np.triu(R))


def test_qr_stays_orthogonal_when_ill_conditioned():
    # Householder QR keeps Q orthogonal to rounding at any conditioning;
    # modified Gram-Schmidt lost it in proportion to kappa (5.3e-9 here)
    W = _with_singular_values(64, 32, np.logspace(0, -8, 32), seed=3)
    Q = qr_mgs(W)
    assert np.max(np.abs(Q.T @ Q - np.eye(32))) <= 1e-13


def test_qr_of_stack_has_positive_triangular_r():
    Ws = rng(14).standard_normal((4, 7, 5))
    Qs = qr_mgs(Ws)
    R = Qs.swapaxes(-1, -2) @ Ws
    np.testing.assert_allclose(R, np.triu(R), atol=1e-12)
    assert np.all(np.diagonal(R, axis1=-2, axis2=-1) > 0)
    np.testing.assert_allclose(Qs @ R, Ws, atol=1e-12)


def test_qr_rank_deficiency_error():
    W = np.ones((4, 3))
    with pytest.raises(ValueError, match="rank"):
        qr_mgs(W)
    with pytest.raises(ValueError, match="square or tall"):
        qr_mgs(np.ones((3, 4)))
    with pytest.raises(ValueError, match="square or tall"):
        qr_mgs(np.ones((2, 3, 4)))
    # the first deficient column of the first deficient matrix of a stack
    with pytest.raises(ValueError, match="rank deficiency detected at column 1"):
        W = rng(17).standard_normal((4, 2))
        qr_mgs(np.stack([W, W, np.ones((4, 2)), np.ones((4, 2))]))


# --- Cayley ------------------------------------------------------------------

def test_cayley_zero_gives_identity():
    np.testing.assert_allclose(cayley_rect(np.zeros((4, 4))), np.eye(4), atol=0)


def test_cayley_tall_column_orthogonal():
    W = rng(4).standard_normal((7, 3))
    Q = cayley_rect(W)
    assert Q.shape == (7, 3)
    assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-8


def test_cayley_square_special_orthogonal():
    for seed in range(5):
        Q = cayley_rect(rng(seed).standard_normal((5, 5)))
        assert np.max(np.abs(Q.T @ Q - np.eye(5))) <= 1e-8
        assert abs(np.linalg.det(Q) - 1.0) <= 1e-8


def test_cayley_singular_error(monkeypatch):
    # I + A is nonsingular for every finite input (A is skew plus PSD, so
    # its eigenvalues have nonnegative real part); the error clause only
    # fires on numerical degeneracy, so exercise the translation directly
    def boom(_):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(np.linalg, "inv", boom)
    with pytest.raises(ValueError, match="singular"):
        cayley_rect(rng(0).standard_normal((4, 2)))


def test_cayley_rejects_wide():
    for shape in ((2, 4), (3, 2, 4)):
        with pytest.raises(ValueError):
            cayley_rect(np.zeros(shape))


# --- exponential map ----------------------------------------------------------

def test_exp_symmetric_gives_identity():
    S = rng(5).standard_normal((4, 4))
    np.testing.assert_allclose(exp_map(S + S.T), np.eye(4), atol=0)
    # a symmetric member of a stack too, beside one with a skew part
    W = rng(16).standard_normal((4, 4))
    O = exp_map(np.stack([S + S.T, W]))
    assert np.array_equal(O[0], np.eye(4)) and np.array_equal(O[1], exp_map(W))


def test_exp_residual_and_det():
    W = rng(6).standard_normal((5, 5))
    Q = exp_map(W)
    assert np.max(np.abs(Q @ Q.T - np.eye(5))) <= 1e-10
    assert abs(np.linalg.det(Q) - 1.0) <= 1e-8


def test_exp_2x2_rotation_closed_form():
    W = np.array([[0.0, 2.0], [0.0, 0.0]])
    # A = W - W^T = [[0,2],[-2,0]], normalized generator [[0,1],[-1,0]],
    # whose exponential is the rotation by 1 radian
    Q = exp_map(W)
    expected = np.array([[np.cos(1.0), np.sin(1.0)], [-np.sin(1.0), np.cos(1.0)]])
    np.testing.assert_allclose(Q, expected, atol=1e-12)
    assert abs(np.linalg.det(Q) - 1.0) <= 1e-12


def test_exp_rejects_rectangular():
    for shape in ((3, 2), (2, 3, 2)):
        with pytest.raises(ValueError):
            exp_map(np.zeros(shape))


# --- Cholesky -----------------------------------------------------------------

def test_cholesky_near_identity_for_orthogonal_input():
    M = np.linalg.qr(rng(7).standard_normal((6, 6)))[0][:4]  # row orthogonal
    W = orthogonalize_stack(M[None], "cholesky")[0]
    np.testing.assert_allclose(W, M, atol=1e-12)


def test_cholesky_wide_residual():
    M = rng(8).standard_normal((4, 9))
    W = orthogonalize_stack(M[None], "cholesky")[0]
    assert np.max(np.abs(W @ W.T - np.eye(4))) <= 1e-13


def test_cholesky_rejects_rank_deficient():
    # refused by the QR of the transpose, at the dependent row
    with pytest.raises(ValueError, match="rank deficiency detected at column 1"):
        orthogonalize_stack(np.ones((1, 2, 3)), "cholesky")


@pytest.mark.parametrize("seed", [3, 5, 7])
def test_cholesky_stays_orthogonal_when_ill_conditioned(seed):
    # whitening through M M^T squared the condition number: 1.6e-6 to
    # 1.8e-5 here
    M = _with_singular_values(32, 64, np.logspace(0, -6, 32), seed=seed)
    W = orthogonalize_stack(M[None], "cholesky")[0]
    assert np.max(np.abs(W @ W.T - np.eye(32))) <= 1e-13


# --- projectors ---------------------------------------------------------------
# the factor [N, I-N], N = M M^T, that `construct._fold_projector` applies in
# closed form, and its dense form in the oracles

def test_projector_pair_basic_2x1():
    # folding the 2x1 (or 1x2) factor of M = e1 onto the 1x1 identity gives
    # the factor itself: taps N = diag(1, 0) and I - N = diag(0, 1)
    for axis in (2, 3):
        F = _fold_projector(np.eye(2).reshape(1, 2, 2, 1, 1), np.array([[[1.0], [0.0]]]),
                            axis + 1)[0]
        np.testing.assert_array_equal(np.moveaxis(F, axis, 0).reshape(2, 2, 2),
                                      [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def test_projector_invariants_random():
    M0 = qr_mgs(rng(9).standard_normal((6, 3)))
    F = projector_factor_ref(M0, 2).data
    N, complement = F[..., 0, 0], F[..., 1, 0]
    for P in (N, complement):
        assert np.max(np.abs(P @ P - P)) <= 1e-10
        assert np.max(np.abs(P - P.T)) <= 1e-10
    assert abs(np.trace(N) - 3.0) <= 1e-10


def test_projector_rejects_non_orthogonal_base():
    K = rng(11).standard_normal((6, 4, 2, 1))
    with pytest.raises(ValueError, match="column orthogonal"):
        _fold_projector(K[None], rng(10).standard_normal((6, 3))[None], 4)
    # a width-1 projector kernel is refused before any factor is drawn
    with pytest.raises(UnsupportedConfigError, match="at least 2 channels"):
        bcop_kernel(1, 1, 2, 1)


# --- parameter sampling --------------------------------------------------------

def test_sample_params_deterministic():
    a = sample_params((5, 7), 42)
    b = sample_params((5, 7), 42)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_params((5, 7), 43))


def test_sample_params_statistics():
    draws = sample_params((100, 100), 0)
    assert abs(draws.mean()) <= 0.05
    assert 0.9 <= draws.std() <= 1.1


# --- closure properties ---------------------------------------------------------

@given(st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_row_masking_closure(seed):
    g = rng(seed)
    Q = np.linalg.qr(g.standard_normal((8, 8)))[0]
    keep = np.sort(g.choice(8, size=int(g.integers(1, 8)), replace=False))
    sub = Q[keep]
    assert np.max(np.abs(sub @ sub.T - np.eye(len(keep)))) <= 1e-12


def test_product_closure():
    A = orthogonalize_stack(rng(11).standard_normal((1, 4, 8)))[0]
    B = orthogonalize_stack(rng(12).standard_normal((1, 8, 16)))[0]
    P = A @ B
    assert np.max(np.abs(P @ P.T - np.eye(4))) <= 1e-10


# --- dispatcher -----------------------------------------------------------------

@pytest.mark.parametrize("scheme,tol", [
    ("bjorck", 1e-6), ("qr_mgs", 1e-6), ("cayley", 1e-6),
    ("exponential", 1e-6), ("cholesky", 1e-6),
])
@pytest.mark.parametrize("shape", [(6, 6), (4, 9), (9, 4)])
def test_scheme_interchangeability(scheme, tol, shape):
    W = rng((1, *shape)).standard_normal(shape)
    assert gram_residual(orthogonalize_stack(W[None], scheme=scheme)[0]) <= tol


# --- stacked polar factor -------------------------------------------------------

def _with_singular_values(n_rows, n_cols, sigmas, seed):
    """A matrix with the given singular values and random singular vectors."""
    U, _ = np.linalg.qr(rng(seed).standard_normal((n_rows, n_rows)))
    V, _ = np.linalg.qr(rng(seed + 1).standard_normal((n_cols, n_cols)))
    return U[:, :len(sigmas)] @ np.diag(sigmas) @ V[:, :len(sigmas)].T


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (5, 5), (1, 4), (4, 1), (6, 6)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orthogonalize_stack_equals_per_matrix_calls(shape, n):
    Ws = rng((n, *shape)).standard_normal((n, *shape))
    O = orthogonalize_stack(Ws, "bjorck")
    assert O.shape == Ws.shape
    assert np.array_equal(O, np.stack([polar_ref(W) for W in Ws]))
    assert np.array_equal(O, np.stack([orthogonalize_stack(W[None], "bjorck")[0] for W in Ws]))


@pytest.mark.parametrize("shape", [(8, 5), (6, 6), (5, 8)])
def test_orthogonalize_stack_gives_each_matrix_its_own_schedule(shape):
    # an ill-conditioned member (sigma_min = 1e-4, where Björck's iteration
    # needed extra rounds) must not change the bits of the others
    k = min(shape)
    fast = _with_singular_values(*shape, np.linspace(1.0, 0.8, k), seed=5)
    slow = _with_singular_values(*shape, np.logspace(0, -4, k), seed=7)
    for Ws in ([fast, slow], [slow, fast], [fast, slow, fast, slow, fast]):
        O = orthogonalize_stack(np.stack(Ws), "bjorck")
        assert np.array_equal(O, np.stack([polar_ref(W) for W in Ws]))
        assert np.array_equal(O, np.stack([orthogonalize_stack(W[None], "bjorck")[0] for W in Ws]))
        assert max(gram_residual(Q) for Q in O) <= 1e-13


def test_orthogonalize_stack_refusals_match_per_matrix_calls():
    W = rng(8).standard_normal((4, 3))
    deficient = np.column_stack([W[:, 0], W[:, 0], W[:, 1]])
    for scheme, Ws in (("bjorck", [W, np.zeros((4, 3))]), ("qr_mgs", [W, deficient]),
                       ("nope", [W])):
        with pytest.raises(ValueError) as want:
            [orthogonalize_ref(M, scheme=scheme) for M in Ws]
        with pytest.raises(type(want.value)) as refused:
            orthogonalize_stack(np.stack(Ws), scheme=scheme)
        assert str(refused.value) == str(want.value)
    with pytest.raises(ValueError, match="stack of matrices"):
        orthogonalize_stack(W)
    with pytest.raises(ValueError, match="cannot orthogonalize a rank-deficient matrix"):
        orthogonalize_stack(np.zeros((3, 4))[None], "bjorck")


def test_exponential_rectangular_factor_is_polar_factor(caplog):
    # rectangular factors take the polar factor, which has no sweeps left
    # to stop short: 25 Björck sweeps left this near-square draw at 1.4e-5
    W = sample_params((64, 63), 1)
    with caplog.at_level("WARNING", logger="orthokernel"):
        O = orthogonalize_stack(W[None], "exponential")
    assert gram_residual(O[0]) <= 1e-13
    assert np.array_equal(O[0], polar_ref(W))
    assert not caplog.records


@pytest.mark.parametrize("scheme", ["qr_mgs", "cayley", "exponential", "cholesky"])
@pytest.mark.parametrize("shape", [(6, 6), (4, 9), (9, 4)])
def test_other_schemes_stack_per_matrix(scheme, shape):
    Ws = rng((2, *shape)).standard_normal((3, *shape))
    want = np.stack([orthogonalize_ref(W, scheme=scheme) for W in Ws])
    assert np.array_equal(orthogonalize_stack(Ws, scheme=scheme), want)
    assert np.array_equal(orthogonalize_stack(Ws[0][None], scheme=scheme)[0], want[0])


@pytest.mark.parametrize("fn,shape", [
    (qr_mgs, (7, 4)), (qr_mgs, (5, 5)), (cayley_rect, (7, 4)), (cayley_rect, (5, 5)),
    (exp_map, (5, 5)),
])
def test_scheme_function_of_stack_equals_its_matrix_calls(fn, shape):
    Ws = rng((3, *shape)).standard_normal((2, 3, *shape))
    O = fn(Ws)
    assert O.shape == Ws.shape
    assert np.array_equal(O, np.stack([[fn(W) for W in row] for row in Ws]))
