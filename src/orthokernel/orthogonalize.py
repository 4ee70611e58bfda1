"""Orthogonalization of unconstrained matrices.

Five interchangeable schemes produce a row- or column-orthogonal matrix
from an arbitrary dense one, all dispatched by `orthogonalize_stack` over
a stack of same-shape matrices, plus the symmetric-projector construction
used by the kernel factories.  All routines work in float64.  Orientation
convention: the orthogonality residual is always measured on the smaller
Gram side (W W^T for wide matrices, W^T W for tall ones).
"""

from __future__ import annotations

import numpy as np

SCHEMES = ("bjorck", "qr_mgs", "cayley", "exponential", "cholesky")

DEFAULT_SCHEME = "bjorck"
DEFAULT_BETA = 0.5
DEFAULT_ITERS = 12
#: Gram residual above which `orthogonalize_stack` adds Björck sweeps
RESIDUAL_STOP = 1e-12
#: first Björck sweeps of a rectangular factor of the exponential scheme
EXP_RECT_SWEEPS = 25


def sample_params(shape, seed) -> np.ndarray:
    """Deterministic standard-normal fill.

    The generator is numpy's PCG64 seeded from `seed` (an integer or a
    tuple of integers); a given seed always reproduces the same matrix.
    This mapping is part of the package contract and must not change
    between versions, since constructed kernels are derived from it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape)


def _bjorck_sweeps(W: np.ndarray, beta: float, iters: int) -> np.ndarray:
    for _ in range(iters):
        if W.shape[-2] <= W.shape[-1]:
            W = (1.0 + beta) * W - beta * (W @ W.swapaxes(-1, -2)) @ W
        else:
            W = (1.0 + beta) * W - beta * W @ (W.swapaxes(-1, -2) @ W)
    return W


def bjorck_orthogonalize(W: np.ndarray, beta: float = DEFAULT_BETA,
                         iters: int = DEFAULT_ITERS) -> np.ndarray:
    """Iterative polar-style orthogonalization of a matrix, or of each
    matrix of a stack `[..., m, n]`.

    Each matrix is first divided by sqrt(||G||_inf), with G its smaller
    Gram side and ||G||_inf the largest absolute row sum of G; that is at
    least the largest eigenvalue of G, so every scaled singular value is at
    most 1.  Then the stack is refined with W <- (1+beta) W - beta W W^T W,
    which is gradient descent on ||W W^T - I|| with step beta; convergence
    requires beta <= 1/2 after the scaling.  Works for wide, square and tall
    inputs (the update is the same matrix either way; only the cheaper Gram
    side is formed).  A stacked `matmul` makes numpy's 2-D BLAS call per
    matrix, so a stack gives each matrix's bits.

    `iters` is the fixed sweep count.  12 sweeps reach 1e-4 residuals on
    well-conditioned inputs (aspect ratio away from 1); near-square
    Gaussian draws can need more because their smallest singular value
    starts arbitrarily close to zero and only grows by 3/2 per sweep.
    """
    W = np.asarray(W, dtype=np.float64)
    norms = np.abs(_gram(W)).sum(axis=-1).max(axis=-1)
    if not np.all(norms):
        raise ValueError("cannot orthogonalize the zero matrix")
    if not (0.0 < beta <= 0.5):
        raise ValueError(f"beta must lie in (0, 0.5], got {beta}")
    return _bjorck_sweeps(W / np.sqrt(norms)[..., None, None], beta, iters)


def qr_mgs(W: np.ndarray) -> np.ndarray:
    """Q factor of the modified Gram-Schmidt QR factorization.

    Columns are normalized one at a time and the remaining columns are
    corrected in place immediately, which is what distinguishes the
    modified from the classical procedure numerically.  Requires full
    column rank (square or tall input).
    """
    W = np.asarray(W, dtype=np.float64)
    rows, cols = W.shape
    if rows < cols:
        raise ValueError("qr_mgs expects a square or tall matrix")
    Q = W.copy()
    for j in range(cols):
        r_jj = np.linalg.norm(Q[:, j])
        if r_jj < 1e-12:
            raise ValueError(f"rank deficiency detected at column {j} (r_jj={r_jj:.3e})")
        Q[:, j] /= r_jj
        for k in range(j + 1, cols):
            Q[:, k] -= (Q[:, j] @ Q[:, k]) * Q[:, j]
    return Q


def cayley_rect(W: np.ndarray) -> np.ndarray:
    """Cayley-transform orthogonalization for square or tall matrices.

    Split W into U (top C x C) and V (rest); form A = U - U^T + V^T V
    (deliberately not strictly skew-symmetric), B = (I + A)^-1, and return
    [B (I - A); -2 V B], which is column orthogonal.  Square inputs yield a
    special orthogonal matrix (determinant +1).
    """
    W = np.asarray(W, dtype=np.float64)
    rows, cols = W.shape
    if rows < cols:
        raise ValueError("cayley_rect expects a square or tall matrix")
    U, V = W[:cols, :], W[cols:, :]
    A = U - U.T + V.T @ V
    I = np.eye(cols)
    try:
        B = np.linalg.inv(I + A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("I + A is singular; perturb the input and retry") from exc
    top = B @ (I - A)
    if rows == cols:
        return top
    return np.vstack([top, -2.0 * V @ B])


def exp_map(W: np.ndarray, p: int = 18) -> np.ndarray:
    """Orthogonalization through the matrix exponential of the skew part.

    A = W - W^T is scaled to unit spectral norm and exp(A) is approximated
    by the truncated series sum_{k=0}^{p} A^k / k!.  Square inputs only;
    the output has determinant +1.  A symmetric W (zero skew part) maps to
    the identity.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("exp_map expects a square matrix")
    if p < 1:
        raise ValueError("p must be >= 1")
    A = W - W.T
    norm = np.linalg.norm(A, 2)
    n = W.shape[0]
    if norm == 0.0:
        return np.eye(n)
    A = A / norm
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, p + 1):
        term = term @ A / k
        out = out + term
    return out


def cholesky_orth(M: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    """Orthogonalization by whitening with a Cholesky factor.

    C = M M^T + eps I is factored as L L^T and the triangular system
    L W = M is solved; W W^T = I up to a residual that grows with eps
    (roughly eps times a conditioning factor).  Requires rows <= cols.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] > M.shape[1]:
        raise ValueError("cholesky_orth expects rows <= cols")
    if eps <= 0:
        raise ValueError("eps must be positive")
    C = M @ M.T + eps * np.eye(M.shape[0])
    L = np.linalg.cholesky(C)
    # forward substitution L W = M via solve on the triangular factor
    return np.linalg.solve(L, M)


def projector_pair(M0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric projector N = M0 M0^T and its complement I - N of a
    column-orthogonal c x floor(c/2) matrix; both satisfy P = P^2 = P^T to
    1e-10."""
    M0 = np.asarray(M0, dtype=np.float64)
    c = M0.shape[0]
    if c < 2:
        raise ValueError("projector construction needs at least 2 channels")
    gram = M0.T @ M0
    if np.max(np.abs(gram - np.eye(M0.shape[1]))) > 1e-6:
        raise ValueError("M0 is not column orthogonal (orthogonalize it first)")
    N = M0 @ M0.T
    return N, np.eye(c) - N


def _gram(O: np.ndarray) -> np.ndarray:
    """The smaller Gram side of each matrix of a stack: O O^T for wide
    matrices, O^T O for tall ones."""
    Ot = O.swapaxes(-1, -2)
    return O @ Ot if O.shape[-2] <= O.shape[-1] else Ot @ O


def _gram_residual(O: np.ndarray) -> np.ndarray:
    """max |G - I| over the smaller Gram side G of each matrix of a stack."""
    G = _gram(O)
    return np.max(np.abs(G - np.eye(G.shape[-1])), axis=(-2, -1))


def orthogonalize_stack(Ws: np.ndarray, scheme: str = DEFAULT_SCHEME) -> np.ndarray:
    """The scheme dispatcher: each matrix of the stack `Ws[n, rows, cols]`
    orthogonalized by `scheme` (one matrix W is `W[None]`).

    Output orientation follows the input shape: wide matrices come back
    row orthogonal, tall ones column orthogonal.  `qr_mgs`, `cayley` and
    `cholesky` run matrix by matrix, on the transpose where their natural
    orientation is the other one.  `exponential` is `exp_map` on square
    matrices; rectangular ones (padding them would be wasteful) take the
    iterative scheme with `EXP_RECT_SWEEPS` first sweeps.

    The iterative scheme refines the whole stack and gives each matrix the
    bits it would get alone: 12 sweeps of `bjorck_orthogonalize` at step
    1/2.  Kernel constructions assume factor-level orthogonality, and ill
    conditioned square draws converge slower (the row-sum scaling starts
    every singular value at or below 1, often well below), so each matrix
    still above a `RESIDUAL_STOP` Gram residual gets rounds of 4 more
    sweeps, at most 60 more, as it would alone.  One still above the stop
    then is returned as it is, with a warning on the "orthokernel" logger.
    Converged factors of real widths sit far below the stop (under 1e-15
    for 512x512, 512x4608 and 1024x1024 draws), so it adds no rounds there.
    """
    Ws = np.asarray(Ws, dtype=np.float64)
    if Ws.ndim != 3:
        raise ValueError(f"expected a stack of matrices [n, rows, cols], got shape {Ws.shape}")
    rows, cols = Ws.shape[1:]
    sweeps = DEFAULT_ITERS
    if scheme == "exponential":
        if rows == cols:
            return np.stack([exp_map(W) for W in Ws])
        scheme, sweeps = "bjorck", EXP_RECT_SWEEPS
    one = {"qr_mgs": qr_mgs, "cayley": cayley_rect, "cholesky": cholesky_orth}.get(scheme)
    if one is not None:
        # qr_mgs and cayley_rect take tall matrices, cholesky_orth wide ones
        if rows > cols if scheme == "cholesky" else rows < cols:
            return np.stack([one(W.T).T for W in Ws])
        return np.stack([one(W) for W in Ws])
    if scheme != "bjorck":
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    O = bjorck_orthogonalize(Ws, iters=sweeps)
    residual = _gram_residual(O)
    active, extra = np.flatnonzero(residual > RESIDUAL_STOP), 0
    while active.size and extra < 60:
        extra += 4
        O[active] = _bjorck_sweeps(O[active], DEFAULT_BETA, 4)
        residual[active] = _gram_residual(O[active])
        active = active[residual[active] > RESIDUAL_STOP]
    if active.size:
        # imported only here: it would add ~5 ms to every process start
        import logging
        for i in active:
            logging.getLogger("orthokernel").warning(
                "Bjorck factor %d of a stack of %d %dx%d matrices did not converge: "
                "residual %.3g after %d sweeps", i, len(O), *O.shape[1:], residual[i], sweeps + 60)
    return O
