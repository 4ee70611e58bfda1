"""Orthogonalization of unconstrained matrices.

Five interchangeable schemes produce a row- or column-orthogonal matrix
from an arbitrary dense one.  `orthogonalize_stack` dispatches a whole
stack to one call; the scheme functions it calls take one matrix or a
stack [..., rows, cols], giving each matrix the bits of its own call.
Every scheme finishes: `bjorck` is Björck's limit, the polar factor from
an SVD, `qr_mgs` LAPACK's Householder QR, `cholesky` the same QR taken on
the wide side (for M^T = Q R, the Cholesky factor of M M^T is R^T and
the whitened M is Q^T), and the others take a fixed number of steps.
All routines work in float64.
Orientation convention: the orthogonality residual is always measured on
the smaller Gram side (W W^T for wide matrices, W^T W for tall ones).
"""

from __future__ import annotations

import numpy as np

SCHEMES = ("bjorck", "qr_mgs", "cayley", "exponential", "cholesky")

#: QR and the polar factor (`bjorck`) both map a Gaussian draw to a
#: Haar-distributed factor; QR costs less than `bjorck`'s SVD, and its bytes
#: do not depend on the BLAS thread count
DEFAULT_SCHEME = "qr_mgs"

#: terms of `exp_map`'s series; its tail at unit norm is about 8e-18
EXP_TERMS = 18


def sample_params(shape, seed) -> np.ndarray:
    """Deterministic standard-normal fill.

    The generator is numpy's PCG64 seeded from `seed` (an integer or a
    tuple of integers); a given seed always reproduces the same matrix.
    This mapping is part of the package contract and must not change
    between versions, since constructed kernels are derived from it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape)


def qr_mgs(W: np.ndarray) -> np.ndarray:
    """Q factor of LAPACK's Householder QR, signed so that R's diagonal is
    positive.

    Unlike the Gram-Schmidt procedure the scheme is named after, it keeps
    Q orthogonal to rounding at any conditioning.  Requires full column
    rank (square or tall input): |r_jj| < 1e-12 is refused.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2 or W.shape[-2] < W.shape[-1]:
        raise ValueError("qr_mgs expects a square or tall matrix")
    Q, R = np.linalg.qr(W)
    r = np.diagonal(R, axis1=-2, axis2=-1)
    small = np.argwhere(np.abs(r) < 1e-12)
    if small.size:
        raise ValueError(f"rank deficiency detected at column {small[0][-1]} "
                         f"(r_jj={abs(r[tuple(small[0])]):.3e})")
    return np.multiply(Q, np.sign(r)[..., None, :], out=Q)


def cayley_rect(W: np.ndarray) -> np.ndarray:
    """Cayley-transform orthogonalization for square or tall matrices.

    Split W into U (top C x C) and V (rest); form A = U - U^T + V^T V
    (deliberately not strictly skew-symmetric), B = (I + A)^-1, and return
    [B (I - A); -2 V B], which is column orthogonal.  Square inputs yield a
    special orthogonal matrix (determinant +1).
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2 or W.shape[-2] < W.shape[-1]:
        raise ValueError("cayley_rect expects a square or tall matrix")
    cols = W.shape[-1]
    U, V = W[..., :cols, :], W[..., cols:, :]
    A = U - U.swapaxes(-1, -2) + V.swapaxes(-1, -2) @ V
    I = np.eye(cols)
    try:
        B = np.linalg.inv(I + A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("I + A is singular; perturb the input and retry") from exc
    return np.concatenate([B @ (I - A), -2.0 * V @ B], axis=-2)


def exp_map(W: np.ndarray) -> np.ndarray:
    """Orthogonalization through the matrix exponential of the skew part.

    A = W - W^T is scaled to unit spectral norm and exp(A) is approximated
    by the truncated series sum_{k=0}^{EXP_TERMS} A^k / k!.  Square inputs
    only; the output has determinant +1.  A symmetric W (zero skew part)
    has A = 0, and maps to the identity exactly.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim < 2 or W.shape[-2] != W.shape[-1]:
        raise ValueError("exp_map expects a square matrix")
    A = W - W.swapaxes(-1, -2)
    norm = np.linalg.norm(A, 2, axis=(-2, -1))[..., None, None]
    A = A / np.where(norm == 0.0, 1.0, norm)
    out = term = np.eye(W.shape[-1])
    for k in range(1, EXP_TERMS + 1):
        term = term @ A / k
        out = out + term
    return out


def orthogonalize_stack(Ws: np.ndarray, scheme: str = DEFAULT_SCHEME) -> np.ndarray:
    """The scheme dispatcher: each matrix of the stack `Ws[n, rows, cols]`
    orthogonalized by `scheme` (one matrix W is `W[None]`).

    Output orientation follows the input shape: wide matrices come back
    row orthogonal, tall ones column orthogonal.  `qr_mgs`, `cayley` and
    `cholesky` take the whole stack, transposed where it is wide, and
    `cholesky` where it is square too: it is `qr_mgs` of the wide side.
    `exponential` is `exp_map` on square matrices.

    `bjorck`, and `exponential` on rectangular matrices (padding them would
    be wasteful), give the polar factor U V^T of each matrix W = U S V^T:
    the limit of Björck's iteration W <- (3/2) W - (1/2) W W^T W, the
    nearest matrix with orthonormal rows or columns.  One batched SVD of
    the stack gives each matrix the bits it would get alone.  A matrix
    whose smallest singular value is at most 1e-12 of its largest (the
    zero matrix among them) has no well-defined polar factor and is
    refused with ValueError.
    """
    Ws = np.asarray(Ws, dtype=np.float64)
    if Ws.ndim != 3:
        raise ValueError(f"expected a stack of matrices [n, rows, cols], got shape {Ws.shape}")
    rows, cols = Ws.shape[1:]
    if scheme == "exponential" and rows == cols:
        return exp_map(Ws)
    orth = {"qr_mgs": qr_mgs, "cayley": cayley_rect, "cholesky": qr_mgs}.get(scheme)
    if orth is not None:
        # qr_mgs and cayley_rect take tall matrices; cholesky transposes a square one too
        if rows < cols or (scheme == "cholesky" and rows == cols):
            return orth(Ws.swapaxes(-1, -2)).swapaxes(-1, -2)
        return orth(Ws)
    if scheme not in ("bjorck", "exponential"):
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    U, S, Vt = np.linalg.svd(Ws, full_matrices=False)
    deficient = np.flatnonzero(S[:, -1] <= 1e-12 * S[:, 0])
    if deficient.size:
        i = deficient[0]
        raise ValueError(f"cannot orthogonalize a rank-deficient matrix: singular values "
                         f"{S[i, 0]:.3g} to {S[i, -1]:.3g}")
    return U @ Vt
