"""Complex linear-algebra substrate.

Deterministic Haar sampling, the closed-form real coordinates of Hermitian
matrices in a trace-orthonormal basis of fixed canonical order, SVD-based
rank estimation, and a uniqueness-normalized thin QR. Everything here is a
pure function of its arguments; randomness always enters through an explicit
64-bit seed.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateFactorizationError, InvalidDimensionError, NonHermitianError

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-10


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded generator; distinct streams give independent sequences for workers."""
    return np.random.default_rng([np.uint64(seed), np.uint64(stream)])


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex standard-normal matrix, entries ~ CN(0, 1)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def thin_qr_unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the diagonal of R forced real and strictly positive.

    The positivity normalization makes the factorization unique, hence
    byte-deterministic for identical input. Requires rows >= cols and full
    column rank.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise InvalidDimensionError(f"need rows >= cols, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    smax = np.abs(d).max() if d.size else 0.0
    if smax == 0.0 or np.abs(d).min() <= 1e-10 * smax * max(a.shape):
        raise DegenerateFactorizationError("input is numerically rank-deficient")
    phases = d / np.abs(d)
    q = q * phases[None, :]
    r = phases.conj()[:, None] * r
    return q, r


def sample_haar_unitary(dim: int, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix.

    The positive-diagonal-R normalization of thin_qr_unique is exactly the
    phase correction that makes the QR output Haar rather than merely unitary.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    rng = make_rng(seed, stream)
    q, _ = thin_qr_unique(ginibre(rng, dim, dim))
    return q


def vec_hermitian(a: np.ndarray) -> np.ndarray:
    """Real coordinates (..., N^2) of Hermitian matrices stacked (..., N, N).

    Coordinate alpha is tr(E_alpha A) in the trace-orthonormal Hermitian basis
    of canonical order: the N diagonal projectors e_j e_j^T, then the real
    symmetrizers (e_j e_k^T + e_k e_j^T)/sqrt(2) for j < k in lexicographic
    order, then the imaginary antisymmetrizers (-i e_j e_k^T + i e_k e_j^T)/sqrt(2),
    same order. In closed form that is [diag A, sqrt(2) Re A_jk, -sqrt(2) Im A_jk]
    over j < k, so vec(A) . vec(B) = tr(AB).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InvalidDimensionError(f"need (..., N, N) matrices with N >= 1, got shape {a.shape}")
    dev = np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0)
    if dev > HERMITIAN_TOL:
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    j, k = np.triu_indices(a.shape[-1], 1)
    upper = a[..., j, k]
    diag = np.diagonal(a, axis1=-2, axis2=-1).real
    return np.concatenate([diag, np.sqrt(2.0) * upper.real, -np.sqrt(2.0) * upper.imag], axis=-1)


def numerical_rank(a: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int | np.ndarray:
    """Number of singular values above rel_tol * sigma_max * max(rows, cols).

    A matrix (M, N) gives an int; a stack (..., M, N) gives an int array of
    one rank per matrix from one stacked SVD.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    a = np.asarray(a)
    if 0 in a.shape[-2:]:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        sigma = np.linalg.svd(a, compute_uv=False)
        # an all-zero matrix has sigma_max = 0 and no singular value above it
        smax = sigma.max(axis=-1, keepdims=True)
        ranks = np.sum(sigma > rel_tol * smax * max(a.shape[-2:]), axis=-1)
    return int(ranks) if a.ndim == 2 else ranks
