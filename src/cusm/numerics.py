"""Complex linear-algebra substrate.

Deterministic Haar sampling, the one Hermitian check (its tolerance scales
with each matrix's entries), the closed-form real coordinates of Hermitian
matrices in a trace-orthonormal basis of fixed canonical order, SVD-based rank
estimation, a uniqueness-normalized thin QR, one row norm (row_norms), the one
normalisation of start states (initial_state), and an allocation check against
the machine's memory. The thin QR calls the two LAPACK gufuncs of
np.linalg.qr(mode="reduced") directly, without the wrapper's Python-level checks.
Everything else is a pure function of its arguments; randomness always enters
through an explicit seed, any integer >= 0.
"""

from __future__ import annotations

import functools
import os

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced

from .exceptions import (ConfigurationError, DegenerateFactorizationError,
                         DegenerateInitializationError, InvalidDimensionError, NonHermitianError)

DEFAULT_RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-10
_MIN_NORM = 2.0 ** -511  # its square is the smallest normal float
_UNDERFLOW_SCALE = 2.0 ** 600  # exact; lifts any nonzero row of a smaller norm above _MIN_NORM
_upper = functools.cache(lambda n: ~np.tri(n, k=-1, dtype=bool))  # np.triu's mask


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded generator; distinct streams give independent sequences for workers."""
    return np.random.default_rng([seed, stream])


def check_allocation(nbytes: int, what: str) -> None:
    """Raise ConfigurationError if `what` needs nbytes, more than the physical memory."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise ConfigurationError(f"{what} needs {nbytes:.3g} bytes; memory holds {total:.3g}")


def lapack_errstate(message: str) -> np.errstate:
    """The error state in which np.linalg runs its LAPACK gufuncs: an error that the gufunc
    flags as invalid, such as a singular solve, raises LinAlgError(message), and overflow,
    division and underflow pass silently. A bare gufunc returns NaN in its place."""
    def raise_error(err, flag):
        raise np.linalg.LinAlgError(message)
    return np.errstate(call=raise_error, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex standard-normal matrix, entries ~ CN(0, 1)."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def thin_qr_unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the diagonal of R forced real and strictly positive.

    The positivity normalization makes the factorization unique, hence
    byte-deterministic for identical input. Requires rows >= cols and full
    column rank. The factors are np.linalg.qr's bits: its two gufuncs, qr_r_raw
    (R and the reflectors, in place on a copy) and qr_reduced (Q), and R cut from the
    copy by np.triu's mask. They run without np.linalg's error state, as they flag no
    error for any input, NaN, inf, huge and subnormal entries included.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise InvalidDimensionError(f"need rows >= cols, got shape {a.shape}")
    # kept: np.linalg.qr's two gufuncs without its wrapper, 28-32 -> 18 us at 9 x 3, with its
    # bits (tests/test_properties.py::test_thin_qr_unique_equals_numpy_qr_bit_for_bit)
    q = qr_reduced(a, qr_r_raw(a, signature="D->D"), signature="DD->D")
    cols = a.shape[1]
    r = np.where(_upper(cols), a[:cols], 0j)
    d = np.diagonal(r)
    mag = np.abs(d)
    smax = mag.max() if d.size else 0.0
    if smax == 0.0 or mag.min() <= 1e-10 * smax * max(a.shape):
        raise DegenerateFactorizationError("input is numerically rank-deficient")
    phases = d / mag
    q = q * phases[None, :]
    r = phases.conj()[:, None] * r
    return q, r


def row_norms(vec: np.ndarray) -> np.ndarray:
    """sqrt(re . re + im . im) of rows (..., N), real or complex: np.linalg.norm of each row."""
    # kept: not np.linalg.norm(vec, axis=-1), which rounds differently for about one random
    # vector in six (tests/test_properties.py::test_row_norms_round_as_each_row_alone)
    sq = np.vecdot(vec.real, vec.real)
    return np.sqrt(sq + np.vecdot(vec.imag, vec.imag) if vec.dtype.kind == "c" else sq)


def initial_state(vec: np.ndarray) -> np.ndarray:
    """Start-state rows (..., N), real or complex, each divided by its row_norms; a row whose
    squared norm is below the normal range is first scaled by _UNDERFLOW_SCALE. A zero
    row raises DegenerateInitializationError, and a norm that is not finite raises
    FloatingPointError: dividing by it would not give a unit vector."""
    norm = row_norms(vec)[..., None]
    # kept: one normalisation for every model kind; only a row whose squared norm underflows is
    # rescaled (tests/test_properties.py::test_initial_state_rounds_as_each_row_alone)
    if not _MIN_NORM <= norm.min() <= norm.max() < np.inf:  # NaN fails every comparison
        if not vec.any(axis=-1).all():
            raise DegenerateInitializationError("initial-state parameter vector is zero")
        bad = norm[~np.isfinite(norm)]
        if bad.size:
            raise FloatingPointError(f"initial-state parameter vector has norm {bad[0]}")
        return initial_state(np.where(norm < _MIN_NORM, vec * _UNDERFLOW_SCALE, vec))
    return vec / norm


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


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """h as a complex array, if each matrix of the stack (..., N, N) is within
    HERMITIAN_TOL * max(1, max|H|) of its conjugate transpose: the rounding of
    a product such as Phi Phi^dag grows with the entries."""
    h = np.asarray(h, dtype=complex)
    dev = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = dev > HERMITIAN_TOL * np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
    if np.any(bad):
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev[bad].max():.3e}")
    return h


def vec_hermitian(a: np.ndarray) -> np.ndarray:
    """Real coordinates (..., N^2) of Hermitian matrices stacked (..., N, N).

    Coordinate alpha is tr(E_alpha A) in the trace-orthonormal Hermitian basis
    of canonical order: the N diagonal projectors e_j e_j^T, then the real
    symmetrizers (e_j e_k^T + e_k e_j^T)/sqrt(2) for j < k in lexicographic
    order, then the imaginary antisymmetrizers (-i e_j e_k^T + i e_k e_j^T)/sqrt(2),
    same order. In closed form that is [diag A, sqrt(2) Re A_jk, -sqrt(2) Im A_jk]
    over j < k, so vec(A) . vec(B) = tr(AB).
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise InvalidDimensionError(f"need (..., N, N) matrices with N >= 1, got shape {a.shape}")
    a = check_hermitian(a)
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
    ranks = (np.zeros(a.shape[:-2], dtype=int) if 0 in a.shape[-2:] else
             _rank_of_singular_values(np.linalg.svd(a, compute_uv=False), a.shape, rel_tol))
    return int(ranks) if a.ndim == 2 else ranks


def _rank_of_singular_values(sigma: np.ndarray, shape: tuple, rel_tol: float = DEFAULT_RANK_TOL):
    """numerical_rank's rule on the singular values (..., k) of matrices (..., M, N) of
    `shape`; an all-zero matrix has sigma_max = 0 and no singular value above it."""
    return np.sum(sigma > rel_tol * sigma.max(axis=-1, keepdims=True) * max(shape[-2:]), axis=-1)
