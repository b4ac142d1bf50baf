"""Pairwise probability-current diagnostics.

J[j, k] = 2 Im(H_jk c_j^* c_k) is the flow of occupation probability from
dimension k into dimension j. Antisymmetry, zero diagonal, and global
conservation follow from Hermiticity alone. The midpoint variant, evaluated
at the average of the pre- and post-step amplitudes of a Cayley step,
balances the discrete probability changes exactly; it takes stacks (..., N, N)
of H and (..., N) of amplitudes, so a whole trajectory is one call.
continuity_balance checks that balance along a trajectory from the row sums of
the midpoint current, dense or factored as below.

For the low-rank generator H = Phi Phi^dag + diag(delta) the diagonal shift
drives no current, so J = 2 Im(X X^dag) with X = c^* o Phi (N x r): J is
Im(X) Re(X)^T minus its transpose, twice, of rank at most 2r, and its row
sums 2 Im(X (X^dag 1)) cost O(N r). factor_currents takes a stack of factors
(T, N, r) and amplitudes (T, N), forms X once and never builds H: simulate's
full mode. The dense currents are the reference, and serve simulate's task
mode, whose generators dynamics.inverse_cayley recovers from all the token
unitaries at once: one midpoint_current call over the tokens' Hamiltonians.
"""

from __future__ import annotations

import numpy as np

from .numerics import check_hermitian, row_norms

# steps of J formed at once by factor_currents; at N=64, T=256, r=4
# chunks of 8 timed as fast as 16 and faster than 1, 4 or 32 and above
CHUNK_STEPS = 8


def continuous_current(h: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """J (..., N, N) of h (..., N, N) at amplitudes psi (..., N). outer is named
    so that numpy cannot reuse it as the product's output: on a large stack
    that swaps the operands, which under FMA changes the rounding."""
    h = check_hermitian(h)
    # kept: named, not a temporary
    # (tests/test_properties.py::test_stacked_dense_currents_equal_each_matrix_bit_for_bit)
    outer = psi.conj()[..., :, None] * psi[..., None, :]
    return 2.0 * np.imag(h * outer)


def midpoint_current(h: np.ndarray, psi_pre: np.ndarray, psi_post: np.ndarray) -> np.ndarray:
    """Current at the implicit midpoint amplitudes c_bar = (c_pre + c_post)/2,
    stacked like continuous_current; when psi_post is the Cayley step of psi_pre
    under the same H and dt, its row sums balance in continuity_balance."""
    cbar = 0.5 * (psi_pre + psi_post)
    return continuous_current(h, cbar)


def continuity_balance(states: np.ndarray, dt: float,
                       row_sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per step of a trajectory states (T+1, N): the norm of the post-step state
    and the balance residual max_j |d|c_j|^2 - dt (J 1)_j| of the discrete
    continuity equation, given the midpoint current's row sums J 1 (T, N)."""
    squares = np.abs(states) ** 2
    dp = squares[1:] - squares[:-1]
    # row_norms rounds as np.linalg.norm of each state alone, in one stacked call
    return row_norms(states[1:]), np.abs(dp - dt * row_sums).max(axis=1)


def _half_current(x: np.ndarray) -> np.ndarray:
    """M - M^T with M = Im(X) Re(X)^T, a new array: half the current J (..., N, N) of
    H = Phi Phi^dag + diag(delta), for any delta, from X = c^* o Phi (..., N, r)."""
    m = x.imag @ x.real.swapaxes(-1, -2)
    return m - m.swapaxes(-1, -2)


def factor_currents(phi: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row sums J 1 (T, N) of that current, at O(N r), and its total_current (T,), of
    each step of stacks phi (T, N, r), c (T, N).

    J/2 is formed CHUNK_STEPS steps at a time, so memory stays at CHUNK_STEPS * N^2; J is
    exactly antisymmetric, so the sum over j < k is the whole sum of |J/2|.
    """
    x = c.conj()[..., None] * phi
    rows = 2.0 * np.imag(x @ x.sum(axis=-2).conj()[..., None])[..., 0]
    totals = np.empty(phi.shape[0])
    for start in range(0, phi.shape[0], CHUNK_STEPS):
        chunk = slice(start, start + CHUNK_STEPS)
        half = _half_current(x[chunk])
        totals[chunk] = np.abs(half, out=half).sum(axis=(-2, -1))
    return rows, totals


def total_current(j: np.ndarray) -> float | np.ndarray:
    """Aggregate magnitude sum_{j<k} |J_{jk}| of a current (N, N), or one per
    matrix of a stack (..., N, N)."""
    totals = np.abs(np.triu(j, k=1)).sum(axis=(-2, -1))
    return float(totals) if j.ndim == 2 else totals
