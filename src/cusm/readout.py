"""Quadratic (Born-rule) decoding of the complex state.

The measurement matrix M is N x V with columns m_k; the constraint
M M^dag = I_N makes p(k) = |<m_k|psi>|^2 a probability distribution for any
unit state. Enforcement is by QR projection of M^dag onto the Stiefel
manifold; the stored parameter stays unconstrained.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateFactorizationError, DegenerateMeasurementError, InvalidDimensionError
from .numerics import thin_qr_unique

PROB_FLOOR = 1e-300


def project_measurement(raw: np.ndarray) -> np.ndarray:
    """Replace M^dag by the Q factor of its thin QR; output satisfies MM^dag = I."""
    raw = np.asarray(raw, dtype=complex)
    n, v = raw.shape
    if v < n:
        raise InvalidDimensionError(f"need V >= N, got N={n}, V={v}")
    try:
        q, _ = thin_qr_unique(raw.conj().T)
    except DegenerateFactorizationError as exc:
        raise DegenerateMeasurementError("raw measurement matrix is row-rank deficient") from exc
    return q.conj().T


def born_probabilities(meas: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """p(k) = |<m_k|psi>|^2. Sums to 1 when MM^dag = I and psi is unit norm."""
    overlaps = meas.conj().T @ psi
    return np.abs(overlaps) ** 2


def diagonal_only_probabilities(meas: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Magnitude-only readout: drop the phase cross terms and renormalize.

    Insensitive to relative phases by construction, which is exactly the
    information the full Born rule can use. Like born_probabilities, takes one
    state or state columns (N, B).
    """
    weights = (np.abs(meas) ** 2).T @ (np.abs(psi) ** 2)
    total = weights.sum(axis=0)
    if np.any(total <= 0.0):
        raise DegenerateMeasurementError("diagonal readout normalizer vanished; MM^dag = I violated")
    return weights / total


def density_matrix(psi: np.ndarray) -> np.ndarray:
    """Rank-one projector rho = psi psi^dag (the quadratic lifting)."""
    return np.outer(psi, psi.conj())


def floored_log(p: np.ndarray) -> tuple[np.ndarray, bool]:
    """Elementwise log with underflow floor; flags whether the floor fired."""
    floored = bool(np.any(p < PROB_FLOOR))
    return np.log(np.maximum(p, PROB_FLOOR)), floored
