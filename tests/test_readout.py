import numpy as np
import pytest

from cusm.exceptions import DegenerateMeasurementError, InvalidDimensionError
from cusm.numerics import ginibre, make_rng, vec_hermitian
from cusm.readout import (
    born_probabilities,
    density_matrix,
    diagonal_only_probabilities,
    floored_log,
    project_measurement,
)


def random_state(rng, n):
    psi = ginibre(rng, n, 1)[:, 0]
    return psi / np.linalg.norm(psi)


PHASE_MEAS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


class TestProjectMeasurement:
    def test_identity_padded(self):
        raw = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
        m = project_measurement(raw)[0]
        assert np.abs(m @ m.conj().T - np.eye(3)).max() < 1e-12

    def test_idempotent(self):
        rng = make_rng(1)
        m = project_measurement(ginibre(rng, 3, 9))[0]
        again = project_measurement(m)[0]
        assert np.abs(again - m).max() < 1e-12

    def test_random_ginibre(self):
        m = project_measurement(ginibre(make_rng(2), 4, 16))[0]
        assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-12

    def test_too_few_columns(self):
        with pytest.raises(InvalidDimensionError):
            project_measurement(np.ones((4, 2), dtype=complex))

    def test_rank_deficient(self):
        raw = np.ones((3, 6), dtype=complex)
        with pytest.raises(DegenerateMeasurementError):
            project_measurement(raw)


class TestBornProbabilities:
    def test_basis_state(self):
        raw = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
        m = project_measurement(raw)[0]
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        p = born_probabilities(m, psi)
        assert abs(p[0] - 1.0) < 1e-12
        assert p[1:3].max() < 1e-24

    def test_phase_sensitivity(self):
        # equal magnitudes, opposite relative phase, opposite outputs
        p_plus = born_probabilities(PHASE_MEAS, PLUS)
        p_minus = born_probabilities(PHASE_MEAS, MINUS)
        assert np.abs(p_plus - np.array([1.0, 0.0])).max() < 1e-14
        assert np.abs(p_minus - np.array([0.0, 1.0])).max() < 1e-14

    def test_normalization(self):
        rng = make_rng(3)
        for _ in range(25):
            m = project_measurement(ginibre(rng, 4, 16))[0]
            psi = random_state(rng, 4)
            p = born_probabilities(m, psi)
            assert p.min() >= 0.0
            assert abs(p.sum() - 1.0) < 1e-10

    def test_global_phase_invariance(self):
        rng = make_rng(4)
        m = project_measurement(ginibre(rng, 3, 9))[0]
        psi = random_state(rng, 3)
        rotated = np.exp(1j * 0.814) * psi
        assert np.abs(born_probabilities(m, psi) - born_probabilities(m, rotated)).max() < 1e-15


class TestDiagonalOnlyProbabilities:
    def test_basis_state(self):
        rng = make_rng(5)
        m = project_measurement(ginibre(rng, 3, 9))[0]
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        p = diagonal_only_probabilities(m, psi)
        weights = np.abs(m[0]) ** 2
        assert np.abs(p - weights / weights.sum()).max() < 1e-13

    def test_phase_blind(self):
        p_plus = diagonal_only_probabilities(PHASE_MEAS, PLUS)
        p_minus = diagonal_only_probabilities(PHASE_MEAS, MINUS)
        assert np.abs(p_plus - p_minus).max() < 1e-14

    def test_normalization(self):
        rng = make_rng(6)
        m = project_measurement(ginibre(rng, 4, 16))[0]
        psi = random_state(rng, 4)
        assert abs(diagonal_only_probabilities(m, psi).sum() - 1.0) < 1e-12

    def test_vanishing_normalizer_is_a_package_error(self):
        with pytest.raises(DegenerateMeasurementError):
            diagonal_only_probabilities(PHASE_MEAS, np.zeros(2, dtype=complex))


class TestDensityMatrix:
    def test_basis_state(self):
        rho = density_matrix(np.array([1.0, 0.0, 0.0], dtype=complex))
        assert np.array_equal(rho, np.diag([1.0, 0.0, 0.0]).astype(complex))

    def test_witness_state(self):
        psi = np.array([1.0, 1j]) / np.sqrt(2.0)
        expected = 0.5 * np.array([[1, -1j], [1j, 1]])
        assert np.abs(density_matrix(psi) - expected).max() < 1e-15

    def test_pure_spectrum(self):
        rng = make_rng(7)
        rho = density_matrix(random_state(rng, 5))
        evals = np.sort(np.linalg.eigvalsh(rho))
        assert abs(evals[-1] - 1.0) < 1e-10
        assert np.abs(evals[:-1]).max() < 1e-10

    def test_born_via_trace(self):
        rng = make_rng(8)
        m = project_measurement(ginibre(rng, 4, 16))[0]
        psi = random_state(rng, 4)
        rho = density_matrix(psi)
        p = born_probabilities(m, psi)
        for k in range(16):
            mk = np.outer(m[:, k], m[:, k].conj())
            assert abs(p[k] - np.trace(mk @ rho).real) < 1e-12

    def test_lifting_linearity(self):
        rng = make_rng(9)
        m = project_measurement(ginibre(rng, 3, 9))[0]
        psi = random_state(rng, 3)
        rho = density_matrix(psi)
        p = born_probabilities(m, psi)
        for k in range(9):
            mk = np.outer(m[:, k], m[:, k].conj())
            dot = vec_hermitian(mk) @ vec_hermitian(rho)
            assert abs(p[k] - dot) < 1e-10


class TestFlooredLog:
    def test_no_floor(self):
        logs = floored_log(np.array([0.5, 1.0]))
        assert np.abs(logs - np.log([0.5, 1.0])).max() < 1e-15

    def test_floor_fires(self):
        logs = floored_log(np.array([0.0, 1.0]))
        assert np.isfinite(logs).all()
