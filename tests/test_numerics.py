import warnings

import numpy as np
import pytest

from cusm.dynamics import InteractionFactors
from cusm.exceptions import (DegenerateFactorizationError, DegenerateInitializationError,
                             InvalidDimensionError, NonHermitianError)
from cusm.numerics import (
    ginibre,
    initial_state,
    make_rng,
    numerical_rank,
    sample_haar_unitary,
    thin_qr_unique,
    vec_hermitian,
)


def explicit_hermitian_basis(dim: int) -> np.ndarray:
    """The canonical trace-orthonormal Hermitian basis, element by element, as
    a (dim**2, dim, dim) stack: the oracle for the closed-form vec_hermitian.

    Order: diagonal projectors e_j e_j^T, then (e_j e_k^T + e_k e_j^T)/sqrt(2)
    for j < k lexicographic, then (-i e_j e_k^T + i e_k e_j^T)/sqrt(2), same order.
    """
    mats = np.zeros((dim * dim, dim, dim), dtype=complex)
    idx = 0
    for j in range(dim):
        mats[idx, j, j] = 1.0
        idx += 1
    s = 1.0 / np.sqrt(2.0)
    for j in range(dim):
        for k in range(j + 1, dim):
            mats[idx, j, k] = s
            mats[idx, k, j] = s
            idx += 1
    for j in range(dim):
        for k in range(j + 1, dim):
            mats[idx, j, k] = -1j * s
            mats[idx, k, j] = 1j * s
            idx += 1
    return mats


def vec_by_basis(a: np.ndarray) -> np.ndarray:
    """Oracle coordinates v_alpha = tr(E_alpha A) over the explicit basis."""
    return np.einsum("ajk,kj->a", explicit_hermitian_basis(a.shape[0]), a).real


def random_hermitian(rng, dim: int) -> np.ndarray:
    z = ginibre(rng, dim, dim)
    return z + z.conj().T


class TestSampleHaarUnitary:
    def test_dim_one_unit_modulus(self):
        for seed in range(10):
            u = sample_haar_unitary(1, seed)
            assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        u = sample_haar_unitary(4, 7)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    def test_first_moment(self):
        # Haar gives E|U_00|^2 = 1/dim
        vals = [abs(sample_haar_unitary(2, s)[0, 0]) ** 2 for s in range(1000)]
        assert abs(np.mean(vals) - 0.5) < 0.05

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidDimensionError):
            sample_haar_unitary(0, 1)

    def test_deterministic(self):
        assert np.array_equal(sample_haar_unitary(3, 11), sample_haar_unitary(3, 11))

    def test_unitarity_many(self):
        for seed in range(50):
            u = sample_haar_unitary(5, seed)
            assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12


class TestHermitianBasis:
    """The explicit basis above is the oracle; vec_hermitian is its closed form."""

    def test_count(self):
        assert explicit_hermitian_basis(2).shape == (4, 2, 2)
        assert vec_hermitian(np.eye(2)).shape == (4,)

    def test_elements_hermitian(self):
        for e in explicit_hermitian_basis(3):
            assert np.array_equal(e, e.conj().T)

    def test_gram_identity(self):
        basis = explicit_hermitian_basis(2)
        gram = np.einsum("ajk,bkj->ab", basis, basis).real
        assert np.abs(gram - np.eye(4)).max() < 1e-14

    def test_invalid_dim(self):
        for shape in ((0, 0), (2, 3), (4,)):
            with pytest.raises(InvalidDimensionError):
                vec_hermitian(np.zeros(shape))

    def test_closed_form_matches_oracle(self):
        rng = make_rng(6)
        for dim in (1, 2, 3, 4, 5):
            for _ in range(5):
                a = random_hermitian(rng, dim)
                assert np.abs(vec_hermitian(a) - vec_by_basis(a)).max() < 1e-14


class TestVecHermitian:
    def test_zero(self):
        assert np.array_equal(vec_hermitian(np.zeros((3, 3))), np.zeros(9))

    def test_identity_norm(self):
        v = vec_hermitian(np.eye(2))
        assert abs(v @ v - 2.0) < 1e-12

    def test_witness_projector_roundtrip(self):
        rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        v = vec_hermitian(rho)
        rebuilt = np.einsum("a,ajk->jk", v, explicit_hermitian_basis(2))
        assert np.abs(rebuilt - rho).max() < 1e-12

    def test_large_factor_products_accepted(self):
        # Phi Phi^dag rounds off Hermitian by up to ~1e-9 at |Phi| ~ 1e3, above an
        # absolute 1e-10; the tolerance scales with each matrix's entries
        rng = make_rng(9)
        worst = 0.0
        for n in range(2, 13):
            for r in range(2, 5):
                stack = np.stack([InteractionFactors(1e3 * ginibre(rng, n, r),
                                                     rng.standard_normal(n)).materialize()
                                  for _ in range(5)])
                worst = max(worst, np.abs(stack - stack.conj().swapaxes(-1, -2)).max())
                assert vec_hermitian(stack).shape == (5, n * n)
        assert worst > 1e-10

    def test_non_hermitian_slice_rejected(self):
        # 1e-8 off in a slice with max|H| = 1: far below the tolerance of the
        # 1e3-scale slices beside it, but each matrix is checked at its own scale
        rng = make_rng(10)
        stack = np.stack([InteractionFactors(1e3 * ginibre(rng, 4, 2),
                                             rng.standard_normal(4)).materialize()
                          for _ in range(3)] + [np.eye(4, dtype=complex)])
        stack[-1, 0, 1] += 1e-8
        with pytest.raises(NonHermitianError):
            vec_hermitian(stack)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            vec_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_isometry(self):
        rng = make_rng(5)
        for _ in range(20):
            z1 = ginibre(rng, 4, 4)
            z2 = ginibre(rng, 4, 4)
            a = z1 + z1.conj().T
            b = z2 + z2.conj().T
            inner = vec_hermitian(a) @ vec_hermitian(b)
            assert abs(inner - np.trace(a @ b).real) < 1e-10


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_empty(self):
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert numerical_rank(np.zeros((2, 3, 0))).tolist() == [0, 0]

    def test_outer_product(self):
        rng = make_rng(2)
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        assert numerical_rank(np.outer(a, b)) == 1

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            numerical_rank(np.eye(2), rel_tol=2.0)


class TestThinQrUnique:
    def test_idempotent_on_orthonormal(self):
        q0 = sample_haar_unitary(4, 3)[:, :2]
        # rotate column phases so the R diagonal is already real positive
        r0 = q0.conj().T @ q0  # identity; the QR of q0 must return q0
        q, r = thin_qr_unique(q0)
        assert np.abs(q - q0).max() < 1e-12
        assert np.abs(r - np.eye(2)).max() < 1e-12
        assert r0.shape == (2, 2)

    def test_scaled_identity(self):
        q, r = thin_qr_unique(2.0 * np.eye(3))
        assert np.abs(q - np.eye(3)).max() < 1e-14
        assert np.abs(r - 2.0 * np.eye(3)).max() < 1e-14

    def test_reconstruction(self):
        a = ginibre(make_rng(1), 6, 3)
        q, r = thin_qr_unique(a)
        assert np.abs(a - q @ r).max() < 1e-12
        assert np.diagonal(r).real.min() > 0
        assert np.abs(np.diagonal(r).imag).max() < 1e-14
        assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-12

    def test_rank_deficient_rejected(self):
        a = np.ones((4, 2), dtype=complex)
        with pytest.raises(DegenerateFactorizationError):
            thin_qr_unique(a)

    def test_wide_rejected(self):
        with pytest.raises(InvalidDimensionError):
            thin_qr_unique(np.ones((2, 4)))

    @pytest.mark.parametrize("scale", [1e-308, 1e-310, 1e-320])
    def test_subnormal_diagonal_takes_finite_phases(self, scale):
        # a full-rank input whose R has a diagonal below the normal range: dividing it by
        # its moduli overflowed into NaN phases. R's diagonal is real, so the phases are
        # the signs of np.linalg.qr's diagonal.
        a = np.array([[1.0, 2.0], [-3.0, 1.0], [0.5, 0.0]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q, r = thin_qr_unique(a)
        q0, r0 = np.linalg.qr(a.astype(complex))
        signs = np.sign(np.diagonal(r0).real)
        assert np.array_equal(q, q0 * signs) and np.array_equal(r, signs[:, None] * r0)
        assert np.diagonal(r).real.min() > 0.0 and not np.diagonal(r).imag.any()

    def test_deterministic(self):
        a = ginibre(make_rng(9), 5, 5)
        q1, r1 = thin_qr_unique(a)
        q2, r2 = thin_qr_unique(a.copy())
        assert np.array_equal(q1, q2)
        assert np.array_equal(r1, r2)


class TestInitialStateStack:
    @staticmethod
    def _rows(dtype, seed):
        vec = ginibre(make_rng(seed), 4, 5)
        return vec if dtype is complex else vec.real.copy()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_row_rejected(self, dtype):
        vec = self._rows(dtype, 3)
        vec[2] = 0.0
        with pytest.raises(DegenerateInitializationError, match="is zero"):
            initial_state(vec)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("entry", [1e-160, 1e-170, 5e-324])
    def test_row_below_the_normal_range_is_unit(self, dtype, entry):
        # a squared norm that is subnormal (1e-160) or underflows to zero (1e-170, 5e-324)
        direction = np.arange(1.0, 6.0) * (1.0 + 1j if dtype is complex else 1.0)
        vec = self._rows(dtype, 5)
        vec[2] = entry * direction
        got = initial_state(vec)
        assert abs(np.linalg.norm(got[2]) - 1.0) < 1e-15
        assert np.abs(got[2] - direction / np.linalg.norm(direction)).max() < 1e-15
        for row in (0, 1, 3):  # the other rows keep their rounding
            assert got[row].tobytes() == initial_state(vec[row]).tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_row_beside_a_tiny_row_rejected(self, dtype):
        vec = self._rows(dtype, 6)
        vec[0], vec[3] = 1e-170, 0.0
        with pytest.raises(DegenerateInitializationError, match="is zero"):
            initial_state(vec)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_non_finite_row_rejected(self, dtype, entry):
        vec = self._rows(dtype, 4)
        vec[1, 3] = entry
        with pytest.raises(FloatingPointError, match=f"has norm {entry}"):
            initial_state(vec)
