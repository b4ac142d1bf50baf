import numpy as np
from test_properties import channel_currents, factor_current

from cusm.cli import TOLERANCES
from cusm.currents import (
    continuity_balance,
    continuous_current,
    factor_currents,
    midpoint_current,
    total_current,
)
from cusm.dynamics import InteractionFactors, cayley_step_dense
from cusm.numerics import ginibre, make_rng


def random_hermitian(rng, n):
    z = ginibre(rng, n, n)
    return z + z.conj().T


def random_state(rng, n):
    psi = ginibre(rng, n, 1)[:, 0]
    return psi / np.linalg.norm(psi)


class TestContinuousCurrent:
    def test_diagonal_hamiltonian(self):
        rng = make_rng(0)
        h = np.diag(rng.standard_normal(4)).astype(complex)
        j = continuous_current(h, random_state(rng, 4))
        assert np.abs(j).max() < 1e-15

    def test_hand_value(self):
        h = np.array([[0, 1], [1, 0]], dtype=complex)
        psi = np.array([1.0, 1j]) / np.sqrt(2.0)
        j = continuous_current(h, psi)
        # J_{0<-1} = 2 Im(H_01 c0* c1) = 2 Im(i/2) = 1
        assert abs(j[0, 1] - 1.0) < 1e-14

    def test_structure(self):
        rng = make_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            h = random_hermitian(rng, n)
            j = continuous_current(h, random_state(rng, n))
            assert np.abs(j + j.T).max() < 1e-12
            assert np.abs(np.diagonal(j)).max() < 1e-13
            assert abs(j.sum()) < 1e-12

    def test_diagonal_shift_irrelevant(self):
        rng = make_rng(2)
        h = random_hermitian(rng, 5)
        psi = random_state(rng, 5)
        shifted = h + np.diag(rng.standard_normal(5))
        j1 = continuous_current(h, psi)
        j2 = continuous_current(shifted, psi)
        off = ~np.eye(5, dtype=bool)
        assert np.abs(j1[off] - j2[off]).max() < 1e-13


class TestMidpointCurrent:
    def test_zero_case(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        j = midpoint_current(np.zeros((2, 2)), psi, psi)
        assert np.abs(j).max() == 0.0

    def test_exact_balance(self):
        rng = make_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            dt = float(rng.choice([0.1, 1.0, 4.0]))
            h = random_hermitian(rng, n)
            pre = random_state(rng, n)
            post = cayley_step_dense(h, pre, dt)
            j = midpoint_current(h, pre, post)
            dp = np.abs(post) ** 2 - np.abs(pre) ** 2
            assert np.abs(dp - dt * j.sum(axis=1)).max() < 1e-11

    def test_time_reversal(self):
        rng = make_rng(4)
        h = random_hermitian(rng, 6)
        pre = random_state(rng, 6)
        post = cayley_step_dense(h, pre, 1.0)
        # stepping back under -H retraces the path through the same midpoint,
        # so the current exactly negates
        back = cayley_step_dense(-h, post, 1.0)
        assert np.abs(back - pre).max() < 1e-12
        j_fwd = midpoint_current(h, pre, post)
        j_back = midpoint_current(-h, post, back)
        assert np.abs(j_fwd + j_back).max() < 1e-12

    def test_continuous_residual_second_order(self):
        # pre-step continuous current misses the balance by O(dt^2):
        # halving dt must shrink the residual about 4x
        rng = make_rng(5)
        h = random_hermitian(rng, 5)
        pre = random_state(rng, 5)

        def residual(dt):
            post = cayley_step_dense(h, pre, dt)
            j = continuous_current(h, pre)
            dp = np.abs(post) ** 2 - np.abs(pre) ** 2
            return np.abs(dp - dt * j.sum(axis=1)).max()

        r1 = residual(0.1)
        r2 = residual(0.05)
        assert 3.0 < r1 / r2 < 5.0


class TestContinuityBalance:
    def _trajectory(self, rng, hs, dt):
        states = [random_state(rng, hs.shape[-1])]
        for h in hs:
            states.append(cayley_step_dense(h, states[-1], dt))
        return np.array(states)

    def test_cayley_trajectory_balances(self):
        rng = make_rng(13)
        dt = 0.4
        hs = np.array([random_hermitian(rng, 5) for _ in range(6)])
        states = self._trajectory(rng, hs, dt)
        rows = midpoint_current(hs, states[:-1], states[1:]).sum(axis=-1)
        norms, residuals = continuity_balance(states, dt, rows)
        assert residuals.shape == norms.shape == (6,)
        assert residuals.max() <= 1e-14
        assert np.abs(norms - 1.0).max() < 1e-14

    def test_row_sums_of_another_generator_do_not_balance(self):
        rng = make_rng(14)
        dt = 0.4
        hs = np.array([random_hermitian(rng, 5) for _ in range(6)])
        states = self._trajectory(rng, hs, dt)
        other = np.array([random_hermitian(rng, 5) for _ in range(6)])
        rows = midpoint_current(other, states[:-1], states[1:]).sum(axis=-1)
        assert continuity_balance(states, dt, rows)[1].max() > TOLERANCES["balance_tolerance"]


class TestChannelCurrents:
    def test_single_channel(self):
        rng = make_rng(6)
        f = InteractionFactors(phi=ginibre(rng, 4, 1), delta=rng.standard_normal(4))
        psi = random_state(rng, 4)
        chan = channel_currents(f, psi)
        total = continuous_current(f.materialize(), psi)
        off = ~np.eye(4, dtype=bool)
        assert np.abs(chan[0][off] - total[off]).max() < 1e-11

    def test_zero_column(self):
        rng = make_rng(7)
        phi = ginibre(rng, 4, 3)
        phi[:, 1] = 0.0
        f = InteractionFactors(phi=phi, delta=np.zeros(4))
        chan = channel_currents(f, random_state(rng, 4))
        assert np.abs(chan[1]).max() == 0.0

    def test_channel_sum(self):
        rng = make_rng(8)
        f = InteractionFactors(phi=ginibre(rng, 5, 3), delta=rng.standard_normal(5))
        psi = random_state(rng, 5)
        chan = channel_currents(f, psi)
        total = continuous_current(f.materialize(), psi)
        off = ~np.eye(5, dtype=bool)
        assert np.abs(chan.sum(axis=0)[off] - total[off]).max() < 1e-11
        for a in range(3):
            assert np.abs(chan[a] + chan[a].T).max() < 1e-12


class TestFactorCurrent:
    def test_exact_antisymmetry_and_rank(self):
        rng = make_rng(10)
        phi = ginibre(rng, 3 * 9, 2).reshape(3, 9, 2)
        j = factor_current(phi, ginibre(rng, 3, 9))
        assert np.array_equal(j, -j.swapaxes(-1, -2))
        assert all(np.linalg.matrix_rank(m) <= 4 for m in j)

    def test_channels_sum_to_the_current(self):
        rng = make_rng(11)
        f = InteractionFactors(phi=ginibre(rng, 6, 3), delta=rng.standard_normal(6))
        psi = random_state(rng, 6)
        assert np.abs(channel_currents(f, psi).sum(axis=0) - factor_current(f.phi, psi)).max() \
            < 1e-15

    def test_rows_and_totals_of_a_stack(self):
        rng = make_rng(12)
        # 40 steps: several whole chunks of J and a partial last one
        phi, c = ginibre(rng, 40 * 7, 2).reshape(40, 7, 2), ginibre(rng, 40, 7)
        j = factor_current(phi, c)
        assert np.abs(factor_currents(phi, c)[0] - j.sum(axis=-1)).max() < 1e-14
        want = [total_current(m) for m in j]
        assert np.abs(factor_currents(phi, c)[1] - want).max() < 1e-14

    def test_totals_keep_the_bits_of_half_the_whole_sum(self):
        # the chunked sums of |J/2| are half the sums of |J| bit for bit: scaling by 2 is exact
        rng = make_rng(13)
        phi, c = ginibre(rng, 40 * 9, 3).reshape(40, 9, 3), ginibre(rng, 40, 9)
        want = 0.5 * np.abs(factor_current(phi, c)).sum(axis=(-2, -1))
        assert factor_currents(phi, c)[1].tobytes() == want.tobytes()


class TestTotalCurrent:
    def test_zero(self):
        assert total_current(np.zeros((4, 4))) == 0.0

    def test_hand_value(self):
        h = np.array([[0, 1], [1, 0]], dtype=complex)
        psi = np.array([1.0, 1j]) / np.sqrt(2.0)
        assert abs(total_current(continuous_current(h, psi)) - 1.0) < 1e-14

    def test_homogeneity(self):
        rng = make_rng(9)
        j = continuous_current(random_hermitian(rng, 5), random_state(rng, 5))
        assert abs(total_current(2.0 * j) - 2.0 * total_current(j)) < 1e-12
